import dataclasses
import functools

import numpy as np
import pytest

from quanvbench import attacks, nn, qsim, quanv, verify


def test_all_checks_pass_quickly():
    import time

    t0 = time.perf_counter()
    results = verify.run_all()
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert elapsed < 60.0
    assert len(results) == 7


def test_gradient_check_covers_every_ansatz_kind():
    passed, detail = verify.check_input_gradients()
    assert passed
    assert "all 5 ansatz kinds" in detail
    assert "finite differences" in detail and "parameter shift" in detail


@pytest.mark.parametrize("reuse, check", [
    # the features use up the blocks' cos and sin before the pullback reads them
    (lambda blocks: blocks, verify.check_end_to_end_gradients),
    # only the first block's are kept, and the checked image is in the second
    (lambda blocks: list(blocks)[:1], verify.check_input_gradients),
], ids=["consumed", "first-block-only"])
def test_pullback_that_loses_the_block_reuse_fails_gradient_check(monkeypatch, reuse, check):
    # mutation check: an end_to_end gradient must come from the cos and sin of
    # its image's own block, kept by encode for the contraction and the pullback
    def mutated(images):
        encoding = quanv._blocked(images)
        return encoding._replace(blocks=reuse(encoding.blocks))

    monkeypatch.setattr(quanv, "encode", mutated)
    passed, detail = check()
    assert not passed
    assert "relative error" in detail


def test_end_to_end_gradient_check_covers_every_ansatz_kind_and_both_heads():
    passed, detail = verify.check_end_to_end_gradients()
    assert passed
    assert "all 5 ansatz kinds, mnist and fmnist heads" in detail


@pytest.mark.parametrize("mutate", [
    lambda pullback, upstream: -pullback(upstream),                       # sign flipped
    lambda pullback, upstream: pullback(np.roll(upstream, 1, axis=0)),    # neighbour's upstream
    lambda pullback, upstream: pullback(upstream * np.array([0.0, 1, 1, 1])),  # channel 0 lost
], ids=["negated", "neighbour-upstream", "channel-dropped"])
def test_mutated_pullback_fails_end_to_end_gradient_check(monkeypatch, mutate):
    # mutation check: an end_to_end gradient that is not the derivative of
    # the loss of quanvolution and head composed must be caught
    real = quanv.pullback

    def mutated(cfg, encoding, upstream):
        return mutate(functools.partial(real, cfg, encoding), upstream)

    monkeypatch.setattr(quanv, "pullback", mutated)
    passed, detail = verify.check_end_to_end_gradients()
    assert not passed
    assert "relative error" in detail


def test_end_to_end_gradient_of_the_wrong_labels_fails_its_check(monkeypatch):
    # mutation check: the head's half of the chain rule, which the
    # quanvolution gradient check does not reach
    def mutated(self, images, labels):
        encoding = quanv.encode(images)
        features = quanv.contract(self.quanv_cfg, encoding)
        return quanv.pullback(self.quanv_cfg, encoding,
                              nn.input_gradient(self.head, features, labels[::-1]))

    monkeypatch.setattr(attacks.EndToEndSource, "gradient", mutated)
    passed, detail = verify.check_end_to_end_gradients()
    assert not passed
    assert "relative error" in detail


@pytest.mark.parametrize("mutate, check, message", [
    # a step size off by one part in 1e12: MIM's single step is no longer FGSM's
    (lambda cfg: dataclasses.replace(cfg, step_size=cfg.resolved_step_size() * (1 + 1e-12)),
     verify.check_attack_reductions, "differs from FGSM"),
    # every step projected onto a ball 3 epsilon wide
    (lambda cfg: dataclasses.replace(cfg, epsilon=3 * cfg.epsilon,
                                     step_size=cfg.resolved_step_size()),
     verify.check_epsilon_ball, "ball exceeded"),
], ids=["step-size", "projection"])
def test_mutated_iterative_attack_fails_its_check(monkeypatch, mutate, check, message):
    # mutation check: the loop PGD and MIM share, reached through attack_batch
    real = attacks._iterative

    def mutated(source, images, labels, cfg, grad):
        return real(source, images, labels, mutate(cfg), grad)

    monkeypatch.setattr(attacks, "_iterative", mutated)
    passed, detail = check()
    assert not passed
    assert message in detail


def test_corrupted_zz_sign_fails_dense_oracle(monkeypatch):
    # mutation check: a sign flip in the production ZZ kernel must be caught
    real = qsim.apply_gate_batch

    def corrupted(amps, gate, n_qubits):
        if gate.kind is qsim.GateKind.ZZ:
            gate = qsim.zz(gate.targets[0], gate.targets[1], -gate.params[0])
        return real(amps, gate, n_qubits)

    monkeypatch.setattr(qsim, "apply_gate_batch", corrupted)
    passed, detail = verify.check_statevector_oracle()
    assert not passed
    assert "error" in detail


def test_flipped_z_sign_in_observables_fails_feature_oracle(monkeypatch):
    # mutation check: one qubit's compiled observable with the wrong Z sign
    real = quanv._compile_observables

    def corrupted(circuit):
        observables = real(circuit)
        observables[1] *= -1.0
        return observables

    monkeypatch.setattr(quanv, "_compile_observables", corrupted)
    passed, detail = verify.check_feature_oracle()
    assert not passed
    assert "feature error" in detail


def test_zeroed_term_coefficient_fails_feature_oracle(monkeypatch):
    # mutation check: one compiled Fourier coefficient lost
    real = quanv._compile_terms

    def corrupted(circuit):
        (q, _, factors), *rest = real(circuit)
        return ((q, 0.0, factors), *rest)

    monkeypatch.setattr(quanv, "_compile_terms", corrupted)
    passed, detail = verify.check_feature_oracle()
    assert not passed
    assert "feature error" in detail
