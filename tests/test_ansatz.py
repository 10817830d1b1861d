from dataclasses import replace

import numpy as np
import pytest

from quanvbench import qsim
from quanvbench.ansatz import RANDOM_CNOT_PROB, RANDOM_DEPTH, AnsatzKind, build_ansatz
from quanvbench.qsim import GateKind
from quanvbench.quanv import QuanvConfig

ROTATION_KINDS = [AnsatzKind.NO_ENTANGLEMENT, AnsatzKind.ZZ_LINEAR,
                  AnsatzKind.ZZ_STAR, AnsatzKind.ZZ_FULL]
ZZ_KINDS = [AnsatzKind.ZZ_FULL, AnsatzKind.ZZ_LINEAR, AnsatzKind.ZZ_STAR]


def reduced_purity(amps: np.ndarray, qubit: int) -> float:
    """Tr(rho_q^2) of the single-qubit marginal, via partial trace."""
    n = int(np.log2(amps.size))
    t = amps.reshape((2,) * n)
    t = np.moveaxis(t, qubit, 0).reshape(2, -1)
    rho = t @ t.conj().T
    return float(np.real(np.trace(rho @ rho)))


def zero_amps(n: int) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return amps


def run_on_zero(circuit: qsim.Circuit) -> np.ndarray:
    return qsim.apply_circuit_batch(zero_amps(circuit.n_qubits), circuit)


def angles(circuit: qsim.Circuit) -> np.ndarray:
    return np.array([p for g in circuit.gates for p in g.params])


def zz_targets(circuit: qsim.Circuit) -> list[tuple[int, ...]]:
    return [g.targets for g in circuit.gates if g.kind is GateKind.ZZ]


# ---------------------------------------------------------------------------
# The seeding contract of the rotation-plus-ZZ kinds
# ---------------------------------------------------------------------------

PAIRS_AT_4 = {
    AnsatzKind.NO_ENTANGLEMENT: [],
    AnsatzKind.ZZ_LINEAR: [(0, 1), (1, 2), (2, 3)],
    AnsatzKind.ZZ_STAR: [(0, 1), (0, 2), (0, 3)],
    AnsatzKind.ZZ_FULL: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
}


@pytest.mark.parametrize("kind", ROTATION_KINDS)
def test_angles_are_one_seeded_draw_in_gate_order(kind):
    # one Rot per qubit in qubit order, then the ZZ pairs; their angles, in
    # gate order, are a single uniform draw from the seed, bit for bit
    n = 4
    for seed in (0, 5, 2**63 + 5):
        c = build_ansatz(kind, seed)
        assert c.n_qubits == n
        rots, zzs = c.gates[:n], c.gates[n:]
        assert [(g.kind, g.targets) for g in rots] == [(GateKind.ROT, (q,)) for q in range(n)]
        assert all(g.kind is GateKind.ZZ for g in zzs)
        draw = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3 * n + len(zzs))
        assert np.array_equal(angles(c), draw)
    assert zz_targets(c) == PAIRS_AT_4[kind]


def test_parameter_count_table():
    def count(kind):
        return len(angles(build_ansatz(kind, seed=9)))

    n = 4
    assert count(AnsatzKind.NO_ENTANGLEMENT) == 3 * n
    assert count(AnsatzKind.ZZ_LINEAR) == 3 * n + (n - 1)
    assert count(AnsatzKind.ZZ_STAR) == 3 * n + (n - 1)
    assert count(AnsatzKind.ZZ_FULL) == 3 * n + n * (n - 1) // 2


# ---------------------------------------------------------------------------
# No entanglement
# ---------------------------------------------------------------------------

def test_no_entanglement_structure():
    c = build_ansatz(AnsatzKind.NO_ENTANGLEMENT, seed=5)
    assert len(c.gates) == 4
    assert all(g.kind is GateKind.ROT for g in c.gates)
    assert [g.targets for g in c.gates] == [(0,), (1,), (2,), (3,)]


def test_no_entanglement_output_is_product_state():
    s = run_on_zero(build_ansatz(AnsatzKind.NO_ENTANGLEMENT, seed=77))
    for q in range(4):
        assert abs(reduced_purity(s, q) - 1.0) < 1e-10


def test_no_entanglement_zero_angles_is_identity():
    c = build_ansatz(AnsatzKind.NO_ENTANGLEMENT, seed=0)
    zeroed = qsim.Circuit(4, tuple(replace(g, params=(0.0, 0.0, 0.0)) for g in c.gates))
    assert np.allclose(run_on_zero(zeroed), zero_amps(4), atol=1e-12)


# ---------------------------------------------------------------------------
# ZZ variants
# ---------------------------------------------------------------------------

def test_zz_linear_pairs():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_LINEAR, seed=5)) == [(0, 1), (1, 2), (2, 3)]


def test_zz_full_pair_count_and_order():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_FULL, seed=5)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_zz_full_entangling_block_order_invariant(rng):
    c = build_ansatz(AnsatzKind.ZZ_FULL, seed=11)
    rots = [g for g in c.gates if g.kind is GateKind.ROT]
    zzs = [g for g in c.gates if g.kind is GateKind.ZZ]
    base = run_on_zero(c)
    for _ in range(5):
        perm = rng.permutation(len(zzs))
        shuffled = qsim.Circuit(4, tuple(rots + [zzs[i] for i in perm]))
        assert np.max(np.abs(run_on_zero(shuffled) - base)) < 1e-12


def test_zz_star_pairs():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_STAR, seed=5)) == [(0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("kind", ZZ_KINDS)
def test_zz_entanglers_are_invisible_to_the_features(kind):
    # diagonal ZZ gates after the rotations commute with every Z_q, so at the
    # same seed (the same 12 rotation angles) the compiled terms are equal
    for seed in range(50):
        zz_terms = QuanvConfig(circuit=build_ansatz(kind, seed)).terms
        rot_terms = QuanvConfig(circuit=build_ansatz(AnsatzKind.NO_ENTANGLEMENT, seed)).terms
        assert [(q, f) for q, _, f in zz_terms] == [(q, f) for q, _, f in rot_terms]
        assert max(abs(a[1] - b[1]) for a, b in zip(zz_terms, rot_terms)) <= 1e-14


# ---------------------------------------------------------------------------
# Random architecture
# ---------------------------------------------------------------------------

def test_random_builder_deterministic():
    assert build_ansatz(AnsatzKind.RANDOM, 999).gates == build_ansatz(AnsatzKind.RANDOM, 999).gates


def test_random_builder_count_and_norm():
    c = build_ansatz(AnsatzKind.RANDOM, 7)
    assert 8 <= len(c.gates) <= 16
    assert abs(np.linalg.norm(run_on_zero(c)) - 1.0) < 1e-10


def test_random_builder_draws_cnots_at_the_module_probability():
    # one gate per qubit per layer; a CNOT with probability RANDOM_CNOT_PROB,
    # from its position's qubit to each of the 3 others
    cnot_targets = {q: set() for q in range(4)}
    positions = cnots = 0
    for seed in range(400):
        gates = build_ansatz(AnsatzKind.RANDOM, seed).gates
        assert len(gates) == RANDOM_DEPTH * 4
        for i, g in enumerate(gates):
            positions += 1
            if g.kind is GateKind.CNOT:
                cnots += 1
                control, target = g.targets
                assert control == i % 4 and target != control and 0 <= target < 4
                cnot_targets[control].add(target)
            else:
                assert g.targets == (i % 4,)
    sd = np.sqrt(RANDOM_CNOT_PROB * (1 - RANDOM_CNOT_PROB) / positions)
    assert abs(cnots / positions - RANDOM_CNOT_PROB) <= 4 * sd
    assert cnot_targets == {q: set(range(4)) - {q} for q in range(4)}


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_build_ansatz_deterministic_per_seed(kind):
    a = build_ansatz(kind, seed=42)
    b = build_ansatz(kind, seed=42)
    assert a.gates == b.gates
    c = build_ansatz(kind, seed=43)
    assert a.gates != c.gates


def test_build_ansatz_random_uses_given_seed():
    # replay the seed's draws: per position of 2 layers a CNOT coin of
    # probability 0.3, then a CNOT target or a single-qubit kind (RX, RY, RZ,
    # H) and its angle
    gates = build_ansatz(AnsatzKind.RANDOM, seed=55).gates
    assert len(gates) == 2 * 4
    rng = np.random.default_rng(55)
    for i, g in enumerate(gates):
        q = i % 4
        if rng.random() < 0.3:
            target = int(rng.integers(3))
            assert (g.kind, g.targets) == (GateKind.CNOT, (q, target + (target >= q)))
        else:
            kind = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.H)[int(rng.integers(4))]
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            assert (g.kind, g.targets) == (kind, (q,))
            assert g.params == (() if kind is GateKind.H else (theta,))
