import numpy as np
import pytest

from quanvbench import qsim, quanv
from quanvbench.ansatz import (
    AnsatzKind,
    AnsatzParams,
    RandomCircuitSpec,
    build_ansatz,
    build_no_entanglement,
    build_random,
    build_zz_full,
    build_zz_linear,
    build_zz_star,
    init_params,
    parameter_count,
)
from quanvbench.qsim import GateKind
from quanvbench.quanv import QuanvConfig


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


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parameter_count_table(n):
    assert parameter_count(AnsatzKind.NO_ENTANGLEMENT, n) == 3 * n
    assert parameter_count(AnsatzKind.ZZ_LINEAR, n) == 3 * n + (n - 1)
    assert parameter_count(AnsatzKind.ZZ_STAR, n) == 3 * n + (n - 1)
    assert parameter_count(AnsatzKind.ZZ_FULL, n) == 3 * n + n * (n - 1) // 2


def test_init_params_counts():
    assert len(init_params(AnsatzKind.ZZ_FULL, 4, 9).thetas) == 18  # 12 + 6
    assert len(init_params(AnsatzKind.NO_ENTANGLEMENT, 4, 9).thetas) == 12


def test_init_params_deterministic_and_in_range():
    a = init_params(AnsatzKind.ZZ_FULL, 4, 123)
    b = init_params(AnsatzKind.ZZ_FULL, 4, 123)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.all(a.thetas >= 0) and np.all(a.thetas < 2 * np.pi)
    c = init_params(AnsatzKind.ZZ_FULL, 4, 124)
    assert not np.array_equal(a.thetas, c.thetas)


def test_wrong_param_count_rejected():
    bad = AnsatzParams(np.zeros(5), seed=0)
    for builder in (build_no_entanglement, build_zz_linear, build_zz_full, build_zz_star):
        with pytest.raises(ValueError):
            builder(4, bad)


# ---------------------------------------------------------------------------
# No entanglement
# ---------------------------------------------------------------------------

def test_no_entanglement_structure():
    c = build_no_entanglement(4, init_params(AnsatzKind.NO_ENTANGLEMENT, 4, 5))
    assert len(c.gates) == 4
    assert all(g.kind is GateKind.ROT for g in c.gates)
    assert [g.targets for g in c.gates] == [(0,), (1,), (2,), (3,)]


def test_no_entanglement_output_is_product_state():
    c = build_no_entanglement(4, init_params(AnsatzKind.NO_ENTANGLEMENT, 4, 77))
    s = run_on_zero(c)
    for q in range(4):
        assert abs(reduced_purity(s, q) - 1.0) < 1e-10


def test_no_entanglement_zero_angles_is_identity():
    c = build_no_entanglement(3, AnsatzParams(np.zeros(9), seed=0))
    s = run_on_zero(c)
    assert np.allclose(s, zero_amps(3), atol=1e-12)


# ---------------------------------------------------------------------------
# ZZ linear
# ---------------------------------------------------------------------------

def test_zz_linear_pairs():
    c = build_zz_linear(4, init_params(AnsatzKind.ZZ_LINEAR, 4, 5))
    zz_gates = [g for g in c.gates if g.kind is GateKind.ZZ]
    assert [g.targets for g in zz_gates] == [(0, 1), (1, 2), (2, 3)]


def test_zz_linear_two_qubits():
    c = build_zz_linear(2, init_params(AnsatzKind.ZZ_LINEAR, 2, 5))
    assert sum(g.kind is GateKind.ZZ for g in c.gates) == 1


def test_zz_linear_zero_entanglers_reduces_to_no_entanglement():
    rot_angles = np.random.default_rng(3).uniform(0, 2 * np.pi, 12)
    lin = build_zz_linear(4, AnsatzParams(np.concatenate([rot_angles, np.zeros(3)]), 0))
    noent = build_no_entanglement(4, AnsatzParams(rot_angles, 0))
    assert np.allclose(run_on_zero(lin), run_on_zero(noent), atol=1e-12)


# ---------------------------------------------------------------------------
# ZZ full
# ---------------------------------------------------------------------------

def test_zz_full_pair_count_and_order():
    c = build_zz_full(4, init_params(AnsatzKind.ZZ_FULL, 4, 5))
    zz_gates = [g for g in c.gates if g.kind is GateKind.ZZ]
    assert len(zz_gates) == 6  # n(n-1)/2
    assert [g.targets for g in zz_gates] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_zz_full_equals_linear_at_n2():
    p = init_params(AnsatzKind.ZZ_FULL, 2, 5)
    assert build_zz_full(2, p).gates == build_zz_linear(2, p).gates


def test_zz_full_entangling_block_order_invariant(rng):
    p = init_params(AnsatzKind.ZZ_FULL, 4, 11)
    c = build_zz_full(4, p)
    rots = [g for g in c.gates if g.kind is GateKind.ROT]
    zzs = [g for g in c.gates if g.kind is GateKind.ZZ]
    base = run_on_zero(c)
    for _ in range(5):
        perm = rng.permutation(len(zzs))
        shuffled = qsim.Circuit(4, tuple(rots + [zzs[i] for i in perm]))
        assert np.max(np.abs(run_on_zero(shuffled) - base)) < 1e-12


# ---------------------------------------------------------------------------
# ZZ star
# ---------------------------------------------------------------------------

def test_zz_star_pairs():
    c = build_zz_star(4, init_params(AnsatzKind.ZZ_STAR, 4, 5))
    zz_gates = [g for g in c.gates if g.kind is GateKind.ZZ]
    assert [g.targets for g in zz_gates] == [(0, 1), (0, 2), (0, 3)]


def test_zz_star_equals_linear_at_n2():
    p = init_params(AnsatzKind.ZZ_STAR, 2, 5)
    assert build_zz_star(2, p).gates == build_zz_linear(2, p).gates


def test_zz_star_zero_entanglers_matches_no_entanglement_z_pattern():
    rot_angles = np.random.default_rng(8).uniform(0, 2 * np.pi, 12)
    star = build_zz_star(4, AnsatzParams(np.concatenate([rot_angles, np.zeros(3)]), 0))
    noent = build_no_entanglement(4, AnsatzParams(rot_angles, 0))
    # <0|U^dagger Z_q U|0> for every qubit q
    z_star = quanv._compile_observables(star)[:, 0, 0]
    z_noent = quanv._compile_observables(noent)[:, 0, 0]
    assert np.allclose(z_star, z_noent, atol=1e-12)


@pytest.mark.parametrize("kind", [AnsatzKind.ZZ_FULL, AnsatzKind.ZZ_LINEAR, AnsatzKind.ZZ_STAR])
def test_zz_entanglers_are_invisible_to_the_features(kind):
    # diagonal ZZ gates after the rotations commute with every Z_q, so at the
    # same seed (the same 12 rotation angles) the compiled terms are equal
    for seed in range(50):
        zz_terms = QuanvConfig(circuit=build_ansatz(kind, 4, seed)).terms
        rot_terms = QuanvConfig(circuit=build_ansatz(AnsatzKind.NO_ENTANGLEMENT, 4, seed)).terms
        assert [(q, f) for q, _, f in zz_terms] == [(q, f) for q, _, f in rot_terms]
        assert max(abs(a[1] - b[1]) for a, b in zip(zz_terms, rot_terms)) <= 1e-14


# ---------------------------------------------------------------------------
# Random architecture
# ---------------------------------------------------------------------------

def test_random_builder_deterministic():
    spec = RandomCircuitSpec(depth=3, two_qubit_prob=0.4, seed=999)
    assert build_random(4, spec).gates == build_random(4, spec).gates


def test_random_builder_no_cnots_at_zero_prob():
    spec = RandomCircuitSpec(depth=4, two_qubit_prob=0.0, seed=1)
    c = build_random(4, spec)
    assert not any(g.kind is GateKind.CNOT for g in c.gates)


def test_random_builder_count_and_norm():
    spec = RandomCircuitSpec(depth=3, two_qubit_prob=0.3, seed=7)
    c = build_random(4, spec)
    assert 12 <= len(c.gates) <= 24
    assert abs(np.linalg.norm(run_on_zero(c)) - 1.0) < 1e-10


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomCircuitSpec(depth=0)
    with pytest.raises(ValueError):
        RandomCircuitSpec(two_qubit_prob=1.5)
    with pytest.raises(ValueError):
        RandomCircuitSpec(gate_pool=())
    with pytest.raises(ValueError):
        RandomCircuitSpec(gate_pool=(GateKind.CNOT,))


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_build_ansatz_deterministic_per_seed(kind):
    a = build_ansatz(kind, 4, seed=42)
    b = build_ansatz(kind, 4, seed=42)
    assert a.gates == b.gates
    c = build_ansatz(kind, 4, seed=43)
    assert a.gates != c.gates


def test_build_ansatz_random_uses_given_seed():
    spec = RandomCircuitSpec(depth=2, two_qubit_prob=0.3, seed=0)
    direct = build_random(4, RandomCircuitSpec(depth=2, two_qubit_prob=0.3, seed=55))
    assert build_ansatz(AnsatzKind.RANDOM, 4, seed=55, random_spec=spec).gates == direct.gates
