from dataclasses import replace

import numpy as np
import pytest

from quanvbench import qsim
from quanvbench.ansatz import AnsatzKind, RandomCircuitSpec, build_ansatz
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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ROTATION_KINDS)
def test_angles_are_one_seeded_draw_in_gate_order(kind, n):
    # one Rot per qubit in qubit order, then the ZZ pairs; their angles, in
    # gate order, are a single uniform draw from the seed, bit for bit
    for seed in (0, 5, 2**63 + 5):
        c = build_ansatz(kind, n, seed)
        rots, zzs = c.gates[:n], c.gates[n:]
        assert [(g.kind, g.targets) for g in rots] == [(GateKind.ROT, (q,)) for q in range(n)]
        assert all(g.kind is GateKind.ZZ for g in zzs)
        draw = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3 * n + len(zzs))
        assert np.array_equal(angles(c), draw)
    if n == 4:
        assert zz_targets(c) == PAIRS_AT_4[kind]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parameter_count_table(n):
    def count(kind):
        return len(angles(build_ansatz(kind, n, seed=9)))

    assert count(AnsatzKind.NO_ENTANGLEMENT) == 3 * n
    assert count(AnsatzKind.ZZ_LINEAR) == 3 * n + (n - 1)
    assert count(AnsatzKind.ZZ_STAR) == 3 * n + (n - 1)
    assert count(AnsatzKind.ZZ_FULL) == 3 * n + n * (n - 1) // 2


@pytest.mark.parametrize("kind", ZZ_KINDS)
def test_zz_kinds_need_two_qubits(kind):
    with pytest.raises(ValueError, match="at least 2 qubits"):
        build_ansatz(kind, 1, seed=0)
    assert len(build_ansatz(AnsatzKind.NO_ENTANGLEMENT, 1, seed=0).gates) == 1


# ---------------------------------------------------------------------------
# No entanglement
# ---------------------------------------------------------------------------

def test_no_entanglement_structure():
    c = build_ansatz(AnsatzKind.NO_ENTANGLEMENT, 4, seed=5)
    assert len(c.gates) == 4
    assert all(g.kind is GateKind.ROT for g in c.gates)
    assert [g.targets for g in c.gates] == [(0,), (1,), (2,), (3,)]


def test_no_entanglement_output_is_product_state():
    s = run_on_zero(build_ansatz(AnsatzKind.NO_ENTANGLEMENT, 4, seed=77))
    for q in range(4):
        assert abs(reduced_purity(s, q) - 1.0) < 1e-10


def test_no_entanglement_zero_angles_is_identity():
    c = build_ansatz(AnsatzKind.NO_ENTANGLEMENT, 3, seed=0)
    zeroed = qsim.Circuit(3, tuple(replace(g, params=(0.0, 0.0, 0.0)) for g in c.gates))
    assert np.allclose(run_on_zero(zeroed), zero_amps(3), atol=1e-12)


# ---------------------------------------------------------------------------
# ZZ variants
# ---------------------------------------------------------------------------

def test_zz_linear_pairs():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_LINEAR, 4, seed=5)) == [(0, 1), (1, 2), (2, 3)]


def test_zz_linear_two_qubits():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_LINEAR, 2, seed=5)) == [(0, 1)]


def test_zz_full_pair_count_and_order():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=5)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_zz_full_equals_linear_at_n2():
    assert (build_ansatz(AnsatzKind.ZZ_FULL, 2, seed=5).gates
            == build_ansatz(AnsatzKind.ZZ_LINEAR, 2, seed=5).gates)


def test_zz_full_entangling_block_order_invariant(rng):
    c = build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=11)
    rots = [g for g in c.gates if g.kind is GateKind.ROT]
    zzs = [g for g in c.gates if g.kind is GateKind.ZZ]
    base = run_on_zero(c)
    for _ in range(5):
        perm = rng.permutation(len(zzs))
        shuffled = qsim.Circuit(4, tuple(rots + [zzs[i] for i in perm]))
        assert np.max(np.abs(run_on_zero(shuffled) - base)) < 1e-12


def test_zz_star_pairs():
    assert zz_targets(build_ansatz(AnsatzKind.ZZ_STAR, 4, seed=5)) == [(0, 1), (0, 2), (0, 3)]


def test_zz_star_equals_linear_at_n2():
    assert (build_ansatz(AnsatzKind.ZZ_STAR, 2, seed=5).gates
            == build_ansatz(AnsatzKind.ZZ_LINEAR, 2, seed=5).gates)


@pytest.mark.parametrize("kind", ZZ_KINDS)
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
    spec = RandomCircuitSpec(depth=3, two_qubit_prob=0.4)
    assert (build_ansatz(AnsatzKind.RANDOM, 4, 999, spec).gates
            == build_ansatz(AnsatzKind.RANDOM, 4, 999, spec).gates)


def test_random_builder_no_cnots_at_zero_prob():
    c = build_ansatz(AnsatzKind.RANDOM, 4, 1, RandomCircuitSpec(depth=4, two_qubit_prob=0.0))
    assert not any(g.kind is GateKind.CNOT for g in c.gates)


def test_random_builder_count_and_norm():
    c = build_ansatz(AnsatzKind.RANDOM, 4, 7, RandomCircuitSpec(depth=3, two_qubit_prob=0.3))
    assert 12 <= len(c.gates) <= 24
    assert abs(np.linalg.norm(run_on_zero(c)) - 1.0) < 1e-10


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomCircuitSpec(depth=0)
    with pytest.raises(ValueError):
        RandomCircuitSpec(two_qubit_prob=1.5)


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
    # replay the seed's draws: per position a CNOT coin, then a CNOT target
    # or a single-qubit kind (RX, RY, RZ, H) and its angle
    spec = RandomCircuitSpec(depth=2, two_qubit_prob=0.3)
    gates = build_ansatz(AnsatzKind.RANDOM, 4, seed=55, random_spec=spec).gates
    assert len(gates) == spec.depth * 4
    rng = np.random.default_rng(55)
    for i, g in enumerate(gates):
        q = i % 4
        if rng.random() < spec.two_qubit_prob:
            target = int(rng.integers(3))
            assert (g.kind, g.targets) == (GateKind.CNOT, (q, target + (target >= q)))
        else:
            kind = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.H)[int(rng.integers(4))]
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            assert (g.kind, g.targets) == (kind, (q,))
            assert g.params == (() if kind is GateKind.H else (theta,))
