import numpy as np
import pytest
from scipy.linalg import expm

from quanvbench import qsim, quanv
from quanvbench.qsim import Circuit, Gate, GateKind, cnot, h, rot, ry, rz, zz

from conftest import random_circuit, random_state


def basis_state(n: int, k: int = 0) -> np.ndarray:
    amps = np.zeros(2**n, dtype=complex)
    amps[k] = 1.0
    return amps


def apply(gate: Gate, amps: np.ndarray) -> np.ndarray:
    n = int(np.log2(amps.shape[-1]))
    return qsim.apply_gate_batch(amps, gate, n)


# ---------------------------------------------------------------------------
# apply_gate_batch
# ---------------------------------------------------------------------------

def test_ry_pi_flips_zero_to_one():
    assert np.allclose(apply(ry(0, np.pi), basis_state(1)), [0, 1], atol=1e-10)


def test_zz_on_00_is_exp_minus_i_theta():
    # Independent oracle: dense 4x4 matrix exponential of -i*theta*(Z x Z).
    theta = 0.7321
    zkron = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    u = expm(-1j * theta * zkron)
    expected = u @ np.array([1, 0, 0, 0], dtype=complex)

    amps = apply(zz(0, 1, theta), basis_state(2))
    assert np.allclose(amps, expected, atol=1e-12)
    assert np.isclose(amps[0], np.exp(-1j * theta), atol=1e-12)


def test_rz_zero_is_identity(rng):
    s = random_state(3, rng)
    assert np.allclose(apply(rz(1, 0.0), s), s, atol=1e-14)


def test_apply_gate_does_not_mutate_input():
    s = basis_state(2)
    before = s.copy()
    apply(h(0), s)
    assert np.array_equal(s, before)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.ROT, (0,), (1.0,))  # ROT needs 3 angles
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0,), (1.0,))  # H takes no angle
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (1, 1))  # targets must be distinct
    with pytest.raises(ValueError):
        qsim.apply_gate_batch(basis_state(1), cnot(0, 1), 1)  # out of range


def test_qubit0_is_most_significant_bit():
    # RY(pi) on qubit 0 of a 3-qubit register must set index 4 = |100>.
    assert np.allclose(apply(ry(0, np.pi), basis_state(3)), basis_state(3, 4), atol=1e-12)


def test_cnot_control_one_flips_target():
    s = apply(ry(0, np.pi), basis_state(2))  # |10>
    assert np.allclose(apply(cnot(0, 1), s), basis_state(2, 3), atol=1e-12)  # |11>


# ---------------------------------------------------------------------------
# apply_circuit_batch
# ---------------------------------------------------------------------------

def test_empty_circuit_unchanged(rng):
    s = random_state(4, rng)
    assert np.array_equal(qsim.apply_circuit_batch(s, Circuit(4)), s)


def test_two_ry_pi_gives_11():
    c = Circuit(2, (ry(0, np.pi), ry(1, np.pi)))
    assert np.allclose(qsim.apply_circuit_batch(basis_state(2), c), [0, 0, 0, 1], atol=1e-10)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        qsim.apply_circuit_batch(basis_state(3), Circuit(4))


def test_random_circuit_matches_dense_oracle(rng):
    for _ in range(5):
        c = random_circuit(4, 20, rng)
        s = random_state(4, rng)
        fast = qsim.apply_circuit_batch(s, c)
        dense = qsim.dense_unitary_oracle(c) @ s
        assert np.max(np.abs(fast - dense)) < 1e-9


# ---------------------------------------------------------------------------
# <Z> read-out, compiled into the observables Re(U^dagger Z_q U)
# ---------------------------------------------------------------------------

def z_observable(circuit: Circuit) -> np.ndarray:
    return quanv._compile_observables(circuit)


def test_expect_z_of_zero_state():
    m = z_observable(Circuit(1))
    assert np.array_equal(m[0], np.diag([1.0, -1.0]))
    assert basis_state(1).real @ m[0] @ basis_state(1).real == 1.0


def test_expect_z_equal_superposition():
    m = z_observable(Circuit(1, (ry(0, np.pi / 2),)))
    assert abs(m[0][0, 0]) < 1e-10


def test_expect_z_closed_form():
    # <Z> after RY(phi)|0> is cos(phi); cross-check against the amplitude sum.
    phi = 0.3
    c = Circuit(1, (ry(0, phi),))
    probs = np.abs(qsim.apply_circuit_batch(basis_state(1), c)) ** 2
    ez = z_observable(c)[0][0, 0]
    assert np.isclose(ez, np.cos(phi), atol=1e-12)
    assert np.isclose(ez, probs[0] - probs[1], atol=1e-14)


def test_expect_z_bounds(rng):
    for _ in range(20):
        m = z_observable(random_circuit(4, 15, rng))
        assert np.allclose(m, np.swapaxes(m, 1, 2), atol=1e-12)  # real symmetric
        eig = np.linalg.eigvalsh(m)
        assert np.all(eig >= -1 - 1e-12) and np.all(eig <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# dense_unitary_oracle
# ---------------------------------------------------------------------------

def test_oracle_hadamard():
    u = qsim.dense_unitary_oracle(Circuit(1, (h(0),)))
    assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


def test_oracle_cnot_permutation():
    u = qsim.dense_unitary_oracle(Circuit(2, (cnot(0, 1),)))
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.allclose(u, expected, atol=1e-12)


def test_oracle_zz_diagonal():
    theta = 1.234
    u = qsim.dense_unitary_oracle(Circuit(2, (zz(0, 1, theta),)))
    d = np.exp(np.array([-1j, 1j, 1j, -1j]) * theta)
    assert np.allclose(u, np.diag(d), atol=1e-12)
    # and against the generic matrix exponential
    zkron = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    assert np.allclose(u, expm(-1j * theta * zkron), atol=1e-12)


def test_oracle_rejects_large_registers():
    with pytest.raises(ValueError):
        qsim.dense_unitary_oracle(Circuit(7))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_unitarity(rng):
    for _ in range(10):
        c = random_circuit(4, 12, rng)
        u = qsim.dense_unitary_oracle(c)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-9


def test_norm_preservation(rng):
    for _ in range(20):
        c = random_circuit(4, 30, rng)
        out = qsim.apply_circuit_batch(random_state(4, rng), c)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_oracle_equivalence_100_random_pairs(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, int(rng.integers(1, 25)), rng)
        s = random_state(n, rng)
        fast = qsim.apply_circuit_batch(s, c)
        dense = qsim.dense_unitary_oracle(c) @ s
        assert np.max(np.abs(fast - dense)) < 1e-9


def test_zz_gates_commute(rng):
    for _ in range(10):
        pairs = [(0, 1), (1, 2), (0, 3), (2, 3)]
        angles = rng.uniform(0, 2 * np.pi, size=4)
        gates = [zz(a, b, t) for (a, b), t in zip(pairs, angles)]
        s = random_state(4, rng)
        fwd = qsim.apply_circuit_batch(s, Circuit(4, tuple(gates)))
        rev = qsim.apply_circuit_batch(s, Circuit(4, tuple(reversed(gates))))
        assert np.max(np.abs(fwd - rev)) < 1e-12


def test_rot_is_rz_ry_rz(rng):
    a, b, c = rng.uniform(0, 2 * np.pi, size=3)
    s = random_state(2, rng)
    via_rot = qsim.apply_circuit_batch(s, Circuit(2, (rot(1, a, b, c),)))
    via_seq = qsim.apply_circuit_batch(s, Circuit(2, (rz(1, c), ry(1, b), rz(1, a))))
    assert np.allclose(via_rot, via_seq, atol=1e-12)


def test_batched_matches_single(rng):
    # each row of a batch evolves exactly as it would on its own
    c = random_circuit(4, 15, rng)
    batch = np.stack([random_state(4, rng) for _ in range(7)])
    out_batch = qsim.apply_circuit_batch(batch, c)
    for i in range(7):
        assert np.array_equal(out_batch[i], qsim.apply_circuit_batch(batch[i], c))
