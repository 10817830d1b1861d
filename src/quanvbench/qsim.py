"""Exact statevector simulation of small qubit registers, in batches.

Conventions:
    - Qubit 0 is the most significant bit of the basis-state index: for an
      n-qubit register, basis state ``k`` assigns qubit q the bit
      ``(k >> (n - 1 - q)) & 1``.  Equivalently, reshaping the amplitude
      vector to shape (2,)*n puts qubit q on axis q.
    - States are arrays whose last axis holds the 2^n amplitudes; leading
      axes are a batch.  A single state is the batch shape ().
    - All operations are pure: the input amplitudes are never modified and
      a new array is returned, so they are safe to call from many threads.

The production path applies gates by structured index arithmetic on the
reshaped amplitude tensor; the quanvolutional layer runs it once per filter
on the basis states to obtain the circuit's unitary.  Dense matrices built
from Kronecker products exist only in :func:`dense_unitary_oracle`, which
tests and the verify command use to cross-check the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import cos, sin

import numpy as np

MAX_ORACLE_QUBITS = 6


class GateKind(Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    ROT = "ROT"
    H = "H"
    CNOT = "CNOT"
    ZZ = "ZZ"


# (n_targets, n_params) per kind
_GATE_ARITY = {
    GateKind.RX: (1, 1),
    GateKind.RY: (1, 1),
    GateKind.RZ: (1, 1),
    GateKind.ROT: (1, 3),
    GateKind.H: (1, 0),
    GateKind.CNOT: (2, 0),
    GateKind.ZZ: (2, 1),
}


@dataclass(frozen=True)
class Gate:
    """A gate instance: kind, target qubit indices, rotation angles (radians)."""

    kind: GateKind
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        n_targets, n_params = _GATE_ARITY[self.kind]
        if len(self.targets) != n_targets:
            raise ValueError(
                f"{self.kind.value} takes {n_targets} target(s), got {self.targets}"
            )
        if len(self.params) != n_params:
            raise ValueError(
                f"{self.kind.value} takes {n_params} angle(s), got {len(self.params)}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"negative qubit index in {self.targets}")


def rx(q: int, theta: float) -> Gate:
    return Gate(GateKind.RX, (q,), (theta,))


def ry(q: int, theta: float) -> Gate:
    return Gate(GateKind.RY, (q,), (theta,))


def rz(q: int, theta: float) -> Gate:
    return Gate(GateKind.RZ, (q,), (theta,))


def rot(q: int, a: float, b: float, c: float) -> Gate:
    """General single-qubit rotation R_z(a) R_y(b) R_z(c)."""
    return Gate(GateKind.ROT, (q,), (a, b, c))


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def zz(q1: int, q2: int, theta: float) -> Gate:
    """Two-qubit diagonal interaction exp(-i theta Z (x) Z)."""
    return Gate(GateKind.ZZ, (q1, q2), (theta,))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over an n-qubit register."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.targets) >= self.n_qubits:
                raise ValueError(
                    f"gate {g.kind.value} targets {g.targets} out of range for "
                    f"{self.n_qubits} qubits"
                )


# Single-qubit matrices, used both by the kernel and the dense oracle.

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)


def _rx_matrix(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry_matrix(t: float) -> np.ndarray:
    c, s = cos(t / 2), sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(t: float) -> np.ndarray:
    return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])


def _rot_matrix(a: float, b: float, c: float) -> np.ndarray:
    return _rz_matrix(a) @ _ry_matrix(b) @ _rz_matrix(c)


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.kind is GateKind.RX:
        return _rx_matrix(gate.params[0])
    if gate.kind is GateKind.RY:
        return _ry_matrix(gate.params[0])
    if gate.kind is GateKind.RZ:
        return _rz_matrix(gate.params[0])
    if gate.kind is GateKind.ROT:
        return _rot_matrix(*gate.params)
    if gate.kind is GateKind.H:
        return _H_MATRIX
    raise ValueError(f"{gate.kind.value} is not a single-qubit gate")


# ---------------------------------------------------------------------------
# Batched kernels.  `amps` has shape batch_shape + (2**n,); qubit q lives on
# axis (ndim - n + q) of the reshaped tensor.
# ---------------------------------------------------------------------------


def _slices(ndim: int, assignments: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * ndim
    for axis, v in assignments.items():
        idx[axis] = v
    return tuple(idx)


def apply_gate_batch(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one gate to a batch of statevectors (last axis of length 2^n)."""
    if amps.shape[-1] != 2**n_qubits:
        raise ValueError(
            f"amplitude axis {amps.shape[-1]} does not match 2^{n_qubits}"
        )
    if max(gate.targets) >= n_qubits:
        raise ValueError(f"gate targets {gate.targets} exceed {n_qubits} qubits")

    batch_shape = amps.shape[:-1]
    t = amps.reshape(batch_shape + (2,) * n_qubits)
    off = len(batch_shape)
    out = t.copy()

    if gate.kind is GateKind.CNOT:
        c_ax, t_ax = off + gate.targets[0], off + gate.targets[1]
        src10 = _slices(t.ndim, {c_ax: 1, t_ax: 0})
        src11 = _slices(t.ndim, {c_ax: 1, t_ax: 1})
        out[src10] = t[src11]
        out[src11] = t[src10]
    elif gate.kind is GateKind.ZZ:
        theta = gate.params[0]
        eq, ne = np.exp(-1j * theta), np.exp(1j * theta)
        a_ax, b_ax = off + gate.targets[0], off + gate.targets[1]
        for va in (0, 1):
            for vb in (0, 1):
                phase = eq if va == vb else ne
                out[_slices(t.ndim, {a_ax: va, b_ax: vb})] *= phase
    else:
        m = _single_qubit_matrix(gate)
        ax = off + gate.targets[0]
        lo = t[_slices(t.ndim, {ax: 0})]
        hi = t[_slices(t.ndim, {ax: 1})]
        out[_slices(t.ndim, {ax: 0})] = m[0, 0] * lo + m[0, 1] * hi
        out[_slices(t.ndim, {ax: 1})] = m[1, 0] * lo + m[1, 1] * hi

    return out.reshape(amps.shape)


def apply_circuit_batch(amps: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Fold apply_gate_batch over the circuit's gates in order."""
    if amps.shape[-1] != 2**circuit.n_qubits:
        raise ValueError(
            f"amplitude axis {amps.shape[-1]} does not match 2^{circuit.n_qubits}"
        )
    for g in circuit.gates:
        amps = apply_gate_batch(amps, g, circuit.n_qubits)
    return amps


# ---------------------------------------------------------------------------
# Dense-matrix oracle.  Built from Kronecker products and matrix algebra,
# independent of the kernels above; used by tests and cmd_verify.
# ---------------------------------------------------------------------------


def _embed_single(m: np.ndarray, q: int, n: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(2**q), m), np.eye(2 ** (n - 1 - q)))


def _dense_gate(gate: Gate, n: int) -> np.ndarray:
    if gate.kind is GateKind.CNOT:
        c, t = gate.targets
        p0 = _embed_single(np.diag([1.0, 0.0]).astype(complex), c, n)
        p1 = _embed_single(np.diag([0.0, 1.0]).astype(complex), c, n)
        return p0 + p1 @ _embed_single(_X_MATRIX, t, n)
    if gate.kind is GateKind.ZZ:
        theta = gate.params[0]
        zz_full = _embed_single(_Z_MATRIX, gate.targets[0], n) @ _embed_single(
            _Z_MATRIX, gate.targets[1], n
        )
        # (Z x Z)^2 = I, so exp(-i theta ZZ) = cos(theta) I - i sin(theta) ZZ
        return cos(theta) * np.eye(2**n) - 1j * sin(theta) * zz_full
    return _embed_single(_single_qubit_matrix(gate), gate.targets[0], n)


def dense_unitary_oracle(circuit: Circuit) -> np.ndarray:
    """Explicit 2^n x 2^n unitary of the circuit.  Test oracle, n <= 6."""
    n = circuit.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"dense oracle limited to {MAX_ORACLE_QUBITS} qubits, got {n}"
        )
    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        u = _dense_gate(g, n) @ u
    return u
