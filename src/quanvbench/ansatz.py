"""The five quanvolutional-filter circuit architectures.

Four of them are one rotation layer, Rot(a, b, c) = R_z(a) R_y(b) R_z(c) on
every qubit, followed by exp(-i theta Z x Z) interactions on a list of qubit
pairs.  The pair list is the only thing that tells them apart:

    no_entanglement   no pairs
    zz_linear         nearest-neighbour chain (q, q+1), n-1 interactions
    zz_star           hub pairs (0, q), n-1 interactions
    zz_full           all pairs (q, k), q < k, in nested order, n(n-1)/2
    random            layered random circuit, see RandomCircuitSpec

A seed draws every angle at once, uniform on [0, 2*pi): the 3n rotation
angles qubit by qubit, then one angle per pair in list order.  The circuit
is frozen; the quanvolutional layer is never trained, and the same seed
always reproduces the same circuit.

The ZZ gates are diagonal and come after the rotations, so they commute
with every Pauli-Z read-out: at one seed each ZZ variant computes exactly
no_entanglement's features, and comparing ansatze compares single-qubit
rotation filters with random circuits, not entanglement topologies.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qsim import Circuit, cnot, h, rot, rx, ry, rz, zz


class AnsatzKind(Enum):
    NO_ENTANGLEMENT = "no_entanglement"
    ZZ_FULL = "zz_full"
    ZZ_LINEAR = "zz_linear"
    ZZ_STAR = "zz_star"
    RANDOM = "random"


@dataclass(frozen=True)
class RandomCircuitSpec:
    """Recipe for the random architecture.

    Each of depth x n positions is filled with either a CNOT to a random
    distinct target (probability two_qubit_prob, on 2 or more qubits) or one
    of RX, RY, RZ and H drawn uniformly, with an angle uniform on [0, 2*pi)
    (drawn for H too, and unused).
    """

    depth: int = 2
    two_qubit_prob: float = 0.3

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if not 0.0 <= self.two_qubit_prob <= 1.0:
            raise ValueError(f"two_qubit_prob must be in [0, 1], got {self.two_qubit_prob}")


_ZZ_PAIRS = {
    AnsatzKind.NO_ENTANGLEMENT: lambda n: [],
    AnsatzKind.ZZ_LINEAR: lambda n: [(q, q + 1) for q in range(n - 1)],
    AnsatzKind.ZZ_STAR: lambda n: [(0, q) for q in range(1, n)],
    AnsatzKind.ZZ_FULL: lambda n: [(q, k) for q in range(n) for k in range(q + 1, n)],
}

_SINGLE_QUBIT_GATES = (rx, ry, rz, lambda q, _theta: h(q))


def _build_random(n: int, spec: RandomCircuitSpec, seed: int) -> Circuit:
    if n < 1:
        raise ValueError("need at least 1 qubit")
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(spec.depth):
        for q in range(n):
            if n >= 2 and rng.random() < spec.two_qubit_prob:
                target = int(rng.integers(n - 1))
                gates.append(cnot(q, target + (target >= q)))
            else:
                gate = _SINGLE_QUBIT_GATES[int(rng.integers(len(_SINGLE_QUBIT_GATES)))]
                gates.append(gate(q, float(rng.uniform(0.0, 2.0 * np.pi))))
    return Circuit(n, tuple(gates))


def build_ansatz(
    kind: AnsatzKind,
    n: int,
    seed: int,
    random_spec: RandomCircuitSpec | None = None,
) -> Circuit:
    """Build any architecture on n qubits from a seed; random_spec shapes
    only the random architecture."""
    if kind is AnsatzKind.RANDOM:
        return _build_random(n, random_spec or RandomCircuitSpec(), seed)
    if kind is not AnsatzKind.NO_ENTANGLEMENT and n < 2:
        raise ValueError(f"{kind.value} needs at least 2 qubits")
    pairs = _ZZ_PAIRS[kind](n)
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=3 * n + len(pairs))
    gates = [rot(q, *thetas[3 * q : 3 * q + 3]) for q in range(n)]
    gates += [zz(a, b, theta) for (a, b), theta in zip(pairs, thetas[3 * n :])]
    return Circuit(n, tuple(gates))
