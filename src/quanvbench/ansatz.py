"""The five quanvolutional-filter circuit architectures, on 4 qubits.

The filter reads one 2x2 patch, one pixel per qubit, so every circuit acts
on 4 qubits.  Four of the architectures are one rotation layer,
Rot(a, b, c) = R_z(a) R_y(b) R_z(c) on every qubit, followed by
exp(-i theta Z x Z) interactions on a list of qubit pairs.  The pair list
is the only thing that tells them apart:

    no_entanglement   no pairs
    zz_linear         the chain (0, 1), (1, 2), (2, 3)
    zz_star           the hub pairs (0, 1), (0, 2), (0, 3)
    zz_full           all 6 pairs (q, k), q < k, in nested order
    random            2 layers of one random gate per qubit, see _build_random

A seed draws every angle at once, uniform on [0, 2*pi): the 12 rotation
angles qubit by qubit, then one angle per pair in list order.  The circuit
is frozen; the quanvolutional layer is never trained, and the same seed
always reproduces the same circuit.

The ZZ gates are diagonal and come after the rotations, so they commute
with every Pauli-Z read-out: at one seed each ZZ variant computes exactly
no_entanglement's features, and comparing ansatze compares single-qubit
rotation filters with random circuits, not entanglement topologies.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .qsim import Circuit, cnot, h, rot, rx, ry, rz, zz
from .quanv import N_QUBITS


class AnsatzKind(Enum):
    NO_ENTANGLEMENT = "no_entanglement"
    ZZ_FULL = "zz_full"
    ZZ_LINEAR = "zz_linear"
    ZZ_STAR = "zz_star"
    RANDOM = "random"


# the random architecture: RANDOM_DEPTH layers of one gate per qubit, each a
# CNOT with probability RANDOM_CNOT_PROB
RANDOM_DEPTH = 2
RANDOM_CNOT_PROB = 0.3

_ZZ_PAIRS = {
    AnsatzKind.NO_ENTANGLEMENT: (),
    AnsatzKind.ZZ_LINEAR: ((0, 1), (1, 2), (2, 3)),
    AnsatzKind.ZZ_STAR: ((0, 1), (0, 2), (0, 3)),
    AnsatzKind.ZZ_FULL: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

_SINGLE_QUBIT_GATES = (rx, ry, rz, lambda q, _theta: h(q))


def _build_random(seed: int) -> Circuit:
    """Each position is a CNOT to a random distinct target or, drawn
    uniformly, one of RX, RY, RZ and H with an angle uniform on [0, 2*pi)
    (drawn for H too, and unused)."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(RANDOM_DEPTH):
        for q in range(N_QUBITS):
            if rng.random() < RANDOM_CNOT_PROB:
                target = int(rng.integers(N_QUBITS - 1))
                gates.append(cnot(q, target + (target >= q)))
            else:
                gate = _SINGLE_QUBIT_GATES[int(rng.integers(len(_SINGLE_QUBIT_GATES)))]
                gates.append(gate(q, float(rng.uniform(0.0, 2.0 * np.pi))))
    return Circuit(N_QUBITS, tuple(gates))


def build_ansatz(kind: AnsatzKind, seed: int) -> Circuit:
    """Build any architecture on the filter's 4 qubits from a seed."""
    if kind is AnsatzKind.RANDOM:
        return _build_random(seed)
    pairs = _ZZ_PAIRS[kind]
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi,
                                                 size=3 * N_QUBITS + len(pairs))
    gates = [rot(q, *thetas[3 * q : 3 * q + 3]) for q in range(N_QUBITS)]
    gates += [zz(a, b, theta) for (a, b), theta in zip(pairs, thetas[3 * N_QUBITS :])]
    return Circuit(N_QUBITS, tuple(gates))
