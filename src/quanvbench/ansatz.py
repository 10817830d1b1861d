"""Builders for the five quanvolutional-filter circuit architectures.

Every architecture starts from one general rotation Rot(a, b, c) =
R_z(a) R_y(b) R_z(c) per qubit.  The ZZ variants append a block of
exp(-i theta Z x Z) interactions whose topology gives the variant its name:

    no_entanglement   rotations only
    zz_linear         nearest-neighbour chain (q, q+1), n-1 interactions
    zz_full           all ordered pairs (q, k), q < k, n(n-1)/2 interactions
    zz_star           hub pairs (0, q), n-1 interactions
    random            layered random circuit, see RandomCircuitSpec

Parameters are drawn once from a seeded generator and frozen; the
quanvolutional layer is never trained.  All builders are pure functions of
their arguments, so the same seed always reproduces the same circuit.

The ZZ gates are diagonal and come after the rotations, so they commute
with every Pauli-Z read-out: at one seed each ZZ variant computes exactly
no_entanglement's features, and comparing ansatze compares single-qubit
rotation filters with random circuits, not entanglement topologies.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .qsim import Circuit, Gate, GateKind, cnot, h, rot, rx, ry, rz, zz


class AnsatzKind(Enum):
    NO_ENTANGLEMENT = "no_entanglement"
    ZZ_FULL = "zz_full"
    ZZ_LINEAR = "zz_linear"
    ZZ_STAR = "zz_star"
    RANDOM = "random"


@dataclass(frozen=True)
class AnsatzParams:
    """Frozen rotation/entangling angles plus the seed they came from."""

    thetas: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))


@dataclass(frozen=True)
class RandomCircuitSpec:
    """Recipe for the random architecture.

    Each of depth x n positions is filled with either a CNOT to a random
    distinct target (probability two_qubit_prob) or a single-qubit gate drawn
    uniformly from the pool; rotation angles are uniform on [0, 2*pi).
    """

    depth: int = 2
    two_qubit_prob: float = 0.3
    gate_pool: tuple[GateKind, ...] = (
        GateKind.RX,
        GateKind.RY,
        GateKind.RZ,
        GateKind.H,
        GateKind.CNOT,
    )
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if not 0.0 <= self.two_qubit_prob <= 1.0:
            raise ValueError(f"two_qubit_prob must be in [0, 1], got {self.two_qubit_prob}")
        if not self.gate_pool:
            raise ValueError("gate_pool must be non-empty")
        if all(k is GateKind.CNOT for k in self.gate_pool):
            raise ValueError("gate_pool needs at least one single-qubit kind")


def parameter_count(kind: AnsatzKind, n: int) -> int:
    """Angles consumed by each architecture: 3n rotations plus entanglers.

    The random architecture draws its angles internally from its spec seed
    and consumes none here.
    """
    if kind is AnsatzKind.NO_ENTANGLEMENT:
        return 3 * n
    if kind in (AnsatzKind.ZZ_LINEAR, AnsatzKind.ZZ_STAR):
        return 3 * n + (n - 1)
    if kind is AnsatzKind.ZZ_FULL:
        return 3 * n + n * (n - 1) // 2
    return 0


def init_params(kind: AnsatzKind, n: int, seed: int) -> AnsatzParams:
    """Draw i.i.d. uniform [0, 2*pi) angles for the architecture, seeded."""
    rng = np.random.default_rng(seed)
    return AnsatzParams(rng.uniform(0.0, 2.0 * np.pi, size=parameter_count(kind, n)), seed)


def _check_params(kind: AnsatzKind, n: int, params: AnsatzParams) -> None:
    want = parameter_count(kind, n)
    if len(params.thetas) != want:
        raise ValueError(
            f"{kind.value} on {n} qubits needs {want} angles, got {len(params.thetas)}"
        )


def _rotation_layer(n: int, thetas: np.ndarray) -> list[Gate]:
    return [rot(q, thetas[3 * q], thetas[3 * q + 1], thetas[3 * q + 2]) for q in range(n)]


def build_no_entanglement(n: int, params: AnsatzParams) -> Circuit:
    """One Rot(a, b, c) per qubit; no two-qubit gates."""
    _check_params(AnsatzKind.NO_ENTANGLEMENT, n, params)
    return Circuit(n, tuple(_rotation_layer(n, params.thetas)))


def build_zz_linear(n: int, params: AnsatzParams) -> Circuit:
    """Rotations, then ZZ on nearest-neighbour pairs (q, q+1)."""
    if n < 2:
        raise ValueError("linear entanglement needs at least 2 qubits")
    _check_params(AnsatzKind.ZZ_LINEAR, n, params)
    gates = _rotation_layer(n, params.thetas)
    ent = params.thetas[3 * n :]
    gates += [zz(q, q + 1, ent[q]) for q in range(n - 1)]
    return Circuit(n, tuple(gates))


def build_zz_full(n: int, params: AnsatzParams) -> Circuit:
    """Rotations, then ZZ on every pair (q, k), q < k, in nested order."""
    if n < 2:
        raise ValueError("full entanglement needs at least 2 qubits")
    _check_params(AnsatzKind.ZZ_FULL, n, params)
    gates = _rotation_layer(n, params.thetas)
    ent = iter(params.thetas[3 * n :])
    for q in range(n - 1):
        for k in range(q + 1, n):
            gates.append(zz(q, k, next(ent)))
    return Circuit(n, tuple(gates))


def build_zz_star(n: int, params: AnsatzParams) -> Circuit:
    """Rotations, then ZZ linking the first qubit to every other."""
    if n < 2:
        raise ValueError("star entanglement needs at least 2 qubits")
    _check_params(AnsatzKind.ZZ_STAR, n, params)
    gates = _rotation_layer(n, params.thetas)
    ent = params.thetas[3 * n :]
    gates += [zz(0, q, ent[q - 1]) for q in range(1, n)]
    return Circuit(n, tuple(gates))


_SINGLE_QUBIT_BUILDERS = {
    GateKind.RX: rx,
    GateKind.RY: ry,
    GateKind.RZ: rz,
    GateKind.H: lambda q, _theta: h(q),
}


def build_random(n: int, spec: RandomCircuitSpec) -> Circuit:
    """Layered random circuit; deterministic function of (n, spec)."""
    if n < 1:
        raise ValueError("need at least 1 qubit")
    rng = np.random.default_rng(spec.seed)
    single_pool = [k for k in spec.gate_pool if k is not GateKind.CNOT]
    allow_cnot = GateKind.CNOT in spec.gate_pool and n >= 2
    gates = []
    for _ in range(spec.depth):
        for q in range(n):
            if allow_cnot and rng.random() < spec.two_qubit_prob:
                target = int(rng.integers(n - 1))
                if target >= q:
                    target += 1
                gates.append(cnot(q, target))
            else:
                kind = single_pool[int(rng.integers(len(single_pool)))]
                theta = float(rng.uniform(0.0, 2.0 * np.pi))
                gates.append(_SINGLE_QUBIT_BUILDERS[kind](q, theta))
    return Circuit(n, tuple(gates))


def build_ansatz(
    kind: AnsatzKind,
    n: int,
    seed: int,
    random_spec: RandomCircuitSpec | None = None,
) -> Circuit:
    """Build any architecture from a seed; the harness entry point."""
    if kind is AnsatzKind.RANDOM:
        spec = replace(random_spec or RandomCircuitSpec(), seed=seed)
        return build_random(n, spec)
    params = init_params(kind, n, seed)
    builders = {
        AnsatzKind.NO_ENTANGLEMENT: build_no_entanglement,
        AnsatzKind.ZZ_FULL: build_zz_full,
        AnsatzKind.ZZ_LINEAR: build_zz_linear,
        AnsatzKind.ZZ_STAR: build_zz_star,
    }
    return builders[kind](n, params)
