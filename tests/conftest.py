import numpy as np
import pytest

from quanvbench import qsim


def random_circuit(n_qubits: int, n_gates: int, rng: np.random.Generator) -> qsim.Circuit:
    """Random circuit drawing from the full supported gate set."""
    gates = []
    kinds = list(qsim.GateKind)
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind in (qsim.GateKind.CNOT, qsim.GateKind.ZZ) and n_qubits < 2:
            kind = qsim.GateKind.RY
        n_targets, n_params = 1, 1
        if kind is qsim.GateKind.ROT:
            n_params = 3
        elif kind is qsim.GateKind.H:
            n_params = 0
        elif kind in (qsim.GateKind.CNOT, qsim.GateKind.ZZ):
            n_targets = 2
            n_params = 0 if kind is qsim.GateKind.CNOT else 1
        targets = tuple(rng.choice(n_qubits, size=n_targets, replace=False).tolist())
        params = tuple(rng.uniform(0, 2 * np.pi, size=n_params).tolist())
        gates.append(qsim.Gate(kind, targets, params))
    return qsim.Circuit(n_qubits, tuple(gates))


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-norm amplitude vector of length 2^n."""
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return amps / np.linalg.norm(amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)
