"""Self-contained oracle suites behind the `verify` CLI command.

Each check exercises a production code path against an independent
reference: the batched statevector kernel against dense Kronecker-product
matrices, quanvolution features (evaluated from the filter's compiled
Fourier terms) against a dense simulation of the full encoding-plus-filter
circuit, quanvolution input gradients (through the pullback the end_to_end
attack uses) against central finite differences and the parameter-shift
rule, model input gradients against finite differences, end_to_end attack
gradients against finite differences of the whole loss (quanvolution and
head composed), and the attack implementations against their algebraic
reduction identities and containment guarantees.  A corrupted gate, a wrong
or lost Fourier coefficient, a broken chain rule, or a mis-projected attack
step fails loudly here before any experiment runs.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import data, nn, qsim, quanv
from .ansatz import AnsatzKind, build_ansatz
from .attacks import AttackConfig, AttackKind, EndToEndSource, SurrogateSource, attack_batch
from .nn import Architecture
from .quanv import QuanvConfig


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_circuit(n_qubits, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        roll = rng.integers(7)
        q = int(rng.integers(n_qubits))
        theta = float(rng.uniform(0, 2 * np.pi))
        if roll == 0:
            gates.append(qsim.rx(q, theta))
        elif roll == 1:
            gates.append(qsim.ry(q, theta))
        elif roll == 2:
            gates.append(qsim.rz(q, theta))
        elif roll == 3:
            gates.append(qsim.rot(q, *rng.uniform(0, 2 * np.pi, 3)))
        elif roll == 4:
            gates.append(qsim.h(q))
        elif n_qubits >= 2:
            pair = rng.choice(n_qubits, 2, replace=False)
            if roll == 5:
                gates.append(qsim.cnot(int(pair[0]), int(pair[1])))
            else:
                gates.append(qsim.zz(int(pair[0]), int(pair[1]), theta))
    return qsim.Circuit(n_qubits, tuple(gates))


def check_statevector_oracle() -> tuple[bool, str]:
    """apply_circuit_batch vs dense Kronecker-product matrices, 100 random pairs."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = _random_circuit(n, int(rng.integers(1, 25)), rng)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        fast = qsim.apply_circuit_batch(amps, c)
        dense = qsim.dense_unitary_oracle(c) @ amps
        worst = max(worst, float(np.max(np.abs(fast - dense))))
    return worst < 1e-9, f"max elementwise error {worst:.2e} (tolerance 1e-9)"


def _dense_features(patch: np.ndarray, circuit: qsim.Circuit) -> np.ndarray:
    """<Z_q> after R_y(pi x_q) encoding gates and the filter, via dense matrices."""
    n = circuit.n_qubits
    encode = tuple(qsim.ry(q, float(np.pi * x)) for q, x in enumerate(patch))
    full = qsim.Circuit(n, encode + circuit.gates)
    state = qsim.dense_unitary_oracle(full)[:, 0]  # U|0...0>
    out = np.empty(n)
    for q in range(n):
        z_q = np.kron(np.kron(np.eye(2**q), np.diag([1.0, -1.0])), np.eye(2 ** (n - 1 - q)))
        out[q] = float(np.real(state.conj() @ z_q @ state))
    return out


def check_feature_oracle() -> tuple[bool, str]:
    """Quanvolution features vs the dense simulation of every patch circuit."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for kind in AnsatzKind:
        cfg = QuanvConfig(circuit=build_ansatz(kind, seed=313))
        img = rng.uniform(0, 1, (6, 6, 1))
        features = quanv.quanvolve_image(img, cfg)
        for r in range(3):
            for c in range(3):
                patch = img[2 * r : 2 * r + 2, 2 * c : 2 * c + 2, 0].reshape(-1)
                err = float(np.max(np.abs(features[r, c] - _dense_features(patch, cfg.circuit))))
                worst = max(worst, err)
        if worst >= 1e-12:
            return False, f"{kind.value}: feature error {worst:.2e} (tolerance 1e-12)"
    return True, f"all 5 ansatz kinds, max feature error {worst:.2e} (tolerance 1e-12)"


def _central_difference(img, idx, step, cfg, upstream) -> float:
    """sum(upstream * features) at img[idx] + step minus at img[idx] - step."""
    plus, minus = img.copy(), img.copy()
    plus[idx] += step
    minus[idx] -= step
    return float(
        np.sum(upstream * quanv.quanvolve_image(plus, cfg))
        - np.sum(upstream * quanv.quanvolve_image(minus, cfg))
    )


def check_input_gradients() -> tuple[bool, str]:
    """Quanvolution input gradients, as every end_to_end attack gradient
    computes them, vs finite differences and parameter shift.

    The gradient is `pullback` through `encode` of a 4-image batch, and the
    checked image is neither its first nor its last: the pullback must read
    that image's cos and sin, and no other image's.  Each feature is a
    degree-1 trigonometric polynomial in pi * x, so moving a pixel by +-1/2
    (a +-pi/2 shift of its angle) gives the exact derivative
    pi/2 * (f(x + 1/2) - f(x - 1/2)).
    """
    rng = np.random.default_rng(202)
    h = 1e-5
    worst_fd = worst_ps = 0.0
    checked = 2
    for kind in AnsatzKind:
        cfg = QuanvConfig(circuit=build_ansatz(kind, seed=303))
        images = rng.uniform(0.05, 0.95, (4, 6, 6, 1))
        upstreams = rng.normal(size=(len(images), 3, 3, 4))
        img, upstream = images[checked], upstreams[checked]
        exact = quanv.pullback(cfg, quanv.encode(images), upstreams)[checked]
        for flat in rng.choice(img.size, 20, replace=False):
            idx = np.unravel_index(flat, img.shape)
            fd = _central_difference(img, idx, h, cfg, upstream) / (2 * h)
            worst_fd = max(worst_fd, abs(exact[idx] - fd) / max(1.0, abs(fd)))
        for idx in np.ndindex(img.shape):
            ps = np.pi / 2 * _central_difference(img, idx, 0.5, cfg, upstream)
            worst_ps = max(worst_ps, abs(exact[idx] - ps) / max(1.0, abs(ps)))
        if worst_fd >= 1e-5 or worst_ps >= 1e-10:
            return False, (f"{kind.value}: relative error {worst_fd:.2e} vs finite "
                           f"differences (tolerance 1e-5), {worst_ps:.2e} vs parameter "
                           f"shift (tolerance 1e-10)")
    return True, (f"all 5 ansatz kinds, image {checked} of a {len(images)}-image batch, "
                  f"max relative error {worst_fd:.2e} vs finite differences (tolerance "
                  f"1e-5), {worst_ps:.2e} vs parameter shift (tolerance 1e-10)")


def check_backprop_gradients() -> tuple[bool, str]:
    """Model input gradients vs finite differences through conv/dense/relu."""
    rng = np.random.default_rng(404)
    h = 1e-4
    worst = 0.0
    for arch, dataset in zip((Architecture.CLASSICAL_CNN, Architecture.QUNN), data.DATASETS):
        model = nn.build_model(arch, dataset, seed=505)
        x = rng.uniform(0, 1, model.input_shape)
        label = int(rng.integers(10))
        grad = nn.input_gradient(model, x[None], np.array([label]))[0]
        for flat in rng.choice(x.size, 50, replace=False):
            idx = np.unravel_index(flat, x.shape)
            plus, minus = x.copy(), x.copy()
            plus[idx] += h
            minus[idx] -= h
            fd = (nn.loss(model, plus[None], [label])
                  - nn.loss(model, minus[None], [label])) / (2 * h)
            rel = abs(grad[idx] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
        if worst >= 1e-4:
            return False, f"{arch.value}: relative error {worst:.2e} (tolerance 1e-4)"
    return True, f"conv and dense stacks, max relative error {worst:.2e} (tolerance 1e-4)"


def check_end_to_end_gradients() -> tuple[bool, str]:
    """End_to_end attack gradients vs central finite differences of each
    image's whole loss, the quanvolution and the head composed.

    The heads are untrained, one of each dataset's qunn architecture, so
    both the linear head and the one with a hidden ReLU layer are checked.
    """
    rng = np.random.default_rng(1001)
    h = 1e-5
    worst = 0.0
    for kind, dataset in zip(AnsatzKind, itertools.cycle(data.DATASETS)):
        source = EndToEndSource(QuanvConfig(circuit=build_ansatz(kind, seed=1002)),
                                nn.build_model(Architecture.QUNN, dataset, seed=1003))
        images = rng.uniform(0, 1, (3, *nn.IMAGE_SHAPE))
        labels = rng.integers(0, 10, len(images))
        for img, label, grad in zip(images, labels, source.gradient(images, labels)):
            def loss(x):
                return nn.loss(source.head, quanv.quanvolve_dataset(x[None], source.quanv_cfg),
                               [label])

            for flat in rng.choice(img.size, 10, replace=False):
                idx = np.unravel_index(flat, img.shape)
                plus, minus = img.copy(), img.copy()
                plus[idx] += h
                minus[idx] -= h
                fd = (loss(plus) - loss(minus)) / (2 * h)
                worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
        if worst >= 1e-6:
            return False, f"{kind.value}: relative error {worst:.2e} (tolerance 1e-6)"
    return True, (f"all 5 ansatz kinds, mnist and fmnist heads, max relative error "
                  f"{worst:.2e} (tolerance 1e-6)")


def _toy_source() -> SurrogateSource:
    rng = np.random.default_rng(606)
    model = nn.build_model(Architecture.CLASSICAL_CNN, "mnist", seed=606)
    xs = rng.uniform(0, 1, (16, *nn.IMAGE_SHAPE))
    ys = rng.integers(0, 10, 16)
    nn.train(model, xs, ys, nn.TrainConfig(epochs=3, seed=606))
    return SurrogateSource(model)


def check_attack_reductions() -> tuple[bool, str]:
    """PGD(1 step, alpha=eps) == FGSM, MIM(decay 0) == PGD, bit for bit, on batches."""
    rng = np.random.default_rng(707)
    source = _toy_source()
    for trial in range(5):
        imgs = rng.uniform(0, 1, (5, *nn.IMAGE_SHAPE))
        labels = rng.integers(0, 10, 5)
        eps = float(rng.uniform(0.05, 0.5))
        attack = functools.partial(attack_batch, source, imgs, labels)
        a = attack(AttackConfig(AttackKind.FGSM, eps))
        b = attack(AttackConfig(AttackKind.PGD, eps, steps=1, step_size=eps))
        if a.tobytes() != b.tobytes():
            return False, f"PGD single-step differs from FGSM at eps={eps:.3f}"
        alpha = eps / 3
        p = attack(AttackConfig(AttackKind.PGD, eps, steps=6, step_size=alpha))
        m = attack(AttackConfig(AttackKind.MIM, eps, steps=6, step_size=alpha, decay=0.0))
        if p.tobytes() != m.tobytes():
            return False, f"MIM with zero decay differs from PGD at eps={eps:.3f}"
        f1 = attack(AttackConfig(AttackKind.FGSM, alpha))
        m1 = attack(AttackConfig(AttackKind.MIM, eps, steps=1, step_size=alpha, decay=0.9))
        if f1.tobytes() != m1.tobytes():
            return False, f"MIM single step differs from FGSM step at alpha={alpha:.3f}"
    return True, "5 random configs on 5-image batches, all three identities bit-exact"


def check_epsilon_ball() -> tuple[bool, str]:
    """Containment |adv - x|_inf <= eps per image under fuzzing, 100 batches per attack."""
    rng = np.random.default_rng(808)
    source = _toy_source()
    worst = 0.0
    for kind in AttackKind:
        for _ in range(100):
            imgs = rng.uniform(0, 1, (5, *nn.IMAGE_SHAPE))
            labels = rng.integers(0, 10, 5)
            cfg = AttackConfig(
                kind,
                epsilon=float(rng.uniform(0, 2)),
                steps=int(rng.integers(1, 6)),
                step_size=float(rng.uniform(0.01, 1.0)),
                decay=float(rng.uniform(0, 1.5)),
                clamp=bool(rng.random() < 0.5),
            )
            adv = attack_batch(source, imgs, labels, cfg)
            overshoot = float(np.max(np.abs(adv - imgs))) - cfg.epsilon
            worst = max(worst, overshoot)
            if overshoot > 1e-9:
                return False, f"{kind.value}: ball exceeded by {overshoot:.2e}"
            if cfg.clamp and (np.any(adv < 0.0) or np.any(adv > 1.0)):
                return False, f"{kind.value}: clamp violated"
    return True, (f"300 fuzzed attacks on 5-image batches contained "
                  f"(worst overshoot {worst:.2e})")


CHECKS = (
    ("statevector vs dense-matrix oracle", check_statevector_oracle),
    ("features vs dense-matrix circuit oracle", check_feature_oracle),
    ("input gradients vs finite differences and parameter shift", check_input_gradients),
    ("backprop vs finite-difference gradients", check_backprop_gradients),
    ("end_to_end gradients vs finite differences of the full loss", check_end_to_end_gradients),
    ("attack reduction identities", check_attack_reductions),
    ("epsilon-ball containment", check_epsilon_ball),
)


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        passed, detail = fn()
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
