"""L-infinity adversarial attacks: FGSM, PGD, and the momentum iterative method.

All attacks consume a GradientSource, which hides whether gradients come
from a classical surrogate model or flow end-to-end through the
quanvolutional layer via its compiled observables.

Perturbed pixels are NOT clamped to [0, 1] by default: the benchmark sweeps
budgets well above 1, and with clamping every epsilon >= 1 would produce the
same saturated image.  Pass clamp=(0.0, 1.0) to restore the conventional
box constraint.  Quanvolution features are 2-periodic in every pixel, so an
unclamped step of an even integer epsilon leaves them unchanged.

Iterative attacks track the perturbation delta rather than the perturbed
image so that the single-step reductions (PGD with steps=1 and alpha=eps,
MIM with decay 0) are bit-identical to FGSM.  No attack uses randomness.
Budgets must be finite and non-negative; NaN is rejected.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn, quanv


class AttackKind(Enum):
    FGSM = "fgsm"
    PGD = "pgd"
    MIM = "mim"


@dataclass(frozen=True)
class AttackConfig:
    kind: AttackKind
    epsilon: float
    steps: int = 10
    step_size: float | None = None  # defaults to epsilon / 4
    decay: float = 1.0
    clamp: tuple[float, float] | None = None

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.decay < 0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")

    def resolved_step_size(self) -> float:
        return self.epsilon / 4.0 if self.step_size is None else self.step_size


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


class GradientSource:
    """Loss and input-gradient provider for a fixed model under attack."""

    mode = "abstract"

    def loss(self, image: np.ndarray, label: int) -> float:
        raise NotImplementedError

    def gradient(self, image: np.ndarray, label: int) -> np.ndarray:
        raise NotImplementedError


class SurrogateSource(GradientSource):
    """White-box gradients of a classical model trained on raw images.

    Adversarial images built here are later quanvolved and shown to the
    quantum-feature head, which never contributes to the gradient.
    """

    mode = "surrogate"

    def __init__(self, model: nn.Model):
        self.model = model

    def loss(self, image, label):
        return nn.loss(self.model, image, label)

    def gradient(self, image, label):
        return nn.input_gradient(self.model, image, label)


class EndToEndSource(GradientSource):
    """Exact gradients through quanvolution (compiled observables) and the head."""

    mode = "end_to_end"

    def __init__(self, quanv_cfg: quanv.QuanvConfig, head: nn.Model):
        self.quanv_cfg = quanv_cfg
        self.head = head

    def loss(self, image, label):
        features = quanv.quanvolve_image(image, self.quanv_cfg, validate=False)
        return nn.loss(self.head, features, label)

    def gradient(self, image, label):
        features = quanv.quanvolve_image(image, self.quanv_cfg, validate=False)
        upstream = nn.input_gradient(self.head, features, label)
        return quanv.input_gradient(image, self.quanv_cfg, upstream, validate=False)


def _clamped(x: np.ndarray, clamp: tuple[float, float] | None) -> np.ndarray:
    return x if clamp is None else np.clip(x, clamp[0], clamp[1])


def fgsm(
    source: GradientSource,
    image: np.ndarray,
    label: int,
    epsilon: float,
    clamp: tuple[float, float] | None = None,
) -> np.ndarray:
    """One signed-gradient step of size epsilon."""
    _check_epsilon(epsilon)
    image = np.asarray(image, dtype=float)
    step = epsilon * np.sign(source.gradient(image, label))
    return _clamped(image + step, clamp)


def _iterative(
    source: GradientSource,
    image: np.ndarray,
    label: int,
    cfg: AttackConfig,
    momentum: bool,
) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    eps, alpha = cfg.epsilon, cfg.resolved_step_size()
    delta = np.zeros_like(image)
    g_acc = np.zeros_like(image)
    adv = image
    for _ in range(cfg.steps):
        grad = source.gradient(adv, label)
        if momentum:
            l1 = np.sum(np.abs(grad))
            g_acc = cfg.decay * g_acc + (grad / l1 if l1 > 0 else grad)
            direction = np.sign(g_acc)
        else:
            direction = np.sign(grad)
        delta = np.clip(delta + alpha * direction, -eps, eps)
        adv = image + delta
        if cfg.clamp is not None:
            adv = _clamped(adv, cfg.clamp)
            delta = adv - image
    return adv


def pgd(source: GradientSource, image, label, cfg: AttackConfig) -> np.ndarray:
    """Iterative signed-gradient ascent projected onto the epsilon ball."""
    if cfg.kind is not AttackKind.PGD:
        raise ValueError(f"expected PGD config, got {cfg.kind}")
    return _iterative(source, image, label, cfg, momentum=False)


def mim(source: GradientSource, image, label, cfg: AttackConfig) -> np.ndarray:
    """PGD with an L1-normalized momentum accumulator steering the sign."""
    if cfg.kind is not AttackKind.MIM:
        raise ValueError(f"expected MIM config, got {cfg.kind}")
    return _iterative(source, image, label, cfg, momentum=True)


def attack(source: GradientSource, image, label, cfg: AttackConfig) -> np.ndarray:
    if cfg.kind is AttackKind.FGSM:
        return fgsm(source, image, label, cfg.epsilon, cfg.clamp)
    if cfg.kind is AttackKind.PGD:
        return pgd(source, image, label, cfg)
    return mim(source, image, label, cfg)


def attack_batch(source: GradientSource, images, labels, cfg: AttackConfig) -> np.ndarray:
    """Attack each image independently; order preserved, fully deterministic."""
    if len(images) == 0:
        return np.asarray(images, dtype=float)
    return np.stack([attack(source, img, int(lbl), cfg) for img, lbl in zip(images, labels)])


def config_hash(cfg: AttackConfig) -> int:
    """Stable 64-bit hash of an attack configuration."""
    canonical = (f"{cfg.kind.value}|{cfg.epsilon!r}|{cfg.steps}|"
                 f"{cfg.resolved_step_size()!r}|{cfg.decay!r}|{cfg.clamp!r}")
    return int.from_bytes(hashlib.blake2b(canonical.encode(), digest_size=8).digest(), "little")


def save_adversarial_set(path, images: np.ndarray, cfg: AttackConfig) -> None:
    """Serialize adversarial images as QNVF with the config hash as metadata."""
    quanv.write_qnvf(path, np.asarray(images, dtype=float), meta_hash=config_hash(cfg))


def load_adversarial_set(path, expected_cfg: AttackConfig | None = None) -> np.ndarray:
    """Read an adversarial QNVF set, optionally checking the config hash."""
    images, meta = quanv.read_qnvf(path)
    if expected_cfg is not None and meta != config_hash(expected_cfg):
        raise ValueError(f"{path}: attack config hash mismatch")
    return images.astype(float)
