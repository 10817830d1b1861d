"""L-infinity adversarial attacks: FGSM, PGD, and the momentum iterative method.

`attack_batch(source, images, labels, cfg)` runs the attack an `AttackConfig`
names.  Every attack consumes a gradient source: any object whose
``gradient(images, labels)`` takes an (N, H, W, 1) batch and its (N,)
labels and returns (N, H, W, 1), row i the gradient of image i's own
cross-entropy loss.  `SurrogateSource` takes it from a classical surrogate
model, `EndToEndSource` through the quanvolutional layer via its compiled
Fourier terms.

Perturbed pixels are NOT clamped to [0, 1] by default: the benchmark sweeps
budgets well above 1, and with clamping every epsilon >= 1 would produce the
same saturated image.  Pass clamp=True to restore the conventional [0, 1]
box constraint.  Quanvolution features are 2-periodic in every pixel, so an
unclamped step of an even integer epsilon leaves them unchanged.

FGSM is one signed-gradient step of size epsilon; PGD and MIM share one
iterative loop.  It tracks the perturbation delta rather than the perturbed
image so that the single-step reductions (PGD with steps=1 and alpha=eps,
MIM with decay 0) are bit-identical to FGSM.  No attack uses randomness.
Budgets and decays must be finite and >= 0, step sizes finite and > 0.

Attacks run on (N, H, W, 1) batches with one gradient call per step; each
image moves in its own epsilon ball along the gradient of its own loss.
The first step's gradient, at the clean images, can be passed in as
``gradient`` by a caller attacking one source at several budgets.
"""
from __future__ import annotations

import math
import numbers
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
    clamp: bool = False  # clip adversarial pixels to [0, 1]

    def __post_init__(self):
        if not isinstance(self.kind, AttackKind):
            raise ValueError(f"kind must be an AttackKind, got {self.kind!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not isinstance(self.clamp, bool):
            raise ValueError(f"clamp must be True or False, got {self.clamp!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral) \
                or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if not (self.step_size is None or math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not (math.isfinite(self.decay) and self.decay >= 0):
            raise ValueError(f"decay must be finite and >= 0, got {self.decay}")

    def resolved_step_size(self) -> float:
        return self.epsilon / 4.0 if self.step_size is None else self.step_size


class SurrogateSource:
    """White-box gradients of a classical model trained on raw images.

    Adversarial images built here are later quanvolved and shown to the
    quantum-feature head, which never contributes to the gradient.
    """

    mode = "surrogate"

    def __init__(self, model: nn.Model):
        self.model = model

    def gradient(self, images, labels):
        return nn.input_gradient(self.model, images, labels)


class EndToEndSource:
    """Exact gradients through quanvolution (compiled Fourier terms) and the head."""

    mode = "end_to_end"

    def __init__(self, quanv_cfg: quanv.QuanvConfig, head: nn.Model):
        self.quanv_cfg = quanv_cfg
        self.head = head

    def gradient(self, images, labels):
        encoding = quanv.encode(images)
        upstream = nn.input_gradient(self.head, quanv.contract(self.quanv_cfg, encoding), labels)
        return quanv.pullback(self.quanv_cfg, encoding, upstream)


def _clamped(x: np.ndarray, clamp: bool) -> np.ndarray:
    return np.clip(x, 0.0, 1.0) if clamp else x


def _iterative(source, images: np.ndarray, labels: np.ndarray,
               cfg: AttackConfig, grad: np.ndarray) -> np.ndarray:
    """PGD: signed-gradient ascent projected onto each image's epsilon ball,
    from ``grad``, the gradient at the clean images.  MIM steers the sign by
    a per-image L1-normalized momentum accumulator instead."""
    eps, alpha = cfg.epsilon, cfg.resolved_step_size()
    delta = np.zeros_like(images)
    g_acc = np.zeros_like(images)
    adv = images
    for step in range(cfg.steps):
        if step:
            grad = source.gradient(adv, labels)
        if cfg.kind is AttackKind.MIM:
            # L1 norm per image; an all-zero gradient is left as it is
            l1 = np.sum(np.abs(grad), axis=(1, 2, 3), keepdims=True)
            g_acc = cfg.decay * g_acc + grad / np.where(l1 > 0, l1, 1.0)
            direction = np.sign(g_acc)
        else:
            direction = np.sign(grad)
        delta = np.clip(delta + alpha * direction, -eps, eps)
        adv = images + delta
        if cfg.clamp:
            adv = np.clip(adv, 0.0, 1.0)
            delta = adv - images
    return adv


def attack_batch(source, images, labels, cfg: AttackConfig, gradient=None) -> np.ndarray:
    """Attack every image of an (N, H, W, 1) batch; order preserved, deterministic.

    ``gradient``, if given, is ``source.gradient(images, labels)``, only read.
    At epsilon 0 every attack leaves the images where they are, so the
    (clamped) clean images come back without a gradient call.
    """
    images = np.array(images, dtype=float)  # a copy: never aliases the input
    if len(images) == 0 or cfg.epsilon == 0:
        return _clamped(images, cfg.clamp)
    grad = source.gradient(images, labels) if gradient is None else gradient
    if cfg.kind is AttackKind.FGSM:
        return _clamped(images + cfg.epsilon * np.sign(grad), cfg.clamp)
    return _iterative(source, images, labels, cfg, grad)
