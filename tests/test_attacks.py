import re

import numpy as np
import pytest

from quanvbench import nn, quanv
from quanvbench.attacks import (
    AttackConfig,
    AttackKind,
    EndToEndSource,
    SurrogateSource,
    attack_batch,
)
from quanvbench.ansatz import AnsatzKind, build_ansatz
from quanvbench.nn import Architecture, TrainConfig, build_model, train
from quanvbench.quanv import QuanvConfig, quanvolve_dataset, quanvolve_image


class FixedGradientSource:
    """Deterministic stand-in whose gradient fields are supplied directly.

    Each field is an (N, H, W, 1) batch; call i returns field i, cycling.
    """

    mode = "fixed"

    def __init__(self, *fields):
        self.fields = [np.asarray(f, dtype=float) for f in fields]
        self.calls = 0

    def gradient(self, images, labels):
        field = self.fields[self.calls % len(self.fields)]
        self.calls += 1
        return field


class RaisingSource:
    mode = "raising"

    def gradient(self, images, labels):
        raise AssertionError("gradient must not be called")


@pytest.fixture(scope="module")
def trained_toy():
    rng = np.random.default_rng(55)
    xs = rng.uniform(0, 1, (40, 28, 28, 1))
    ys = rng.integers(0, 10, 40)
    model = build_model(Architecture.CLASSICAL_CNN, "mnist", seed=55)
    train(model, xs, ys, TrainConfig(epochs=15, seed=55))
    return model, xs, ys


@pytest.fixture(scope="module")
def toy_end_to_end():
    """End-to-end source on 6x6 images: a dense head over 3x3x4 feature maps."""
    qcfg = QuanvConfig(circuit=build_ansatz(AnsatzKind.ZZ_FULL, seed=21))
    head_rng = np.random.default_rng(21)
    head = nn.Model(
        [nn.Flatten(), nn.Dense(36, 10, head_rng)],
        input_shape=(3, 3, 4), arch=Architecture.QUNN,
    )
    return EndToEndSource(qcfg, head)


def fgsm_batch(source, images, labels, epsilon, clamp=False):
    """`attack_batch` under an FGSM config."""
    cfg = AttackConfig(AttackKind.FGSM, epsilon, clamp=clamp)
    return attack_batch(source, images, labels, cfg)


# ---------------------------------------------------------------------------
# AttackConfig
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["fgsm", "pgd", "mim", None])
def test_kind_must_be_an_attack_kind(kind):
    # attack_batch runs PGD for any kind that is neither FGSM nor MIM
    with pytest.raises(ValueError, match=f"kind must be an AttackKind, got {kind!r}"):
        AttackConfig(kind, 0.1)


@pytest.mark.parametrize("kind", list(AttackKind))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_epsilon_must_be_finite_and_non_negative(kind, bad):
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        AttackConfig(kind, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.0])
def test_step_size_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="step_size"):
        AttackConfig(AttackKind.MIM, 0.1, step_size=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_must_be_finite(bad):
    with pytest.raises(ValueError, match="decay"):
        AttackConfig(AttackKind.MIM, 0.1, decay=bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 1.0, np.float64(3.0), True, False, "3"])
def test_steps_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError, match=re.escape(f"steps must be an integer >= 1, got {bad!r}")):
        AttackConfig(AttackKind.PGD, 0.1, steps=bad)


@pytest.mark.parametrize("steps", [np.int64(3), np.int32(1), np.uint8(2)])
def test_numpy_integer_steps_are_accepted(steps):
    assert AttackConfig(AttackKind.MIM, 0.1, steps=steps).steps == steps


@pytest.mark.parametrize("clamp", [(0.0, 1.0), (0.2, 0.8), None])
def test_clamp_must_be_a_bool(clamp):
    # clamping clips to [0, 1]: a pair of bounds would be read as True
    with pytest.raises(ValueError, match="clamp must be True or False"):
        AttackConfig(AttackKind.PGD, 0.1, clamp=clamp)


# ---------------------------------------------------------------------------
# FGSM
# ---------------------------------------------------------------------------

def test_fgsm_positive_gradient_steps_up():
    img = np.full((1, 3, 3, 1), 0.5)
    out = fgsm_batch(FixedGradientSource(np.ones((1, 3, 3, 1))), img, [0], 0.1)
    assert np.allclose(out, 0.6, atol=1e-15)


def test_unclamped_fgsm_at_even_epsilon_leaves_features_unchanged(trained_toy):
    # quanvolution features are 2-periodic in every pixel and FGSM moves
    # each pixel by epsilon * sign(gradient)
    model, xs, ys = trained_toy
    qcfg = QuanvConfig(circuit=build_ansatz(AnsatzKind.ZZ_FULL, seed=1))
    adv = fgsm_batch(SurrogateSource(model), xs[:1], ys[:1], 2.0)[0]
    assert np.max(np.abs(adv - xs[0])) == 2.0
    features = quanvolve_image(adv, qcfg)
    assert np.max(np.abs(features - quanvolve_image(xs[0], qcfg))) <= 1e-12


def test_fgsm_clamp(rng):
    img = rng.uniform(0, 1, (1, 4, 4, 1))
    out = fgsm_batch(FixedGradientSource(np.ones((1, 4, 4, 1))), img, [0], 0.9, clamp=True)
    assert np.all(out <= 1.0) and np.all(out >= 0.0)


def test_fgsm_damages_attacked_model(trained_toy):
    model, xs, ys = trained_toy
    clean_acc = nn.evaluate(model, xs, ys)
    source = SurrogateSource(model)
    for eps in (0.05, 0.1, 0.3, 1.0):
        adv = attack_batch(source, xs, ys, AttackConfig(AttackKind.FGSM, eps))
        assert nn.evaluate(model, adv, ys) <= clean_acc


# ---------------------------------------------------------------------------
# Reduction identities (bit-level)
# ---------------------------------------------------------------------------

def test_pgd_single_step_equals_fgsm(trained_toy):
    model, xs, _ = trained_toy
    source = SurrogateSource(model)
    img, label, eps = xs[:1], [3], 0.2
    via_fgsm = fgsm_batch(source, img, label, eps)
    via_pgd = attack_batch(source, img, label,
                           AttackConfig(AttackKind.PGD, eps, steps=1, step_size=eps))
    assert np.array_equal(via_fgsm, via_pgd)
    assert via_fgsm.tobytes() == via_pgd.tobytes()


def test_mim_zero_decay_equals_pgd(trained_toy):
    model, xs, _ = trained_toy
    source = SurrogateSource(model)
    img, label = xs[1:2], [5]
    cfg_p = AttackConfig(AttackKind.PGD, 0.3, steps=10, step_size=0.05)
    cfg_m = AttackConfig(AttackKind.MIM, 0.3, steps=10, step_size=0.05, decay=0.0)
    a = attack_batch(source, img, label, cfg_p)
    b = attack_batch(source, img, label, cfg_m)
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()


def test_mim_single_step_equals_fgsm_with_step_size(trained_toy):
    model, xs, _ = trained_toy
    source = SurrogateSource(model)
    img, label = xs[2:3], [1]
    alpha = 0.07
    via_fgsm = fgsm_batch(source, img, label, alpha)
    via_mim = attack_batch(
        source, img, label,
        AttackConfig(AttackKind.MIM, 0.5, steps=1, step_size=alpha, decay=0.8),
    )
    assert np.array_equal(via_fgsm, via_mim)


def test_mim_normalises_momentum_per_image():
    # Pixel 0 of image 0 gets +1 then -2: with its own L1 norms (1, then 4)
    # the momentum stays positive.  A batch-wide norm would be dominated by
    # image 1, whose L1 norm shrinks tenfold, and flip that pixel negative.
    first, second = np.zeros((2, 2, 2, 1)), np.zeros((2, 2, 2, 1))
    first[0, 0, 0], second[0, 0, 0], second[0, 1, 1] = 1.0, -2.0, 2.0
    first[1], second[1] = 1.0, 0.1
    cfg = AttackConfig(AttackKind.MIM, 1.0, steps=2, step_size=0.1, decay=1.0)
    images = np.zeros((2, 2, 2, 1))

    def run(scale):
        fields = [f.copy() for f in (first, second)]
        for f in fields:
            f[1] *= scale
        return attack_batch(FixedGradientSource(*fields), images, [0, 0], cfg)

    base = run(1.0)
    assert base[0, 0, 0, 0] > 0
    scaled = run(1e6)
    for row in range(2):
        assert scaled[row].tobytes() == base[row].tobytes()


# ---------------------------------------------------------------------------
# Epsilon ball and clamp properties (fuzzed)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", list(AttackKind))
def test_epsilon_ball_containment_fuzzed(kind, rng):
    for trial in range(100):
        shape = (3, 3, 1)
        img = rng.uniform(0, 1, shape)
        eps = float(rng.uniform(0, 2))
        cfg = AttackConfig(kind, eps, steps=int(rng.integers(1, 8)),
                           step_size=float(rng.uniform(0.01, 1.5)),
                           decay=float(rng.uniform(0, 1.5)))
        source = FixedGradientSource(rng.normal(size=(1, *shape)))
        adv = attack_batch(source, img[None], [0], cfg)[0]
        assert np.max(np.abs(adv - img)) <= eps + 1e-9


@pytest.mark.parametrize("kind", list(AttackKind))
def test_clamp_respected_fuzzed(kind, rng):
    for trial in range(100):
        shape = (3, 3, 1)
        img = rng.uniform(0, 1, shape)
        eps = float(rng.uniform(0, 3))
        cfg = AttackConfig(kind, eps, steps=int(rng.integers(1, 6)),
                           step_size=float(rng.uniform(0.05, 2.0)),
                           clamp=True)
        source = FixedGradientSource(rng.normal(size=(1, *shape)))
        adv = attack_batch(source, img[None], [0], cfg)[0]
        assert np.all(adv >= 0.0) and np.all(adv <= 1.0)
        assert np.max(np.abs(adv - img)) <= eps + 1e-9


def test_pgd_projection_with_changing_gradients(trained_toy):
    model, xs, ys = trained_toy
    source = SurrogateSource(model)
    cfg = AttackConfig(AttackKind.PGD, 0.1, steps=10, step_size=0.05)
    adv = attack_batch(source, xs[:5], ys[:5], cfg)
    for i in range(5):
        assert np.max(np.abs(adv[i] - xs[i])) <= 0.1 + 1e-9


# ---------------------------------------------------------------------------
# Iterative refinement and batching
# ---------------------------------------------------------------------------

def test_pgd_loss_at_least_fgsm_loss(trained_toy):
    model, xs, ys = trained_toy
    source = SurrogateSource(model)
    eps = 0.2
    fgsm_adv = fgsm_batch(source, xs[:5], ys[:5], eps)
    pgd_adv = attack_batch(source, xs[:5], ys[:5], AttackConfig(AttackKind.PGD, eps, steps=10))
    for i in range(5):
        label = int(ys[i])
        assert (nn.loss(model, pgd_adv[i : i + 1], [label])
                >= nn.loss(model, fgsm_adv[i : i + 1], [label]) - 1e-9)


def test_attack_batch_empty(trained_toy):
    model, _, _ = trained_toy
    out = attack_batch(SurrogateSource(model), np.zeros((0, 28, 28, 1)),
                       np.zeros(0, dtype=int), AttackConfig(AttackKind.FGSM, 0.1))
    assert len(out) == 0


@pytest.mark.parametrize("kind", list(AttackKind))
@pytest.mark.parametrize("clamp", [False, True])
def test_attack_batch_zero_epsilon_skips_gradients(kind, clamp, rng):
    images = rng.uniform(-0.5, 1.5, (3, 4, 4, 1))
    out = attack_batch(RaisingSource(), images, [0, 1, 2], AttackConfig(kind, 0.0, clamp=clamp))
    expected = np.clip(images, 0.0, 1.0) if clamp else images
    assert out.tobytes() == expected.tobytes()
    assert not np.shares_memory(out, images)


def test_attack_batch_shape_and_per_image_balls(trained_toy):
    model, xs, ys = trained_toy
    cfg = AttackConfig(AttackKind.MIM, 0.15, steps=5)
    adv = attack_batch(SurrogateSource(model), xs[:6], ys[:6], cfg)
    assert adv.shape == (6, 28, 28, 1)
    for i in range(6):
        assert np.max(np.abs(adv[i] - xs[i])) <= 0.15 + 1e-9


def test_attack_batch_deterministic(trained_toy):
    model, xs, ys = trained_toy
    cfg = AttackConfig(AttackKind.PGD, 0.1, steps=4)
    a = attack_batch(SurrogateSource(model), xs[:4], ys[:4], cfg)
    b = attack_batch(SurrogateSource(model), xs[:4], ys[:4], cfg)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", list(AttackKind))
@pytest.mark.parametrize("source_kind", ["surrogate", "end_to_end"])
def test_attack_batch_equals_one_image_batches(kind, source_kind, trained_toy,
                                               toy_end_to_end, rng):
    # each image is attacked in its own ball along its own loss's gradient,
    # so a batch gives the same bytes as one-image batches stacked
    if source_kind == "surrogate":
        model, xs, ys = trained_toy
        source, images, labels = SurrogateSource(model), xs[:10], ys[:10]
    else:
        source = toy_end_to_end
        images, labels = rng.uniform(0, 1, (10, 6, 6, 1)), rng.integers(0, 10, 10)
    cfg = AttackConfig(kind, 0.3, steps=4)
    batched = attack_batch(source, images, labels, cfg)
    stacked = np.stack([attack_batch(source, images[i : i + 1], labels[i : i + 1], cfg)[0]
                        for i in range(len(images))])
    assert batched.tobytes() == stacked.tobytes()


# ---------------------------------------------------------------------------
# End-to-end gradient source
# ---------------------------------------------------------------------------

def test_end_to_end_source_attacks_through_quanv(toy_end_to_end, rng):
    source = toy_end_to_end

    def loss(images, label):
        features = quanvolve_dataset(images, source.quanv_cfg)
        return nn.loss(source.head, features, [label])

    img = rng.uniform(0, 1, (1, 6, 6, 1))
    label = 4
    grad = source.gradient(img, [label])
    assert grad.shape == img.shape
    assert np.any(grad != 0)

    # gradient sanity: stepping along it raises the end-to-end loss
    base = loss(img, label)
    stepped = loss(img + 1e-3 * np.sign(grad), label)
    assert stepped > base

    adv = fgsm_batch(source, img, [label], 0.25)
    assert np.max(np.abs(adv - img)) <= 0.25 + 1e-12
    assert loss(adv, label) > base


def test_end_to_end_gradient_equals_the_separate_quanv_path(toy_end_to_end, rng):
    # one trig pass for features and pullback: the same bits as quanvolving,
    # backpropagating through the head and pulling back in separate calls
    source = toy_end_to_end
    images, labels = rng.uniform(-1, 2, (70, 6, 6, 1)), rng.integers(0, 10, 70)
    features = quanvolve_dataset(images, source.quanv_cfg)
    upstream = nn.input_gradient(source.head, features, labels)
    expected = quanv.input_gradient(images, source.quanv_cfg, upstream)
    assert np.array_equal(source.gradient(images, labels), expected)


# ---------------------------------------------------------------------------
# A supplied clean-image gradient
# ---------------------------------------------------------------------------

class CountingSource:
    """Forwards to a real source and counts the gradient calls."""

    def __init__(self, source):
        self.source, self.mode, self.calls = source, source.mode, 0

    def gradient(self, images, labels):
        self.calls += 1
        return self.source.gradient(images, labels)


@pytest.mark.parametrize("kind", list(AttackKind))
@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("source_kind", ["surrogate", "end_to_end"])
def test_supplied_clean_gradient_gives_the_same_images(kind, clamp, source_kind, trained_toy,
                                                        toy_end_to_end, rng):
    if source_kind == "surrogate":
        model, xs, ys = trained_toy
        source, images, labels = SurrogateSource(model), xs[:10], ys[:10]
    else:
        source = toy_end_to_end
        images, labels = rng.uniform(0, 1, (10, 6, 6, 1)), rng.integers(0, 10, 10)
    cfg = AttackConfig(kind, 0.3, steps=4, clamp=clamp)
    plain, supplied = CountingSource(source), CountingSource(source)
    expected = attack_batch(plain, images, labels, cfg)
    clean = source.gradient(images, labels)
    kept = clean.copy()
    adv = attack_batch(supplied, images, labels, cfg, gradient=clean)
    assert adv.tobytes() == expected.tobytes()
    assert supplied.calls == plain.calls - 1  # FGSM: none at all
    assert np.array_equal(clean, kept)  # only read: callers share it across attacks
