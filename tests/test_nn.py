import re

import numpy as np
import pytest

from quanvbench import nn
from quanvbench.nn import (
    Architecture,
    Conv2D,
    Dense,
    Model,
    TrainConfig,
    build_model,
    evaluate,
    forward,
    input_gradient,
    train,
)


def zero_weights(model):
    for _li, _name, arr in model.param_entries():
        arr[...] = 0.0
    return model


def random_dataset(rng, n=50, shape=(28, 28, 1)):
    xs = rng.uniform(0, 1, (n,) + shape)
    ys = rng.integers(0, 10, n)
    return xs, ys


# ---------------------------------------------------------------------------
# build_model
# ---------------------------------------------------------------------------

def test_classical_cnn_forward_shape(rng):
    m = build_model(Architecture.CLASSICAL_CNN, "mnist", seed=1)
    p = forward(m, rng.uniform(0, 1, (1, 28, 28, 1)))[0][0]
    assert p.shape == (10,)
    assert np.isclose(p.sum(), 1.0, atol=1e-6)


def test_qunn_head_parameter_count():
    m = build_model(Architecture.QUNN, "mnist", seed=1)
    assert m.flat.size == 14 * 14 * 4 * 10 + 10  # 7850


def test_same_seed_same_weights():
    a = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=7)
    b = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=7)
    for (_, _, wa), (_, _, wb) in zip(a.param_entries(), b.param_entries()):
        assert np.array_equal(wa, wb)
    c = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=8)
    assert any(
        not np.array_equal(wa, wc)
        for (_, _, wa), (_, _, wc) in zip(a.param_entries(), c.param_entries())
    )


def test_fmnist_models_have_hidden_block():
    m = build_model(Architecture.QUNN, "fmnist", seed=1)
    kinds = [type(l).__name__ for l in m.layers]
    assert kinds == ["Flatten", "Dense", "ReLU", "Dropout", "Dense"]


def test_conv_output_shape_matches_quanv_shape_law(rng):
    m = build_model(Architecture.CLASSICAL_CNN, "mnist", seed=0)
    conv = m.layers[0]
    out, _ = conv.forward(rng.uniform(0, 1, (2, 28, 28, 1)))
    assert out.shape == (2, 14, 14, 4)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_zero_init_gives_uniform_probabilities():
    m = zero_weights(build_model(Architecture.CLASSICAL_FC, "mnist", seed=0))
    p, _ = forward(m, np.zeros((1, 28, 28, 1)))
    assert np.allclose(p, 0.1, atol=1e-12)


def test_conv_constant_image_hand_computed():
    m = build_model(Architecture.CLASSICAL_CNN, "mnist", seed=0)
    conv = m.layers[0]
    conv.weights[...] = 0.25
    conv.bias[...] = 0.5
    out, _ = conv.forward(np.full((1, 28, 28, 1), 0.8))
    # 4 taps * 0.25 * 0.8 + 0.5 = 1.3 everywhere, every channel
    assert np.allclose(out, 1.3, atol=1e-12)


def conv_taps(oh, ow):
    """(i, j, index of the inputs that tap (i, j) reads) for every tap."""
    return [(i, j, (slice(None), slice(i, i + 2 * oh, 2), slice(j, j + 2 * ow, 2)))
            for i in range(2) for j in range(2)]


# batches of 1, 4 and 30 images, odd sides, and a non-square image
CONV_CASES = [(1, 28, 28), (4, 28, 28), (30, 28, 28), (4, 27, 27), (3, 7, 9)]


def conv_case(n, h, w, rng):
    conv = Conv2D(4, rng)
    conv.bias[...] = rng.normal(size=4)
    return conv, rng.uniform(0, 1, (n, h, w, 1)), rng.normal(size=(n, h // 2, w // 2, 4))


@pytest.mark.parametrize("n, h, w", CONV_CASES)
def test_conv_forward_sums_bias_then_taps_in_order_bit_for_bit(n, h, w, rng):
    conv, x, _ = conv_case(n, h, w, rng)
    expected = np.broadcast_to(conv.bias, (n, h // 2, w // 2, 4)).copy()
    for i, j, patch in conv_taps(h // 2, w // 2):
        expected += np.einsum("nhwc,cf->nhwf", x[patch], conv.weights[i, j])
    out, cache = conv.forward(x)
    assert out.flags.c_contiguous and cache is x
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, h, w", CONV_CASES)
def test_conv_backward_equals_the_per_tap_einsum_bit_for_bit(n, h, w, rng):
    # at the 4 filters every model uses; other widths may sum in another order
    conv, x, dout = conv_case(n, h, w, rng)
    expected = np.zeros_like(x)
    for i, j, patch in conv_taps(h // 2, w // 2):
        expected[patch] += np.einsum("nhwf,cf->nhwc", dout, conv.weights[i, j])
    assert conv.backward(dout, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, h, w", CONV_CASES)
def test_conv_param_grads_equal_the_per_tap_einsum_bit_for_bit(n, h, w, rng):
    conv, x, dout = conv_case(n, h, w, rng)
    expected_dw = np.empty_like(conv.weights)
    for i, j, patch in conv_taps(h // 2, w // 2):
        expected_dw[i, j] = np.einsum("nhwc,nhwf->cf", x[patch], dout)
    dw, db = np.full_like(conv.weights, np.nan), np.full_like(conv.bias, np.nan)
    conv.param_grads(dout, x, [dw, db])
    assert dw.tobytes() == expected_dw.tobytes()
    assert db.tobytes() == np.sum(dout, axis=(0, 1, 2)).tobytes()


def test_relu_zeroes_negatives(rng):
    layer = nn.ReLU()
    x = rng.normal(size=(3, 5))
    y, _ = layer.forward(x)
    assert np.all(y[x < 0] == 0)
    assert np.array_equal(y[x > 0], x[x > 0])


def test_forward_rejects_wrong_shape(rng):
    m = build_model(Architecture.QUNN, "mnist", seed=0)
    with pytest.raises(ValueError):
        forward(m, rng.uniform(0, 1, (1, 28, 28, 1)))


def test_softmax_probabilities_valid(rng):
    m = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=3)
    p, _ = forward(m, rng.uniform(0, 1, (5, 28, 28, 1)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(p >= 0)


def test_dropout_only_active_in_training(rng):
    m = build_model(Architecture.QUNN, "fmnist", seed=3)
    x = rng.uniform(0, 1, (1, 14, 14, 4))
    eval_1, _ = forward(m, x)
    eval_2, _ = forward(m, x)
    assert np.array_equal(eval_1, eval_2)
    trained_mode, _ = forward(m, x, training=True, rng=np.random.default_rng(0))
    assert not np.array_equal(eval_1, trained_mode)


@pytest.mark.parametrize("arch,dataset", [(Architecture.CLASSICAL_CNN, "mnist"),
                                          (Architecture.QUNN, "fmnist")])
def test_loss_of_a_batch_is_the_mean_of_its_images_losses(arch, dataset, rng):
    m = build_model(arch, dataset, seed=12)
    xs = rng.uniform(0, 1, (6,) + m.input_shape)
    ys = rng.integers(0, 10, 6)
    losses = [nn.loss(m, xs[i : i + 1], ys[i : i + 1]) for i in range(len(xs))]
    probs, _ = forward(m, xs)
    assert losses == pytest.approx(-np.log(probs[np.arange(len(xs)), ys]), rel=1e-12)
    assert nn.loss(m, xs, ys) == pytest.approx(np.mean(losses), rel=1e-12)


# ---------------------------------------------------------------------------
# input_gradient
# ---------------------------------------------------------------------------

def test_input_gradient_matches_finite_differences(rng):
    m = build_model(Architecture.CLASSICAL_CNN, "mnist", seed=5)
    x = rng.uniform(0, 1, (28, 28, 1))
    label = 3
    grad = input_gradient(m, x[None], [label])[0]
    h = 1e-4
    flat_coords = rng.choice(x.size, 50, replace=False)
    for flat in flat_coords:
        idx = np.unravel_index(flat, x.shape)
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = (nn.loss(m, xp[None], [label]) - nn.loss(m, xm[None], [label])) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_input_gradient_fmnist_stack_matches_finite_differences(rng):
    # exercises Dense(128) + ReLU + Dropout(eval) + Dense composite
    m = build_model(Architecture.QUNN, "fmnist", seed=6)
    x = rng.uniform(-1, 1, (14, 14, 4))
    label = 7
    grad = input_gradient(m, x[None], [label])[0]
    h = 1e-4
    for flat in rng.choice(x.size, 50, replace=False):
        idx = np.unravel_index(flat, x.shape)
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = (nn.loss(m, xp[None], [label]) - nn.loss(m, xm[None], [label])) / (2 * h)
        assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_saturated_softmax_zero_gradient():
    m = zero_weights(build_model(Architecture.CLASSICAL_FC, "mnist", seed=0))
    dense = m.layers[1]
    dense.bias[4] = 60.0  # probability of class 4 saturates at 1
    grad = input_gradient(m, np.full((1, 28, 28, 1), 0.5), [4])
    assert np.max(np.abs(grad)) < 1e-8


def test_linear_model_gradient_closed_form(rng):
    # Flatten -> Dense, softmax cross-entropy: dL/dx = W (p - y)
    m = build_model(Architecture.CLASSICAL_FC, "mnist", seed=9)
    x = rng.uniform(0, 1, (28, 28, 1))
    label = 2
    p = forward(m, x[None])[0][0]
    y = np.zeros(10)
    y[label] = 1.0
    w = m.layers[1].weights  # (784, 10)
    expected = (w @ (p - y)).reshape(28, 28, 1)
    assert np.allclose(input_gradient(m, x[None], [label])[0], expected, atol=1e-12)


@pytest.mark.parametrize("arch,dataset", [(Architecture.CLASSICAL_CNN, "mnist"),
                                          (Architecture.QUNN, "fmnist")])
def test_batched_input_gradient_rows_match_one_image_batches(arch, dataset, rng):
    # row i is the gradient of image i's own loss: no 1/N, no cross-talk
    m = build_model(arch, dataset, seed=8)
    xs = rng.uniform(0, 1, (12,) + m.input_shape)
    ys = rng.integers(0, 10, 12)
    batched = input_gradient(m, xs, ys)
    for i in range(len(xs)):
        single = input_gradient(m, xs[i : i + 1], ys[i : i + 1])[0]
        assert np.max(np.abs(batched[i] - single)) <= 1e-15
        assert np.array_equal(np.sign(batched[i]), np.sign(single))


def test_input_gradient_rejects_unbatched_or_mislabelled_input(rng):
    m = build_model(Architecture.CLASSICAL_FC, "mnist", seed=0)
    with pytest.raises(ValueError):
        input_gradient(m, rng.uniform(0, 1, (28, 28, 1)), [0])
    with pytest.raises(ValueError):
        input_gradient(m, rng.uniform(0, 1, (2, 28, 28, 1)), [0])


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("labels, n_images, message", [
    (np.array([3]), 5, "do not match a batch"),
    (np.array([3, 3]), 5, "do not match a batch"),
    (np.full((5, 1), 3), 5, "do not match a batch"),
    (np.array([12, -1, 40]), 3, r"labels must be integers in \[0, 10\), got \[-1 12 40\]$"),
    (np.array([0.5, 1.0, 2.0]), 3, "labels must be integers"),
    (np.array([True, False, True]), 3, "labels must be integers"),
], ids=["one", "too-few", "a-column", "out-of-range", "floats", "bools"])
@pytest.mark.parametrize("score", [evaluate, nn.loss, input_gradient,
                                   lambda m, x, y: train(m, x, y, TrainConfig(epochs=1))],
                         ids=["evaluate", "loss", "input_gradient", "train"])
def test_labels_that_are_not_one_per_image_are_rejected(score, labels, n_images, message):
    # broadcast, [3] would score all five images against class 3 (evaluate)
    # or score image 0 alone (loss); a label that is not a class would score
    # 0 (evaluate) or index past the class axis (loss, input_gradient, train)
    m = zero_weights(build_model(Architecture.CLASSICAL_FC, "mnist", seed=0))
    with pytest.raises(ValueError, match=message):
        score(m, np.zeros((n_images, 28, 28, 1)), labels)


def test_build_model_takes_only_the_dataset_names():
    # a name is normalised where a user types it, in the CLI, and nowhere else
    for name in ("MNIST", "cifar"):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_model(Architecture.QUNN, name, 0)


def test_train_memorizes_small_dataset(rng):
    xs, ys = random_dataset(rng)
    m = build_model(Architecture.CLASSICAL_CNN, "mnist", seed=11)
    loss_before, accuracy_before = nn.loss(m, xs, ys), evaluate(m, xs, ys)
    assert train(m, xs, ys, TrainConfig(seed=11)) is m
    assert evaluate(m, xs, ys) >= 0.9 > accuracy_before
    assert nn.loss(m, xs, ys) < loss_before


def test_parameters_change_only_through_optimizer_step(rng, monkeypatch):
    monkeypatch.setattr(nn._Adam, "step", lambda self, param, grad: None)
    xs, ys = random_dataset(rng, n=8)
    m = build_model(Architecture.CLASSICAL_FC, "mnist", seed=2)
    before = [arr.copy() for _, _, arr in m.param_entries()]
    train(m, xs, ys, TrainConfig(epochs=2, seed=2))
    for (_, _, arr), b in zip(m.param_entries(), before):
        assert np.array_equal(arr, b)


@pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
def test_learning_rate_must_be_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("name", ["batch_size", "epochs"])
@pytest.mark.parametrize("bad", [0, -2, 2.5, 4.0, np.float64(3.0), True, "4"])
def test_batch_size_and_epochs_must_be_positive_integers(name, bad):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1, got {bad!r}")):
        TrainConfig(**{name: bad})


@pytest.mark.parametrize("name", ["batch_size", "epochs"])
def test_numpy_integer_batch_size_and_epochs_are_accepted(name):
    assert getattr(TrainConfig(**{name: np.int64(3)}), name) == 3


def test_training_is_deterministic(rng):
    xs, ys = random_dataset(rng, n=20)
    runs = []
    for _ in range(2):
        m = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=4)
        train(m, xs, ys, TrainConfig(epochs=3, seed=4))
        runs.append([arr.copy() for _, _, arr in m.param_entries()])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_train_rejects_empty_and_bad_labels(rng):
    m = build_model(Architecture.CLASSICAL_FC, "mnist", seed=0)
    with pytest.raises(ValueError):
        train(m, np.zeros((0, 28, 28, 1)), np.zeros(0, dtype=int), TrainConfig())
    with pytest.raises(ValueError):
        train(m, np.zeros((2, 28, 28, 1)), np.array([0, 10]), TrainConfig(epochs=1))


def test_evaluate_counts_matches():
    m = zero_weights(build_model(Architecture.CLASSICAL_FC, "mnist", seed=0))
    m.layers[1].bias[3] = 5.0  # always predicts class 3
    xs = np.zeros((4, 28, 28, 1))
    assert evaluate(m, xs, np.array([3, 3, 0, 1])) == 0.5
    assert evaluate(m, xs, np.array([3, 3, 3, 3])) == 1.0
    with pytest.raises(ValueError):
        evaluate(m, np.zeros((0, 28, 28, 1)), np.zeros(0, dtype=int))


def test_uniform_predictor_scores_chance_on_balanced_labels():
    # zero weights -> uniform probabilities -> argmax always class 0
    m = zero_weights(build_model(Architecture.CLASSICAL_FC, "mnist", seed=0))
    xs = np.zeros((50, 28, 28, 1))
    ys = np.repeat(np.arange(10), 5)
    assert evaluate(m, xs, ys) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# flat-vector Adam and a backward that computes only what is read
# ---------------------------------------------------------------------------

def reference_train(model, inputs, labels, cfg):
    """Adam with one moment pair and one update per parameter array, after
    a full backward pass down to the input."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moments, t = {}, 0
    rng = np.random.default_rng(cfg.seed)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(inputs))
        for start in range(0, len(inputs), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = inputs[idx], labels[idx]
            probs, caches = nn.forward(model, xb, training=True, rng=rng)
            dout = probs.copy()
            dout[np.arange(len(yb)), yb] -= 1.0
            dout /= len(yb)
            grads = {}
            for li in range(len(model.layers) - 1, -1, -1):
                layer = model.layers[li]
                if layer.param_names:
                    out = [np.empty_like(getattr(layer, name)) for name in layer.param_names]
                    layer.param_grads(dout, caches[li], out)
                    grads.update({(li, name): g for name, g in zip(layer.param_names, out)})
                dout = layer.backward(dout, caches[li])
            t += 1
            for li, name, param in model.param_entries():
                grad = grads[(li, name)]
                m, v = moments.setdefault((li, name), (np.zeros_like(param), np.zeros_like(param)))
                m += (1 - beta1) * (grad - m)
                v += (1 - beta2) * (grad * grad - v)
                m_hat = m / (1 - beta1**t)
                v_hat = v / (1 - beta2**t)
                param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return model


@pytest.mark.parametrize("dataset", ["mnist", "fmnist"])
@pytest.mark.parametrize("arch", list(Architecture))
def test_flat_adam_equals_per_parameter_adam_bit_for_bit(arch, dataset, rng):
    model = build_model(arch, dataset, seed=3)
    xs, ys = random_dataset(rng, n=10, shape=model.input_shape)
    cfg = TrainConfig(epochs=3, seed=3)
    train(model, xs, ys, cfg)
    reference = reference_train(build_model(arch, dataset, seed=3), xs, ys, cfg)
    for (_, name, a), (_, _, b) in zip(model.param_entries(), reference.param_entries()):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("size", [7850, 101770])  # MNIST classical_fc, FMNIST qunn
def test_adam_step_equals_the_textbook_expression_bit_for_bit(size, rng):
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    opt = nn._Adam(lr, size)
    param = rng.normal(size=size)
    ref, m, v = param.copy(), np.zeros(size), np.zeros(size)
    for t in range(1, 401):
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 1), size=size)
        opt.step(param, grad)
        m += (1 - beta1) * (grad - m)
        v += (1 - beta2) * (grad * grad - v)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
    assert param.tobytes() == ref.tobytes()
    assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_parameters_are_views_of_one_flat_vector():
    m = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=1)
    entries = list(m.param_entries())
    assert m.flat.size == sum(arr.size for _, _, arr in entries)
    assert all(np.shares_memory(arr, m.flat) for _, _, arr in entries)
    assert np.array_equal(m.flat, np.concatenate([arr.ravel() for _, _, arr in entries]))


def test_parameter_gradients_are_views_of_one_vector_laid_out_like_flat(rng):
    m = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=1)
    views = [view for li in sorted(m.grads) for view in m.grads[li]]
    offset = lambda arr, base: arr.ctypes.data - base.ctypes.data
    assert [offset(v, m.grad) for v in views] == [offset(a, m.flat) for _, _, a in m.param_entries()]
    assert [v.shape for v in views] == [a.shape for _, _, a in m.param_entries()]
    assert m.first_param_layer == 0  # the Conv2D
    xs, ys = random_dataset(rng, n=3, shape=m.input_shape)
    probs, caches = nn.forward(m, xs, training=False)
    dlogits = probs - np.eye(10)[ys]
    assert nn._parameter_gradient(m, dlogits, caches) is m.grad


def forbid(monkeypatch, cls, name):
    def raising(*args, **kwargs):
        raise AssertionError(f"{cls.__name__}.{name} must not be called")

    monkeypatch.setattr(cls, name, raising)


@pytest.mark.parametrize("arch", [Architecture.CLASSICAL_CNN, Architecture.CLASSICAL_FC])
def test_training_stops_below_the_first_layer_with_parameters(arch, rng, monkeypatch):
    model = build_model(arch, "mnist", seed=2)
    forbid(monkeypatch, type(model.layers[0] if arch is Architecture.CLASSICAL_CNN
                             else model.layers[1]), "backward")
    xs, ys = random_dataset(rng, n=8)
    train(model, xs, ys, TrainConfig(epochs=1, seed=2))


def test_input_gradient_computes_no_parameter_gradients(rng, monkeypatch):
    forbid(monkeypatch, Conv2D, "param_grads")
    forbid(monkeypatch, Dense, "param_grads")
    model = build_model(Architecture.CLASSICAL_CNN, "fmnist", seed=2)
    xs, ys = random_dataset(rng, n=3)
    assert input_gradient(model, xs, ys).shape == xs.shape
