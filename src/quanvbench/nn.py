"""From-scratch differentiable networks for the robustness benchmark.

Three architectures share a dense head, trained on softmax cross-entropy:

    classical_cnn   Conv2D(2x2, stride 2, 4 filters) + ReLU -> Flatten -> head
    classical_fc    Flatten -> head, straight from raw pixels
    qunn            Flatten -> head, fed pre-computed quanvolved maps

On MNIST the head is Dense(10); on FMNIST a Dense(128) + ReLU + Dropout
block is inserted before it.  The layer stack computes logits; `forward`
applies the softmax, and `loss` is the mean cross-entropy of a batch.
Weights use seeded Glorot-uniform initialization with zero biases, so the
same seed always rebuilds the same model.

`build_model` takes a name in `data.DATASETS`; `loss`, `input_gradient`,
`evaluate` and `train` check their labels with `data.check_labels`.  The
classical models read IMAGE_SHAPE (28x28x1) images, the qunn head 14x14x4 maps.

Tensors are row-major numpy arrays; images are (H, W, C) and every layer
works on (N, ...) batches.  Layer forward/backward are functional
(caches are passed, not stored), so inference and input gradients on a
frozen model are safe to run concurrently; only train() mutates parameters.
Backward computes only what is read; a training step writes its parameter
gradients into views of one preallocated vector, and Adam updates in one
pass, through two preallocated scratch vectors, the flat vector, laid out
alike, that every parameter is a view of.

The convolution reads a (5, N*14*14) patch matrix: a row of ones for the
bias, then pixel (i, j) of every 2x2 patch in tap order (0,0), (0,1), (1,0),
(1,1).  Each output sums the bias first and then the rounded tap products in
that order; `results.csv` depends on these bits, as it does on Adam applying
the textbook expression's operations in their order.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import DATASETS, N_CLASSES, check_labels

IMAGE_SHAPE = (28, 28, 1)
# the rate of the FMNIST hidden block's dropout
DROP_PROB = 0.3


def check_image_shape(images: np.ndarray) -> None:
    """Fail unless ``images`` is a batch of IMAGE_SHAPE images, every architecture's input."""
    if images.shape[1:] != IMAGE_SHAPE:
        raise ValueError(f"images must be {'x'.join(map(str, IMAGE_SHAPE))}, the input of "
                         f"every architecture, got {images.shape[1:]}")


class Architecture(Enum):
    CLASSICAL_CNN = "classical_cnn"
    CLASSICAL_FC = "classical_fc"
    QUNN = "qunn"


# ---------------------------------------------------------------------------
# Layers, on batches.  forward(x, training, rng) -> (y, cache); backward(dout,
# cache) -> dx; with param_names, param_grads(dout, cache, out) writes
# out[k] = dL/d(name k).  The last layer's y is the logits.
# ---------------------------------------------------------------------------


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    param_names: tuple[str, ...] = ()


class Conv2D(Layer):
    """2x2 kernels at stride 2 over one input channel, into ``filters``
    channels; an odd last row or column is dropped.

    Every output is ``b + p0*w0 + p1*w1 + p2*w2 + p3*w3``, summed left to
    right with each product rounded: the bias first, then the patch's
    pixels in tap order (0,0), (0,1), (1,0), (1,1).  `results.csv` depends
    on these bits.  ``forward`` and ``param_grads`` each make one einsum
    over the patch matrix (``_patch_matrix``), whose row 0 is ones: it adds
    the bias, and in ``param_grads`` it sums the bias gradient.  The cache
    is the input, from which ``param_grads`` rebuilds the matrix.
    """

    param_names = ("weights", "bias")

    def __init__(self, filters, rng):
        self.weights = _glorot(rng, (2, 2, 1, filters), 4, 4 * filters)
        self.bias = np.zeros(filters)

    @staticmethod
    def _patch_matrix(x, oh, ow):
        """(5, n*oh*ow): ones, then pixel (i, j) of every patch in tap order."""
        n = x.shape[0]
        p = np.empty((5, n * oh * ow))
        p[0] = 1.0
        p[1:].reshape(2, 2, n, oh, ow)[...] = (
            x[:, : 2 * oh, : 2 * ow, 0].reshape(n, oh, 2, ow, 2).transpose(2, 4, 0, 1, 3))
        return p

    def forward(self, x, training=False, rng=None):
        n, h, w, _ = x.shape
        oh, ow, f = h // 2, w // 2, self.bias.shape[0]
        coef = np.concatenate([self.bias[None], self.weights.reshape(4, f)])
        out = np.einsum("tf,tm->fm", coef, self._patch_matrix(x, oh, ow))
        return np.ascontiguousarray(out.T).reshape(n, oh, ow, f), x

    def backward(self, dout, cache):
        n, oh, ow, f = dout.shape
        dx = np.empty_like(cache)
        dx[:, 2 * oh :] = 0.0
        dx[:, :, 2 * ow :] = 0.0
        rows = dout.reshape(-1, f)
        for i in range(2):
            for j in range(2):
                dx[:, i : 2 * oh : 2, j : 2 * ow : 2, 0] = (
                    rows @ self.weights[i, j, 0]).reshape(n, oh, ow)
        return dx

    def param_grads(self, dout, cache, out):
        dw, db = out
        _, oh, ow, f = dout.shape
        g = np.einsum("tm,mf->tf", self._patch_matrix(cache, oh, ow), dout.reshape(-1, f))
        db[...] = g[0]
        dw.reshape(4, f)[...] = g[1:]


class Dense(Layer):
    param_names = ("weights", "bias")

    def __init__(self, in_features, out_features, rng):
        self.weights = _glorot(rng, (in_features, out_features), in_features, out_features)
        self.bias = np.zeros(out_features)

    def forward(self, x, training=False, rng=None):
        return x @ self.weights + self.bias, x

    def backward(self, dout, cache):
        return dout @ self.weights.T

    def param_grads(self, dout, cache, out):
        np.matmul(cache.T, dout, out=out[0])
        np.sum(dout, axis=0, out=out[1])


class ReLU(Layer):
    def forward(self, x, training=False, rng=None):
        mask = x > 0
        return x * mask, mask

    def backward(self, dout, cache):
        return dout * cache


class Dropout(Layer):
    """Inverted dropout of rate DROP_PROB: scaled mask at train time, identity at eval."""

    def forward(self, x, training=False, rng=None):
        if not training:
            return x, None
        if rng is None:
            raise ValueError("dropout in training mode needs a seeded generator")
        mask = (rng.random(x.shape) >= DROP_PROB) / (1.0 - DROP_PROB)
        return x * mask, mask

    def backward(self, dout, cache):
        return dout if cache is None else dout * cache


class Flatten(Layer):
    def forward(self, x, training=False, rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dout, cache):
        return dout.reshape(cache)


class Model:
    """Layer stack computing logits; every parameter is a view of ``flat``,
    which holds them all in layer order.  Training writes their gradients
    into ``grads[layer index]``, views of ``grad``, laid out like ``flat``."""

    def __init__(self, layers, input_shape, arch):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.arch = arch
        entries = list(self.param_entries())
        self.flat = np.concatenate([arr.ravel() for _, _, arr in entries])
        self.grad, self.grads = np.zeros_like(self.flat), {}
        self.first_param_layer = entries[0][0]  # where backward stops in training
        offset = 0
        for li, name, arr in entries:
            setattr(layers[li], name, self.flat[offset : offset + arr.size].reshape(arr.shape))
            self.grads.setdefault(li, []).append(
                self.grad[offset : offset + arr.size].reshape(arr.shape))
            offset += arr.size

    def param_entries(self):
        """(layer_index, name, array) for every parameter, in layer order."""
        for li, layer in enumerate(self.layers):
            for name in layer.param_names:
                yield li, name, getattr(layer, name)


def build_model(arch: Architecture, dataset: str, seed: int) -> Model:
    """Assemble one of the three architectures with seeded initialization."""
    arch = Architecture(arch)
    if dataset not in DATASETS:
        raise ValueError(f"unknown dataset {dataset!r}")
    rng = np.random.default_rng(seed)

    input_shape = (14, 14, 4) if arch is Architecture.QUNN else IMAGE_SHAPE
    layers: list = [Conv2D(4, rng), ReLU()] if arch is Architecture.CLASSICAL_CNN else []
    layers.append(Flatten())
    # the convolution's 14x14x4 output holds as many values as its 28x28x1 input
    flat = math.prod(input_shape)
    if dataset == "fmnist":
        layers += [Dense(flat, 128, rng), ReLU(), Dropout()]
        flat = 128
    layers.append(Dense(flat, N_CLASSES, rng))
    return Model(layers, input_shape, arch)


# ---------------------------------------------------------------------------
# Forward / loss / gradients
# ---------------------------------------------------------------------------


def forward(model: Model, x: np.ndarray, training=False, rng=None):
    """Class probabilities of an (N, *input_shape) batch, the softmax of the
    stack's logits, and each layer's cache."""
    out = np.asarray(x, dtype=float)
    if out.shape[1:] != model.input_shape:
        raise ValueError(f"input shape {out.shape} is not a batch of model input "
                         f"{model.input_shape}")
    caches = []
    for layer in model.layers:
        out, cache = layer.forward(out, training=training, rng=rng)
        caches.append(cache)
    e = np.exp(out - out.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True), caches


def loss(model: Model, x: np.ndarray, labels) -> float:
    """Mean softmax cross-entropy of a batch and its labels."""
    labels = check_labels(labels, len(x))
    probs, _ = forward(model, x)
    picked = np.clip(probs[np.arange(len(labels)), labels], 1e-12, None)
    return float(-np.log(picked).mean())


def _dlogits(model: Model, x: np.ndarray, labels, training=False, rng=None):
    """d(cross-entropy)/d(logits) of each image's own loss, p - onehot(label),
    with the caches of its forward pass."""
    dlogits, caches = forward(model, x, training, rng)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    return dlogits, caches


def _parameter_gradient(model: Model, dlogits: np.ndarray, caches) -> np.ndarray:
    """``model.grad``, written through its views; backward stops at the first layer with parameters."""
    dout = dlogits
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        if layer.param_names:
            layer.param_grads(dout, caches[li], model.grads[li])
        if li == model.first_param_layer:
            return model.grad
        dout = layer.backward(dout, caches[li])


def input_gradient(model: Model, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Exact d(cross-entropy)/d(input) of each image's own loss; dropout disabled.

    ``x`` is an (N, *input_shape) batch and ``labels`` its (N,) classes; row i
    of the result is the gradient of image i's loss alone (no 1/N).
    """
    labels = check_labels(labels, len(x))
    dout, caches = _dlogits(model, x, labels)  # then each layer's input gradient
    for li in range(len(model.layers) - 1, -1, -1):
        dout = model.layers[li].backward(dout, caches[li])
    return dout


def evaluate(model: Model, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax predictions equal to the labels."""
    if len(inputs) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = check_labels(labels, len(inputs))
    probs, _ = forward(model, inputs)
    return float(np.mean(np.argmax(probs, axis=1) == labels))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4
    epochs: int = 30
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )


class _Adam:
    """Adam on one flat parameter vector: every step is one elementwise pass,
    the textbook expression's operations in its order, written into two
    preallocated scratch vectors."""

    def __init__(self, lr, size):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._a, self._b = np.empty(size), np.empty(size)
        self.t = 0

    def step(self, param, grad):
        """param -= lr * m_hat / (sqrt(v_hat) + eps), after
        m += (1 - beta1) * (grad - m) and v += (1 - beta2) * (grad * grad - v)."""
        self.t += 1
        a, b = self._a, self._b
        np.subtract(grad, self.m, out=a)
        np.multiply(1 - self.beta1, a, out=a)
        self.m += a
        np.multiply(grad, grad, out=a)
        np.subtract(a, self.v, out=a)
        np.multiply(1 - self.beta2, a, out=a)
        self.v += a
        np.divide(self.m, 1 - self.beta1**self.t, out=a)  # m_hat
        np.multiply(self.lr, a, out=a)
        np.divide(self.v, 1 - self.beta2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)
        param -= a


def train(model: Model, inputs, labels, cfg: TrainConfig):
    """Minimize softmax cross-entropy; returns the model.

    Deterministic for a fixed cfg.seed: shuffling and dropout masks come
    from one seeded generator.  The model is updated in place.
    """
    inputs = np.asarray(inputs, dtype=float)
    if len(inputs) == 0:
        raise ValueError("cannot train on an empty dataset")
    labels = check_labels(labels, len(inputs))

    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(cfg.learning_rate, model.flat.size)
    n = len(inputs)
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            dlogits, caches = _dlogits(model, inputs[idx], labels[idx], True, rng)
            dlogits /= len(idx)
            opt.step(model.flat, _parameter_gradient(model, dlogits, caches))
    return model

