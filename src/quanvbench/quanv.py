"""Quanvolutional layer: the frozen filter compiled into its Fourier terms.

Images are (H, W, C) arrays, row-major, of float pixels or of uint8 bytes
(see below).  The layer is the paper's (after Henderson et al.,
arXiv:1904.04767): every 2x2 patch at stride 2 (an odd last row or column
is dropped), flattened row-major, pixel i driving
qubit i of the 4-qubit filter through an angle encoding phi_i = pi * x_i
applied as R_y(phi_i) to |0>.  Patches do not overlap, so every pixel feeds
exactly one feature.  That encoding is a real product state
psi = (x)_i (cos, sin)(phi_i / 2).  Channel q of the output pixel is the
exact expectation <Z_q> after the filter circuit U, psi^T M_q psi with
M_q = Re(U^dagger Z_q U) (the imaginary part vanishes on real states).  Per
qubit, cos^2, sin^2 and cos * sin of phi_i / 2 lie in
span{1, cos phi_i, sin phi_i}, so every channel is a short trigonometric
polynomial (Schuld, Sweke & Meyer, arXiv:2008.08605):

    <Z_q> = sum_t C[q, t] prod_i basis_{t_i}(phi_i),  basis = (1, cos, sin).

QuanvConfig compiles the circuit once into the nonzero terms of C.  For a
filter of single-qubit rotations, with or without the diagonal ZZ gates
after them, channel q has exactly two: the cos and the sin of pixel q.
Feature maps take values in [-1, 1] and have 4 channels, one per qubit;
they are 2-periodic in every pixel, and exact input gradients are the same
terms with one factor differentiated.  Both are evaluated on the whole
batch, every term reading pixel i of all patches through one strided view,
in three verbs: `encode` a batch once (its `Encoding`, the batch's (cos,
sin)), `contract` it per filter and `pullback` upstream weights through it.
A caller of `quanvolve_dataset` holds the whole batch's cos and sin at once,
16 bytes per pixel, as `encode` does for every sweep set; `quanvbench
quanvolve` bounds that by handing `quanvolve_dataset` 64 images at a time,
the one place a batch to quanvolve is cut into blocks.

The encoding is defined for any real pixel, so unclamped adversarial images
are quanvolved as they are; `data.Dataset` checks float pixels lie in [0, 1].
A uint8 image holds IDX bytes and is its pixels ``data.pixels(image)``,
byte b standing for b / 255: the bytes become pixels as they are encoded,
so their maps and gradients (float64) are their pixels', bit for bit.
A filter whose channels each read one pixel, as the four rotation kinds
(no_entanglement, zz_full, zz_linear, zz_star) do, has a ``byte_table``
instead: a channel takes at most 256 values over bytes, contracted from
``data.pixels`` of every byte when bytes are first quanvolved under it and
kept for later calls (sweeps quanvolve float pixels and never build it).
`quanvolve_dataset` gathers each channel of byte images there, one gather
per channel, no cosine, sine or term evaluated.  A filter that mixes pixels
in a channel (``random``) has no table and reads bytes as pixels.
Any other integer or boolean image is rejected rather than read as angles.

Features are summed in float64 per channel, and each sum is stored once
into maps of the ``dtype`` asked for: float32 maps hold the float64 maps'
values rounded.
`quanvbench quanvolve` writes its feature maps in the QNVF container:
little-endian header (magic "QNVF", version u32, count u32, H u32, W u32,
C u32, metadata hash u64) followed by the maps as row-major float32.
`write_qnvf` takes the maps as an iterable of blocks and their shape, so they
can be computed while the file is written and never all be held.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import data
from .qsim import Circuit, apply_circuit_batch

QNVF_MAGIC = b"QNVF"
QNVF_VERSION = 1
_QNVF_HEADER = struct.Struct("<4sIIIIIQ")

# side of a patch and the stride between patches; one qubit per pixel of a patch
PATCH = 2
N_QUBITS = PATCH * PATCH
# psi_a psi_b of one qubit, (cos, sin)(phi / 2) products, in the basis (1, cos phi, sin phi)
_HALF_ANGLE_PRODUCTS = 0.5 * np.array([[[1, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, -1, 0]]])
# Exact zeros come out of the contraction as rounding noise: at most 3.1e-16
# over seeds 0-299 of every kind, whose smallest real coefficient was 3.4e-4.
_STRUCTURAL_ZERO = 1e-12


def _compile_observables(circuit: Circuit) -> np.ndarray:
    """Re(U^dagger Z_q U) for every qubit q, shape (n, 2^n, 2^n).

    U is built column by column by the statevector kernel acting on the
    2^n basis states; qubit q is bit (n - 1 - q) of the basis index.
    """
    n = circuit.n_qubits
    dim = 2**n
    u = apply_circuit_batch(np.eye(dim, dtype=complex), circuit).T
    bits = (np.arange(dim)[None, :] >> (n - 1 - np.arange(n)[:, None])) & 1
    z = 1.0 - 2.0 * bits  # (n, 2^n) diagonals of Z_q
    return np.stack([(u.conj().T @ (z[q][:, None] * u)).real for q in range(n)])


def _compile_terms(circuit: Circuit) -> tuple:
    """Nonzero terms (channel, coefficient, factors), channel-major.

    A term is coefficient * prod (cos, sin)(pi x_i)[trig] over its factors
    (i, trig), trig 0 for cos and 1 for sin.
    """
    n = circuit.n_qubits
    coeffs = _compile_observables(circuit).reshape((n,) + (2,) * (2 * n))
    # one qubit at a time, so no intermediate outgrows the observables: its
    # bra and ket axes, the first of each remaining half, become one basis
    # axis appended after the earlier qubits' ones
    for i in range(n):
        coeffs = np.tensordot(coeffs, _HALF_ANGLE_PRODUCTS, axes=([1, 1 + n - i], [0, 1]))
    return tuple(
        (int(q), float(coeffs[(q, *t)]), tuple((i, b - 1) for i, b in enumerate(t) if b))
        for q, *t in np.argwhere(np.abs(coeffs) > _STRUCTURAL_ZERO)
    )


def _channel_pixels(terms: tuple) -> tuple | None:
    """The pixel each channel's terms read (its own index if they read
    none), or None if some channel's terms read more than one pixel."""
    read = [set() for _ in range(N_QUBITS)]
    for q, _coefficient, factors in terms:
        read[q].update(i for i, _t in factors)
    if any(len(pixels) > 1 for pixels in read):
        return None
    return tuple(pixels.pop() if pixels else q for q, pixels in enumerate(read))


@dataclass(frozen=True)
class QuanvConfig:
    """The 4-qubit filter circuit; ``terms`` and ``channel_pixels`` are
    compiled from it when the config is built, ``byte_table`` when first read."""

    circuit: Circuit
    terms: tuple = field(init=False, repr=False, compare=False)
    # pixel of a patch that channel q reads; None if some channel reads several
    channel_pixels: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.circuit.n_qubits != N_QUBITS:
            raise ValueError(f"the filter acts on {N_QUBITS} qubits, one per pixel of a "
                             f"{PATCH}x{PATCH} patch, got {self.circuit.n_qubits}")
        object.__setattr__(self, "terms", _compile_terms(self.circuit))
        object.__setattr__(self, "channel_pixels", _channel_pixels(self.terms))

    @functools.cached_property
    def byte_table(self) -> np.ndarray | None:
        """Channel q's feature when its pixel holds byte b, at [q, b], float64,
        shape (4, 256); None unless every channel reads one pixel.  Each entry
        is the float path's channel sum at ``data.pixels(b)``, so maps looked
        up here have the bits of the maps of the images' pixels."""
        if self.channel_pixels is None:
            return None
        patches = np.repeat(data.pixels(np.arange(256, dtype=np.uint8)), N_QUBITS)
        maps = contract(self, encode(patches.reshape(256, PATCH, PATCH, 1)))
        return maps[:, 0, 0].T.copy()


def output_shape(height: int, width: int) -> tuple[int, int, int]:
    if height < PATCH or width < PATCH:
        raise ValueError(f"image {height}x{width} smaller than a {PATCH}x{PATCH} patch")
    return (height // PATCH, width // PATCH, N_QUBITS)


def _trig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin)(pi x) of float pixels x."""
    phi = np.pi * x
    return np.cos(phi), np.sin(phi)


class Encoding(NamedTuple):
    """A batch's encoding, which any filter contracts: (N, H, W, 1) images, float64
    or uint8, feature maps shape, ``pixels[i]`` indexing pixel i of every patch in
    an (N, H, W) array, and ``trig[i]``, the (cos, sin)(pi x) of pixel i of every patch."""

    images: np.ndarray
    shape: tuple
    pixels: list
    trig: list


def _patched(images: np.ndarray) -> tuple[np.ndarray, tuple, list]:
    """Checked (N, H, W, 1) images, float64 or uint8, their maps' shape and ``pixels``."""
    images = np.asarray(images)
    if images.dtype.kind == "f":
        images = images.astype(float, copy=False)
    elif images.dtype != np.uint8:
        raise ValueError(f"{images.dtype} images are neither float pixels nor uint8 bytes; "
                         "data.pixels turns bytes into pixels")
    if images.ndim != 4 or images.shape[-1] != 1:
        raise ValueError(f"expected single-channel (N, H, W, 1) images, got {images.shape}")
    rows, cols, n = output_shape(images.shape[1], images.shape[2])
    pixels = [(slice(None), slice(a, PATCH * rows, PATCH), slice(b, PATCH * cols, PATCH))
              for a in range(PATCH) for b in range(PATCH)]
    return images, (len(images), rows, cols, n), pixels


def encode(images: np.ndarray) -> Encoding:
    """The encoding of (N, H, W, 1) images, float pixels or uint8 bytes as
    `quanvolve_dataset` reads them: the batch's (cos, sin) computed now, once,
    for any number of `contract` and `pullback` calls."""
    images, shape, pixels = _patched(images)
    cos, sin = _trig(data.pixels(images[..., 0]))
    return Encoding(images, shape, pixels, [(cos[p], sin[p]) for p in pixels])


def contract(cfg: QuanvConfig, encoding: Encoding, dtype=np.float64) -> np.ndarray:
    """Feature maps of the encoded images under ``cfg``'s filter, every term
    summed per channel in float64 and stored once, so float32 maps hold the
    same bits as the float64 maps cast as a whole."""
    out = np.zeros(encoding.shape, dtype)  # a channel without terms stays 0
    for q, terms in itertools.groupby(cfg.terms, key=operator.itemgetter(0)):
        channel = np.zeros(encoding.shape[:-1])
        for _q, coefficient, factors in terms:
            term = coefficient
            for i, t in factors:
                term = term * encoding.trig[i][t]
            channel += term
        out[..., q] = channel
    return out


def pullback(cfg: QuanvConfig, encoding: Encoding, upstream) -> np.ndarray:
    """d(sum(upstream[j] * features[j]))/d(images[j]) for the encoded images.
    Each pixel of a term of channel q gets upstream_q times the term with that
    pixel's factor differentiated, added through the view that read it."""
    images, shape, pixels, trig = encoding
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != shape:
        raise ValueError(
            f"upstream shape {upstream.shape} does not match feature maps shape {shape}"
        )
    grad = np.zeros(images.shape)  # float64 for byte images too
    dtrig = [(-np.pi * sin, np.pi * cos) for cos, sin in trig]
    for q, coefficient, factors in cfg.terms:
        weight = coefficient * upstream[..., q]
        for i, t in factors:
            partial = weight * dtrig[i][t]
            for j, tj in factors:
                if j != i:
                    partial = partial * trig[j][tj]
            grad[pixels[i] + (0,)] += partial
    return grad


def quanvolve_image(image: np.ndarray, cfg: QuanvConfig) -> np.ndarray:
    """Feature map of shape (H // 2, W // 2, 4) with <Z_q> channels of one
    (H, W, 1) image, float pixels or uint8 bytes as `quanvolve_dataset`
    reads them."""
    return quanvolve_dataset(np.asarray(image)[None], cfg)[0]


def quanvolve_dataset(images: np.ndarray, cfg: QuanvConfig, dtype=np.float64) -> np.ndarray:
    """Feature maps (N, H // 2, W // 2, 4) of (N, H, W, 1) images; order preserved.
    Float images are pixels; uint8 images are bytes and give, bit for bit, the
    maps of ``data.pixels(images)``, looked up in ``cfg.byte_table`` when it
    exists.  Computed in float64 and stored as ``dtype`` (float32 maps round
    as ``.astype(np.float32)`` would)."""
    images, shape, pixels = _patched(images)
    table = cfg.byte_table if images.dtype == np.uint8 else None
    if table is None:
        return contract(cfg, encode(images), dtype)
    out = np.empty(shape, dtype)
    for q, (i, features) in enumerate(zip(cfg.channel_pixels, table.astype(dtype, copy=False))):
        # a byte never wraps; unlike the default mode, "wrap" fills out unbuffered
        np.take(features, images[pixels[i] + (0,)], out=out[..., q], mode="wrap")
    return out


def input_gradient(images: np.ndarray, cfg: QuanvConfig, upstream: np.ndarray) -> np.ndarray:
    """Exact d(sum(upstream[j] * features[j]))/d(images[j]) for every image j,
    from (N, H, W, 1) images and (N, H // 2, W // 2, 4) upstream weights;
    pixels of an odd last row or column get 0.  Float64, for uint8 images
    too: the gradient at their pixels ``data.pixels(images)``, bit for bit."""
    return pullback(cfg, encode(images), upstream)


def write_qnvf(path, blocks, shape, meta_hash: int = 0) -> None:
    """Serialize the (N, H, W, C) maps of ``shape`` as a QNVF container at ``path``.

    ``blocks`` yields them in order as (n, H, W, C) blocks, each written as it
    comes (after the header, which declares ``shape``), so the whole maps need
    never exist.  The file is written under a temporary name in the same
    directory and renamed to ``path`` once complete: if anything fails,
    producing a block included, the temporary file is removed and a file
    already at ``path`` keeps its bytes.
    """
    if len(shape) != 4:
        raise ValueError(f"expected (N, H, W, C) maps, got shape {shape}")
    count, height, width, channels = shape
    header = _QNVF_HEADER.pack(
        QNVF_MAGIC, QNVF_VERSION, count, height, width, channels, meta_hash
    )
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as fh:
            fh.write(header)
            written = 0
            for block in blocks:
                block = np.ascontiguousarray(block, dtype="<f4")
                written += len(block)
                if block.shape[1:] != (height, width, channels) or written > count:
                    raise ValueError(f"block of shape {block.shape} does not fit maps of "
                                     f"shape {shape}")
                fh.write(block)  # the contiguous buffer itself, no bytes copy
        if written != count:
            raise ValueError(f"blocks hold {written} maps, the header declares {count}")
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def read_qnvf(path) -> tuple[np.ndarray, int]:
    """Read a QNVF container; returns (float32 maps, metadata hash)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _QNVF_HEADER.size:
        raise ValueError(f"{path}: truncated QNVF header")
    magic, version, count, height, width, channels, meta = _QNVF_HEADER.unpack_from(raw)
    if magic != QNVF_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != QNVF_VERSION:
        raise ValueError(f"{path}: unsupported QNVF version {version}")
    expected = count * height * width * channels * 4
    body = raw[_QNVF_HEADER.size :]
    if len(body) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    maps = np.frombuffer(body, dtype="<f4").reshape(count, height, width, channels)
    return maps.copy(), meta
