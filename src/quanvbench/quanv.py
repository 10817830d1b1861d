"""Quanvolutional layer: the frozen filter compiled into per-qubit observables.

Images are (H, W, C) float arrays, row-major.  A kernel_size x kernel_size
patch is flattened row-major and pixel i drives qubit i through an angle
encoding phi_i = pi * x_i applied as R_y(phi_i) to |0>.  That encoding is a
real product state psi = (x)_i (cos, sin)(phi_i / 2).  Channel q of the
output pixel is the exact expectation <Z_q> after the filter circuit U,

    <Z_q> = psi^T M_q psi,    M_q = Re(U^dagger Z_q U),

so the frozen circuit is compiled once, per QuanvConfig, into n real
symmetric 2^n x 2^n observables (the imaginary part of U^dagger Z_q U is
antisymmetric and vanishes on real states).  Feature maps take values in
[-1, 1] and have kernel_size^2 channels.

Each pixel enters a feature as a degree-1 trigonometric polynomial in pi*x,
so features are 2-periodic in every pixel.  Exact input gradients come from
the same quadratic form: d<Z_q>/dx_i = 2 (d_i psi)^T M_q psi, where d_i psi
swaps qubit i's factor for its derivative.

Raw inputs live in [0, 1] and are range-checked by default (NaN fails the
check).  Adversarially perturbed images may leave that interval when attack
clamping is disabled; callers quanvolving such data pass ``validate=False``
(the encoding itself is defined for any real value).

Feature maps can be cached on disk in the QNVF container: little-endian
header (magic "QNVF", version u32, count u32, H u32, W u32, C u32, metadata
hash u64) followed by the maps as row-major float32.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .qsim import Circuit, apply_circuit_batch

QNVF_MAGIC = b"QNVF"
QNVF_VERSION = 1
_QNVF_HEADER = struct.Struct("<4sIIIIIQ")

# compiled observables hold n * 4^n floats: 9 qubits (3x3 kernels) is 19 MB
MAX_QUBITS = 9
# images per block of input_gradient: bounds its (images * patches, 2^n) temporaries
_GRADIENT_GROUP = 8


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


@dataclass(frozen=True)
class QuanvConfig:
    """Filter circuit plus patch geometry; kernel_size^2 must equal n_qubits.

    ``observables`` is derived from the circuit when the config is built.
    """

    circuit: Circuit
    kernel_size: int = 2
    stride: int = 2
    observables: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {self.kernel_size}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.kernel_size**2 != self.circuit.n_qubits:
            raise ValueError(
                f"kernel_size^2 = {self.kernel_size**2} must equal circuit qubit "
                f"count {self.circuit.n_qubits}"
            )
        if self.circuit.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"{self.circuit.n_qubits} qubits exceed the {MAX_QUBITS}-qubit limit"
            )
        object.__setattr__(self, "observables", _compile_observables(self.circuit))


def output_shape(height: int, width: int, cfg: QuanvConfig) -> tuple[int, int, int]:
    k, s = cfg.kernel_size, cfg.stride
    if height < k or width < k:
        raise ValueError(f"image {height}x{width} smaller than kernel {k}")
    return ((height - k) // s + 1, (width - k) // s + 1, k * k)


def _patch_factors(images: np.ndarray, cfg: QuanvConfig) -> np.ndarray:
    """(cos, sin)(pi x / 2) of every pixel of every patch: (N, H, W, 1) -> (N*P, k*k, 2).

    Patches are taken image by image, row-major over the output grid, pixels
    row-major within a patch.
    """
    k, s = cfg.kernel_size, cfg.stride
    windows = np.lib.stride_tricks.sliding_window_view(
        images[..., 0], (k, k), axis=(1, 2))[:, ::s, ::s]
    half = np.pi * windows.reshape(-1, k * k) / 2.0
    return np.stack([np.cos(half), np.sin(half)], axis=-1)


def _product_states(factors: np.ndarray) -> np.ndarray:
    """Per-qubit real 2-vectors (P, n, 2) -> product states (P, 2^n), qubit 0 first."""
    amps = factors[:, 0]
    for i in range(1, factors.shape[1]):
        amps = (amps[:, :, None] * factors[:, i, None, :]).reshape(len(factors), -1)
    return amps


def _check_image(image: np.ndarray, validate: bool, batch: bool = False) -> np.ndarray:
    image = np.asarray(image, dtype=float)
    if image.ndim != 3 + batch or image.shape[-1] != 1:
        layout = "(N, H, W, 1) images" if batch else "(H, W, 1) image"
        raise ValueError(f"expected single-channel {layout}, got {image.shape}")
    if validate and not np.all((image >= 0.0) & (image <= 1.0)):
        raise ValueError("image values must lie in [0, 1]")
    return image


def quanvolve_image(
    image: np.ndarray, cfg: QuanvConfig, validate: bool = True
) -> np.ndarray:
    """Feature map of shape ((H-k)//s+1, (W-k)//s+1, k^2) with <Z_q> channels."""
    image = _check_image(image, validate)
    rows, cols, n = output_shape(image.shape[0], image.shape[1], cfg)
    psi = _product_states(_patch_factors(image[None], cfg))
    # psi @ M_q is (M_q psi)^T because M_q is symmetric: shape (n, P, 2^n)
    features = np.sum((psi @ cfg.observables) * psi, axis=-1).T
    return features.reshape(rows, cols, n)


def quanvolve_dataset(
    images: np.ndarray, cfg: QuanvConfig, validate: bool = True
) -> np.ndarray:
    """Quanvolve every image; order preserved."""
    out = [quanvolve_image(img, cfg, validate) for img in images]
    if not out:
        rows, cols, n = 0, 0, cfg.kernel_size**2
        return np.zeros((0, rows, cols, n))
    return np.stack(out)


def input_gradient(
    images: np.ndarray,
    cfg: QuanvConfig,
    upstream: np.ndarray,
    validate: bool = True,
) -> np.ndarray:
    """Exact d(sum(upstream[j] * features[j]))/d(images[j]) for every image j.

    Takes (N, H, W, 1) images and (N, rows, cols, n) upstream weights.  For
    a patch with state psi and upstream weights u_q, pixel i gets
    2 (d_i psi)^T (sum_q u_q M_q) psi.  Patch gradients are accumulated into
    their source pixels; pixels outside every patch get 0.
    """
    images = _check_image(images, validate, batch=True)
    rows, cols, n = output_shape(images.shape[1], images.shape[2], cfg)
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (len(images), rows, cols, n):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match feature maps "
            f"shape {(len(images), rows, cols, n)}"
        )

    grad = np.zeros_like(images)
    k, s = cfg.kernel_size, cfg.stride
    for start in range(0, len(images), _GRADIENT_GROUP):
        group = slice(start, start + _GRADIENT_GROUP)
        factors = _patch_factors(images[group], cfg)
        psi = _product_states(factors)
        u = upstream[group].reshape(-1, n)
        # (sum_q u_q M_q) psi per patch, one q at a time: shape (G*P, 2^n)
        weighted = u[:, 0, None] * (psi @ cfg.observables[0])
        for q in range(1, n):
            weighted += u[:, q, None] * (psi @ cfg.observables[q])
        # d/dx (cos, sin)(pi x / 2) = (pi / 2) (-sin, cos)
        derivs = (np.pi / 2.0) * np.stack([-factors[..., 1], factors[..., 0]], axis=-1)
        patch_grad = np.empty((len(psi), n))
        for i in range(n):
            swapped = factors.copy()
            swapped[:, i] = derivs[:, i]
            patch_grad[:, i] = 2.0 * np.sum(_product_states(swapped) * weighted, axis=1)

        pg = patch_grad.reshape(-1, rows, cols, k, k)
        for a in range(k):
            for b in range(k):
                grad[group, a : a + s * rows : s, b : b + s * cols : s, 0] += pg[..., a, b]
    return grad


def write_qnvf(path, maps: np.ndarray, meta_hash: int = 0) -> None:
    """Serialize feature maps (N, H, W, C) as a QNVF container."""
    maps = np.asarray(maps)
    if maps.ndim != 4:
        raise ValueError(f"expected (N, H, W, C) maps, got shape {maps.shape}")
    count, height, width, channels = maps.shape
    header = _QNVF_HEADER.pack(
        QNVF_MAGIC, QNVF_VERSION, count, height, width, channels, meta_hash
    )
    data = np.ascontiguousarray(maps, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


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
