"""MNIST/FMNIST ingestion from IDX files and deterministic subset selection.

IDX is the classic big-endian container: images carry magic 0x00000803 and
dims (count, rows, cols), labels carry magic 0x00000801 and a count.
`load_idx` keeps the pool as the file's unsigned bytes, byte b standing for
pixel b / 255.

The benchmark trains on tiny stratified subsets (50 train / 30 test by
default), so `subset` balances classes to within one example per class and
keeps the splits disjoint and reproducible per seed.  A selection from a
byte pool stays bytes.  `pixels` is the one place a byte becomes a pixel,
by exact division by 255, so a caller converts only what it reads: a sweep
its whole selection.  `quanvbench quanvolve` hands its selection to the
quantum layer as bytes, one block of images at a time; that layer's cos/sin
tables hold the 256 pixels `pixels` makes of the 256 bytes, so a byte
still means what `pixels` says.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
N_CLASSES = 10


class IdxParseError(ValueError):
    """Base for IDX container problems."""


class IdxMagicError(IdxParseError):
    pass


class IdxTruncatedError(IdxParseError):
    pass


class IdxCountMismatchError(IdxParseError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Images (N, H, W, 1) with integer labels below 10.  Float pixels must
    be finite and in [0, 1]: this is the program's one check of input pixels.
    A uint8 pool, or a selection from one, holds raw IDX bytes, byte b
    meaning pixel b / 255: normalized by `pixels`, or quanvolved as bytes
    through tables built with `pixels`."""

    images: np.ndarray
    labels: np.ndarray
    name: str

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise IdxCountMismatchError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        labels = self.labels
        if labels.dtype.kind not in "iu" or len(labels) and not 0 <= labels.min() <= labels.max() < N_CLASSES:
            raise ValueError(f"labels must be integers in [0, {N_CLASSES}), got {labels.dtype}")
        images = self.images
        # every byte is a pixel in [0, 1]; min and max of float pixels are
        # NaN if any pixel is, which fails both comparisons
        if images.dtype != np.uint8 and len(images) and not (
                0.0 <= images.min() <= images.max() <= 1.0):
            raise ValueError("pixels must be finite and in [0, 1]")

    def __len__(self):
        return len(self.images)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """The next n bytes of fh; more than the file holds fails before reading."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise IdxTruncatedError(f"{path}: truncated while reading {what}")
    return fh.read(n)


def load_idx(images_path, labels_path, name: str = "mnist") -> Dataset:
    """Parse an IDX image/label file pair into a Dataset of its uint8 pixels."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, images_path, "image header")
        )
        if magic != IDX_IMAGE_MAGIC:
            raise IdxMagicError(f"{images_path}: bad image magic {magic:#010x}")
        raw = _read_exact(fh, count * rows * cols, images_path, "pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols, 1)

    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(
            ">II", _read_exact(fh, 8, labels_path, "label header")
        )
        if magic != IDX_LABEL_MAGIC:
            raise IdxMagicError(f"{labels_path}: bad label magic {magic:#010x}")
        raw = _read_exact(fh, label_count, labels_path, "label data")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise IdxCountMismatchError(
            f"{count} images in {images_path} vs {label_count} labels in {labels_path}"
        )
    return Dataset(pixels, labels, name)


def save_idx(ds: Dataset, images_path, labels_path) -> None:
    """Serialize to IDX: a uint8 pool as its bytes, float pixels rounded to
    the nearest byte (the exact inverse of `pixels`)."""
    count = len(ds)
    rows, cols = ds.images.shape[1], ds.images.shape[2]
    pixels = ds.images
    if pixels.dtype != np.uint8:
        pixels = np.rint(pixels * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
        fh.write(ds.labels.astype(np.uint8).tobytes())


def _class_quotas(n: int, rng: np.random.Generator) -> np.ndarray:
    """Split n across 10 classes with counts differing by at most one."""
    quotas = np.full(N_CLASSES, n // N_CLASSES)
    extras = rng.permutation(N_CLASSES)[: n % N_CLASSES]
    quotas[extras] += 1
    return quotas


def pixels(images: np.ndarray) -> np.ndarray:
    """Float pixels of ``images``: each byte b of a uint8 array becomes
    b / 255.0, in float64; float images are returned as they are."""
    return images / 255.0 if images.dtype == np.uint8 else images


def subset(ds: Dataset, n_train: int, n_test: int, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified, disjoint, seed-deterministic train/test subsets, holding
    the pool's images as they are (a uint8 pool's as bytes)."""
    if n_train < 0 or n_test < 0:
        raise ValueError(f"subset sizes must be >= 0, got {n_train} and {n_test}")
    if n_train + n_test > len(ds):
        raise ValueError(
            f"requested {n_train}+{n_test} examples from a {len(ds)}-image dataset"
        )
    rng = np.random.default_rng(seed)
    train_quota = _class_quotas(n_train, rng)
    test_quota = _class_quotas(n_test, rng)

    train_idx, test_idx = [], []
    for cls in range(N_CLASSES):
        pool = np.flatnonzero(ds.labels == cls)
        need = int(train_quota[cls] + test_quota[cls])
        if len(pool) < need:
            raise ValueError(
                f"class {cls} has {len(pool)} examples, need {need} for the split"
            )
        picked = rng.permutation(pool)[:need]
        train_idx.extend(picked[: train_quota[cls]])
        test_idx.extend(picked[train_quota[cls] :])

    train_idx = np.sort(np.asarray(train_idx, dtype=np.int64))
    test_idx = np.sort(np.asarray(test_idx, dtype=np.int64))
    return tuple(Dataset(ds.images[idx], ds.labels[idx], ds.name)
                 for idx in (train_idx, test_idx))
