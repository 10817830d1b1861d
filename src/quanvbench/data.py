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
its whole selection.  `load_idx` given a ``select`` reads the pixels of the
selected images only, so the CLI, which selects its IDX subsets this way,
never holds a whole image file.  `quanvbench quanvolve` hands its selection
to the quantum layer as bytes, one block of images at a time; that layer's
cos/sin tables hold the 256 pixels `pixels` makes of the 256 bytes, so a
byte still means what `pixels` says.
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
        _check_labels(self.labels)
        images = self.images
        # every byte is a pixel in [0, 1]; min and max of float pixels are
        # NaN if any pixel is, which fails both comparisons
        if images.dtype != np.uint8 and len(images) and not (
                0.0 <= images.min() <= images.max() <= 1.0):
            raise ValueError("pixels must be finite and in [0, 1]")

    def __len__(self):
        return len(self.images)


def _check_labels(labels: np.ndarray) -> None:
    if labels.dtype.kind not in "iu" or len(labels) and not 0 <= labels.min() <= labels.max() < N_CLASSES:
        raise ValueError(f"labels must be integers in [0, {N_CLASSES}), got {labels.dtype}")


def _check_remaining(fh, n: int, path, what: str) -> None:
    """Fail unless fh holds n more bytes."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise IdxTruncatedError(f"{path}: truncated while reading {what}")


def _read_exact(fh, n: int, path, what: str) -> bytes:
    """The next n bytes of fh; more than the file holds fails before reading."""
    _check_remaining(fh, n, path, what)
    return fh.read(n)


def _read_labels(labels_path) -> np.ndarray:
    with open(labels_path, "rb") as fh:
        magic, count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "label header"))
        if magic != IDX_LABEL_MAGIC:
            raise IdxMagicError(f"{labels_path}: bad label magic {magic:#010x}")
        raw = _read_exact(fh, count, labels_path, "label data")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


# images per read when load_idx reads a selection
_READ_CHUNK = 1024


def _read_rows(fh, indices: np.ndarray, size: int) -> np.ndarray:
    """Rows ``indices`` (sorted) of the size-byte rows that start at fh's
    position, read _READ_CHUNK rows at a time into one buffer; a chunk
    holding none of them is skipped."""
    start, rows = fh.tell(), np.empty((len(indices), size), np.uint8)
    chunk, lo = np.empty((_READ_CHUNK, size), np.uint8), 0
    while lo < len(indices):
        first = int(indices[lo]) // _READ_CHUNK * _READ_CHUNK
        hi = int(np.searchsorted(indices, first + _READ_CHUNK))
        fh.seek(start + first * size)
        fh.readinto(chunk[:int(indices[hi - 1]) - first + 1])
        rows[lo:hi] = chunk[indices[lo:hi] - first]
        lo = hi
    return rows


def load_idx(images_path, labels_path, name: str = "mnist", select=None) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset of its uint8 pixels.
    ``select(labels)``, if given, returns the increasing indices of the images to
    keep: the Dataset holds only those, and only their pixels are read."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, images_path, "image header")
        )
        if magic != IDX_IMAGE_MAGIC:
            raise IdxMagicError(f"{images_path}: bad image magic {magic:#010x}")
        _check_remaining(fh, count * rows * cols, images_path, "pixel data")
        labels = _read_labels(labels_path)
        if len(labels) != count:
            raise IdxCountMismatchError(
                f"{count} images in {images_path} vs {len(labels)} labels in {labels_path}"
            )
        _check_labels(labels)  # of the whole file, before any selection
        if select is None:
            pixels = np.frombuffer(fh.read(count * rows * cols), dtype=np.uint8)
        else:
            indices = np.asarray(select(labels))
            if len(indices) and not (0 <= indices[0] and indices[-1] < count
                                     and np.all(indices[1:] > indices[:-1])):
                raise ValueError("select must return increasing indices of images in the file")
            pixels, labels = _read_rows(fh, indices, rows * cols), labels[indices]
    return Dataset(pixels.reshape(-1, rows, cols, 1), labels, name)


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


def subset_indices(labels: np.ndarray, n_train: int, n_test: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted indices `subset` selects from a pool with these labels."""
    if n_train < 0 or n_test < 0:
        raise ValueError(f"subset sizes must be >= 0, got {n_train} and {n_test}")
    if n_train + n_test > len(labels):
        raise ValueError(
            f"requested {n_train}+{n_test} examples from a {len(labels)}-image dataset"
        )
    rng = np.random.default_rng(seed)
    train_quota = _class_quotas(n_train, rng)
    test_quota = _class_quotas(n_test, rng)

    train_idx, test_idx = [], []
    for cls in range(N_CLASSES):
        pool = np.flatnonzero(labels == cls)
        need = int(train_quota[cls] + test_quota[cls])
        if len(pool) < need:
            raise ValueError(
                f"class {cls} has {len(pool)} examples, need {need} for the split"
            )
        picked = rng.permutation(pool)[:need]
        train_idx.extend(picked[: train_quota[cls]])
        test_idx.extend(picked[train_quota[cls] :])

    return (np.sort(np.asarray(train_idx, dtype=np.int64)),
            np.sort(np.asarray(test_idx, dtype=np.int64)))


def subset(ds: Dataset, n_train: int, n_test: int, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified, disjoint, seed-deterministic train/test subsets, holding
    the pool's images as they are (a uint8 pool's as bytes)."""
    return tuple(Dataset(ds.images[idx], ds.labels[idx], ds.name)
                 for idx in subset_indices(ds.labels, n_train, n_test, seed))
