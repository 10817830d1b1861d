"""Deterministic stand-in image corpora for offline runs.

The benchmark is designed for the real MNIST/FMNIST IDX files, but those
are not always available (no network, no local copies).  This module draws
seeded procedural look-alikes at 28x28: pixel-font digits for the MNIST
stand-in and code-drawn garment silhouettes for the FMNIST one, both with
per-image jitter (shift, thickness, intensity, noise) so that train/test
generalization is non-trivial.  The garment classes deliberately overlap
more than the digits do, mirroring the relative difficulty of the real
datasets.

Everything is a pure function of (name, count, seed); use data.save_idx to
materialize a corpus as IDX files for the CLI.  The generator first draws
all labels, then for each image in turn: `random` (dilate the glyph?), two
`integers` (row and column shift), for fmnist two more `integers` (the
occlusion's corner), `uniform` (intensity) and `normal(0, noise, (28, 28))`.
This order is the corpus's contract: images are rendered in blocks, and a
change to the order changes every corpus.
"""
from __future__ import annotations

import numpy as np

from .data import N_CLASSES, Dataset

_BLOCK = 64  # images rendered together; bounds the working set

_DIGIT_GLYPHS = [
    (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
]


def _glyph_mask(glyph) -> np.ndarray:
    return np.array([[c == "#" for c in row] for row in glyph], dtype=float)


def _garment_masks() -> list[np.ndarray]:
    """14x14 silhouettes for the ten garment classes.

    The top-wear classes (t-shirt, pullover, coat, shirt) deliberately share
    one torso template and differ only in small details, and the footwear
    classes share a low profile, mirroring the confusability that makes the
    real garment dataset much harder than the digits.
    """

    def torso():
        m = np.zeros((14, 14))
        m[3:12, 4:10] = 1
        m[3:7, 1:4] = 1
        m[3:7, 10:13] = 1
        return m

    def shoe():
        m = np.zeros((14, 14))
        m[8:12, 1:13] = 1
        return m

    shapes = []

    tshirt = torso()
    shapes.append(tshirt)

    trouser = np.zeros((14, 14))
    trouser[2:4, 4:10] = 1
    trouser[4:13, 4:6] = 1
    trouser[4:13, 8:10] = 1
    shapes.append(trouser)

    pullover = torso()
    pullover[7:11, 1:4] = 1  # long sleeves
    pullover[7:11, 10:13] = 1
    shapes.append(pullover)

    dress = np.zeros((14, 14))
    for r in range(2, 13):
        half = 1 + (r - 2) // 2
        dress[r, 7 - half : 7 + half] = 1
    shapes.append(dress)

    coat = torso()
    coat[7:12, 1:4] = 1
    coat[7:12, 10:13] = 1
    coat[3:12, 7] = 0  # open front
    shapes.append(coat)

    sandal = shoe()
    sandal[8:10, 3:5] = 0  # strap gaps
    sandal[8:10, 7:9] = 0
    shapes.append(sandal)

    shirt = torso()
    shirt[4:11:2, 7] = 0  # button line
    shapes.append(shirt)

    sneaker = shoe()
    sneaker[6:8, 1:8] = 1  # higher toe box
    shapes.append(sneaker)

    bag = np.zeros((14, 14))
    bag[5:12, 2:12] = 1
    bag[2:5, 5] = 1
    bag[2:5, 8] = 1
    bag[2, 5:9] = 1
    shapes.append(bag)

    boot = shoe()
    boot[2:9, 5:9] = 1  # shaft
    shapes.append(boot)

    return shapes


def _upscale(mask: np.ndarray, factor: int) -> np.ndarray:
    return np.kron(mask, np.ones((factor, factor)))


def _box_blur(imgs: np.ndarray) -> np.ndarray:
    """3x3 mean of each image in a (k, 28, 28) block, zero beyond the edge."""
    padded = np.pad(imgs, ((0, 0), (1, 1), (1, 1)), mode="constant")
    out = np.zeros_like(imgs)
    for di in range(3):
        for dj in range(3):
            out += padded[:, di : di + 28, dj : dj + 28]
    return out / 9.0


def _dilate(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1, mode="constant")
    out = img.copy()
    for di, dj in ((0, 1), (1, 0), (2, 1), (1, 2)):
        out = np.maximum(out, padded[di : di + img.shape[0], dj : dj + img.shape[1]])
    return out


def synthetic_dataset(name: str, count: int, seed: int) -> Dataset:
    """Seeded look-alike corpus; name is "mnist" (digits) or "fmnist"."""
    if name == "mnist":
        # digits are well-centered, like the centroid-normalized originals
        bases = [_upscale(_glyph_mask(g), 3) for g in _DIGIT_GLYPHS]
        noise, shift, blur_passes, occlusion = 0.03, 1, 1, 0
    elif name == "fmnist":
        bases = [_upscale(m, 2) for m in _garment_masks()]
        noise, shift, blur_passes, occlusion = 0.30, 3, 3, 9
    else:
        raise ValueError(f"unknown synthetic dataset {name!r}")
    if count < 1:
        raise ValueError(f"a synthetic corpus needs count >= 1 images, got {count}")
    glyphs = [(base, _dilate(base)) for base in bases]
    h, w = bases[0].shape

    rng = np.random.default_rng(seed)
    labels = rng.integers(0, N_CLASSES, size=count)
    images = np.empty((count, 28, 28))
    for start in range(0, count, _BLOCK):
        block_labels = labels[start : start + _BLOCK]
        k = len(block_labels)
        block = np.zeros((k, 28, 28))
        scales = np.empty((k, 1, 1))
        noises = np.empty((k, 28, 28))
        for i, label in enumerate(block_labels):
            glyph = glyphs[label][int(rng.random() < 0.5)]
            top = min(max((28 - h) // 2 + int(rng.integers(-shift, shift + 1)), 0), 28 - h)
            left = min(max((28 - w) // 2 + int(rng.integers(-shift, shift + 1)), 0), 28 - w)
            block[i, top : top + h, left : left + w] = glyph
            if occlusion > 0:
                top = int(rng.integers(0, 28 - occlusion))
                left = int(rng.integers(0, 28 - occlusion))
                block[i, top : top + occlusion, left : left + occlusion] = 0.0
            scales[i] = rng.uniform(0.8, 1.0)
            noises[i] = rng.normal(0.0, noise, (28, 28))
        for _ in range(blur_passes):
            block = _box_blur(block)
        np.clip(block * scales + noises, 0.0, 1.0, out=images[start : start + k])
    return Dataset(images[..., None], labels.astype(np.int64), name)
