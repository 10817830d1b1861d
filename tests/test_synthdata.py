import hashlib

import numpy as np
import pytest

from quanvbench.synthdata import synthetic_dataset


@pytest.mark.parametrize("name", ["mnist", "fmnist"])
def test_shapes_and_ranges(name):
    ds = synthetic_dataset(name, 50, seed=3)
    assert ds.images.shape == (50, 28, 28, 1)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.shape == (50,)
    assert ds.name == name


def test_deterministic_per_seed():
    a = synthetic_dataset("mnist", 30, seed=11)
    b = synthetic_dataset("mnist", 30, seed=11)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    c = synthetic_dataset("mnist", 30, seed=12)
    assert not np.array_equal(a.images, c.images)


def test_all_ten_classes_appear():
    ds = synthetic_dataset("fmnist", 400, seed=1)
    assert set(np.unique(ds.labels)) == set(range(10))


def test_classes_are_visually_distinct():
    # same-class pairs should be closer than cross-class pairs on average
    ds = synthetic_dataset("mnist", 200, seed=5)
    flat = ds.images.reshape(len(ds), -1)
    same, cross = [], []
    for i in range(0, 60, 2):
        for j in range(i + 1, 60):
            d = float(np.linalg.norm(flat[i] - flat[j]))
            (same if ds.labels[i] == ds.labels[j] else cross).append(d)
    assert np.mean(same) < np.mean(cross)


def test_unknown_name_rejected():
    for name in ("cifar", "MNIST"):  # only the CLI lower-cases a name
        with pytest.raises(ValueError):
            synthetic_dataset(name, 10, seed=0)


@pytest.mark.parametrize("name, count, seed, digest", [
    ("mnist", 600, 7, "8c50395b8e0977a7a7a69366f81a8a4d"),
    ("fmnist", 600, 7, "4e8684d68d2d9f376453e02b7038adfd"),
    # 65 images cross a render-block boundary
    ("mnist", 65, 3, "7c73926058b10a1df61ba0893427a18f"),
    ("fmnist", 65, 3, "731ab1eb835bf939499dde7f16bbbe63"),
])
def test_corpus_bytes_are_pinned(name, count, seed, digest):
    ds = synthetic_dataset(name, count, seed)
    assert ds.images.dtype == np.float64
    assert ds.images.shape == (count, 28, 28, 1)
    pinned = hashlib.blake2b(ds.images.tobytes() + ds.labels.tobytes(), digest_size=16)
    assert pinned.hexdigest() == digest
