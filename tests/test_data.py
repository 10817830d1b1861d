import struct
import tracemalloc

import numpy as np
import pytest

from quanvbench import data
from quanvbench.data import (
    Dataset,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    load_idx,
    save_idx,
    subset,
    subset_indices,
)


@pytest.fixture
def sample_dataset(rng):
    images = rng.integers(0, 256, (120, 28, 28, 1)).astype(float) / 255.0
    labels = np.repeat(np.arange(10), 12)
    return Dataset(images, labels, "mnist")


@pytest.fixture
def idx_files(tmp_path, sample_dataset):
    ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
    save_idx(sample_dataset, ip, lp)
    return ip, lp


# ---------------------------------------------------------------------------
# load_idx / save_idx
# ---------------------------------------------------------------------------

def test_load_idx_round_trip(idx_files, sample_dataset, tmp_path):
    ds = load_idx(*idx_files)
    assert len(ds) == 120
    assert ds.images.shape == (120, 28, 28, 1)
    assert ds.images.dtype == np.uint8
    assert np.array_equal(ds.labels, sample_dataset.labels)
    # selecting every image, in order, gives the sample's float pixels
    everything, _ = subset(ds, 120, 0, seed=0)
    assert np.array_equal(everything.images, ds.images)
    assert data.pixels(everything.images).dtype == np.float64
    assert np.array_equal(data.pixels(everything.images), sample_dataset.images)

    # re-serializing yields identical bytes
    ip2, lp2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
    save_idx(ds, ip2, lp2)
    assert ip2.read_bytes() == idx_files[0].read_bytes()
    assert lp2.read_bytes() == idx_files[1].read_bytes()


def test_pixel_255_maps_to_exactly_one(tmp_path):
    ds = Dataset(np.ones((10, 2, 2, 1)), np.arange(10), "mnist")
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    save_idx(ds, ip, lp)
    loaded = load_idx(ip, lp)
    assert np.all(loaded.images == 255)
    selected, _ = subset(loaded, 10, 0, seed=0)
    assert np.all(data.pixels(selected.images) == 1.0)


@pytest.mark.parametrize("labels", [[0, 10], [-1, 0], [0.0, 1.0], [0.5, 1.0]])
def test_dataset_rejects_labels_that_are_not_classes(labels):
    with pytest.raises(ValueError, match="labels must be integers"):
        Dataset(np.zeros((2, 28, 28, 1)), np.array(labels), "mnist")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.01, 1.1])
def test_dataset_rejects_pixels_outside_the_unit_interval(bad):
    images = np.full((2, 28, 28, 1), 0.5)
    images[1, 3, 4, 0] = bad
    with pytest.raises(ValueError, match="pixels must be finite and in"):
        Dataset(images, np.array([0, 1]), "mnist")


def test_dataset_accepts_the_unit_interval_ends_and_no_images():
    images = np.zeros((2, 28, 28, 1))
    images[1] = 1.0
    Dataset(images, np.array([0, 1]), "mnist")
    Dataset(np.zeros((0, 28, 28, 1)), np.zeros(0, dtype=np.int64), "mnist")


def test_pixels_normalized_to_unit_interval(idx_files):
    for split in subset(load_idx(*idx_files), 50, 30, seed=0):
        assert split.images.dtype == np.uint8  # a selection stays bytes
        pixels = data.pixels(split.images)
        assert pixels.dtype == np.float64
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0


def test_pixels_divides_bytes_by_255_and_keeps_float_images(rng):
    images = rng.integers(0, 256, (3, 4, 4, 1), dtype=np.uint8)
    assert np.array_equal(data.pixels(images), images.astype(float) / 255.0)
    floats = rng.uniform(0, 1, (3, 4, 4, 1))
    assert data.pixels(floats) is floats


def test_save_idx_writes_a_uint8_pool_unchanged(tmp_path, rng):
    # bytes above 1 would wrap if they were read as pixels and scaled by 255
    pixels = rng.integers(0, 256, (20, 3, 4, 1), dtype=np.uint8)
    pixels[0, 0, 0, 0] = 255
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    save_idx(Dataset(pixels, np.arange(20) % 10, "mnist"), ip, lp)
    assert ip.read_bytes() == struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 20, 3, 4) + pixels.tobytes()
    assert np.array_equal(load_idx(ip, lp).images, pixels)


def test_only_the_selected_images_are_converted(tmp_path, rng):
    count, side = 2000, 28
    ip, lp = write_random_idx(tmp_path, rng, count, side)
    tracemalloc.start()
    try:
        pool = load_idx(ip, lp)
        train, test = subset(pool, 50, 30, seed=0)
        train_pixels, test_pixels = data.pixels(train.images), data.pixels(test.images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pool.images.dtype == train.images.dtype == test.images.dtype == np.uint8
    assert (len(train_pixels), len(test_pixels)) == (50, 30)
    assert train_pixels.dtype == test_pixels.dtype == np.float64
    # the float64 pool alone would be 8 bytes a pixel: 12.5 MB here
    assert peak < count * side * side * 8


def write_random_idx(tmp_path, rng, count, side=28):
    """An IDX pair of ``count`` random-byte images, labels cycling 0-9."""
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    ip.write_bytes(struct.pack(">IIII", data.IDX_IMAGE_MAGIC, count, side, side)
                   + rng.integers(0, 256, count * side * side, dtype=np.uint8).tobytes())
    lp.write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, count)
                   + (np.arange(count) % 10).astype(np.uint8).tobytes())
    return ip, lp


def select_train(n, seed):
    return lambda labels: subset_indices(labels, n, 0, seed)[0]


# 2,500 images span three of load_idx's read chunks; 7 touch a few of them
@pytest.mark.parametrize("n", [0, 7, 1030, 2500])
def test_load_idx_select_reads_what_subset_copies_out_of_the_pool(tmp_path, rng, n):
    ip, lp = write_random_idx(tmp_path, rng, 2500)
    expected, _ = subset(load_idx(ip, lp), n, 0, seed=4)
    selected = load_idx(ip, lp, select=select_train(n, seed=4))
    assert selected.images.dtype == np.uint8 and selected.images.shape == (n, 28, 28, 1)
    assert np.array_equal(selected.images, expected.images)
    assert np.array_equal(selected.labels, expected.labels)


def test_load_idx_select_holds_no_whole_file(tmp_path, rng):
    count = 5000  # 3.9 MB of pixels
    ip, lp = write_random_idx(tmp_path, rng, count)
    tracemalloc.start()
    try:
        selected = load_idx(ip, lp, select=select_train(10, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(selected) == 10
    # at most one read chunk of 1,024 images, 0.8 MB, is held at a time
    assert peak < count * 28 * 28 / 3


def test_load_idx_select_checks_the_labels_it_does_not_select(tmp_path, rng):
    ip, lp = write_random_idx(tmp_path, rng, 100)
    raw = bytearray(lp.read_bytes())
    raw[8 + 99] = 10  # the last label
    lp.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="labels must be integers"):
        load_idx(ip, lp, select=lambda labels: np.arange(10))


@pytest.mark.parametrize("indices", [[3, 1], [2, 2], [-1, 4], [0, 100]],
                         ids=["decreasing", "repeated", "negative", "past-the-end"])
def test_load_idx_select_rejects_indices_that_are_not_increasing_images(tmp_path, rng,
                                                                        indices):
    ip, lp = write_random_idx(tmp_path, rng, 100)
    with pytest.raises(ValueError, match="increasing indices"):
        load_idx(ip, lp, select=lambda labels: np.array(indices))


def test_load_idx_select_checks_the_pixel_data_size_before_selecting(tmp_path, rng):
    ip, lp = write_random_idx(tmp_path, rng, 100)
    ip.write_bytes(ip.read_bytes()[:-1])
    calls = []
    with pytest.raises(IdxTruncatedError, match="pixel data"):
        load_idx(ip, lp, select=calls.append)
    assert calls == []


def test_bad_image_magic(idx_files, tmp_path):
    ip, lp = idx_files
    corrupt = tmp_path / "bad.idx"
    raw = bytearray(ip.read_bytes())
    raw[3] = 0x99
    corrupt.write_bytes(bytes(raw))
    with pytest.raises(IdxMagicError):
        load_idx(corrupt, lp)


def test_bad_label_magic(idx_files, tmp_path):
    ip, lp = idx_files
    corrupt = tmp_path / "bad_labels.idx"
    raw = bytearray(lp.read_bytes())
    raw[3] = 0x42
    corrupt.write_bytes(bytes(raw))
    with pytest.raises(IdxMagicError):
        load_idx(ip, corrupt)


def test_truncated_file(idx_files, tmp_path):
    ip, lp = idx_files
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(ip.read_bytes()[:-100])
    with pytest.raises(IdxTruncatedError):
        load_idx(trunc, lp)


@pytest.mark.parametrize("claimed, what", [(0, "pixel data"), (1, "label data")])
def test_header_claiming_more_than_the_file_holds(idx_files, tmp_path, claimed, what):
    # a count of 2^32 - 1: 28x28 images would be a 3.4 TB read, rejected before reading
    paths = list(idx_files)
    raw = bytearray(paths[claimed].read_bytes())
    struct.pack_into(">I", raw, 4, 2**32 - 1)
    paths[claimed] = tmp_path / "claims_more.idx"
    paths[claimed].write_bytes(bytes(raw))
    with pytest.raises(IdxTruncatedError, match=what):
        load_idx(*paths)


def test_count_mismatch(idx_files, tmp_path, sample_dataset):
    ip, _ = idx_files
    short = Dataset(sample_dataset.images[:50], sample_dataset.labels[:50], "mnist")
    ip2, lp2 = tmp_path / "i2.idx", tmp_path / "l2.idx"
    save_idx(short, ip2, lp2)
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp2)


# ---------------------------------------------------------------------------
# subset
# ---------------------------------------------------------------------------

def test_subset_stratified_50_30(sample_dataset):
    train, test = subset(sample_dataset, 50, 30, seed=3)
    assert len(train) == 50 and len(test) == 30
    for cls in range(10):
        assert np.sum(train.labels == cls) == 5
        assert np.sum(test.labels == cls) == 3


def test_subset_uneven_counts_differ_by_at_most_one(sample_dataset):
    train, test = subset(sample_dataset, 47, 23, seed=5)
    tr_counts = np.bincount(train.labels, minlength=10)
    te_counts = np.bincount(test.labels, minlength=10)
    assert set(tr_counts) <= {4, 5} and tr_counts.sum() == 47
    assert set(te_counts) <= {2, 3} and te_counts.sum() == 23


def test_subset_deterministic(sample_dataset):
    t1, s1 = subset(sample_dataset, 50, 30, seed=9)
    t2, s2 = subset(sample_dataset, 50, 30, seed=9)
    assert np.array_equal(t1.images, t2.images)
    assert np.array_equal(s1.images, s2.images)
    t3, _ = subset(sample_dataset, 50, 30, seed=10)
    assert not np.array_equal(t1.images, t3.images)


def test_subset_disjoint(sample_dataset):
    train, test = subset(sample_dataset, 50, 30, seed=1)
    train_keys = {img.tobytes() for img in train.images}
    test_keys = {img.tobytes() for img in test.images}
    assert not (train_keys & test_keys)


def test_subset_insufficient_class_examples(rng):
    images = rng.uniform(0, 1, (20, 28, 28, 1))
    labels = np.array([0] * 19 + [1])  # class 1 has a single example
    ds = Dataset(images, labels, "mnist")
    with pytest.raises(ValueError):
        subset(ds, 10, 8, seed=0)


def test_subset_too_large(sample_dataset):
    with pytest.raises(ValueError):
        subset(sample_dataset, 100, 30, seed=0)


def test_subset_empty_test_split(sample_dataset):
    train, test = subset(sample_dataset, 30, 0, seed=0)
    assert len(train) == 30 and len(test) == 0


@pytest.mark.parametrize("n_train, n_test", [(-5, 20), (20, -1)])
def test_subset_rejects_negative_sizes(sample_dataset, n_train, n_test):
    with pytest.raises(ValueError, match=">= 0"):
        subset(sample_dataset, n_train, n_test, seed=0)
