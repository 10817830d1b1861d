import numpy as np
import pytest

from quanvbench import data, qsim, quanv
from quanvbench.ansatz import AnsatzKind, build_ansatz
from quanvbench.quanv import QuanvConfig, input_gradient, quanvolve_dataset, quanvolve_image


def identity_cfg():
    return QuanvConfig(circuit=qsim.Circuit(4))


def ansatz_cfg(kind, seed=31):
    return QuanvConfig(circuit=build_ansatz(kind, seed=seed))


# ---------------------------------------------------------------------------
# angle encoding R_y(pi * x)|0>, seen through the features
# ---------------------------------------------------------------------------

def patch_image(values):
    return np.asarray(values, dtype=float).reshape(2, 2, 1)


def test_encode_all_zeros():
    out = quanvolve_image(patch_image([0, 0, 0, 0]), identity_cfg())
    assert np.allclose(out, 1.0, atol=1e-12)  # |0000>


def test_encode_all_ones():
    out = quanvolve_image(patch_image([1, 1, 1, 1]), identity_cfg())
    assert np.allclose(out, -1.0, atol=1e-12)  # |1111>


def test_encode_half_pixel():
    out = quanvolve_image(patch_image([0.5, 0, 0, 0]), identity_cfg())[0, 0]
    assert abs(out[0]) < 1e-10
    assert np.allclose(out[1:], 1.0, atol=1e-10)


def test_encode_matches_gate_application(rng):
    # encoding the patch == running R_y(pi x_q) gates on |0000> before the filter
    patch = rng.uniform(0, 1, 4)
    filt = build_ansatz(AnsatzKind.ZZ_FULL, seed=5)
    encode = tuple(qsim.ry(q, np.pi * x) for q, x in enumerate(patch))
    via_gates = QuanvConfig(circuit=qsim.Circuit(4, encode + filt.gates))
    assert np.allclose(
        quanvolve_image(patch_image(patch), QuanvConfig(circuit=filt)),
        quanvolve_image(patch_image([0, 0, 0, 0]), via_gates),
        atol=1e-12,
    )


def test_encode_unchecked_accepts_out_of_range():
    out = quanvolve_image(patch_image([2.0, 0, 0, 0]), identity_cfg())
    assert np.allclose(out, 1.0, atol=1e-12)  # R_y(2 pi) = -I


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_features_are_2_periodic_in_every_pixel(kind, rng):
    # each pixel enters as a degree-1 trigonometric polynomial in pi * x
    cfg = ansatz_cfg(kind)
    img = rng.uniform(0, 1, (6, 6, 1))
    shift = 2.0 * rng.integers(-3, 4, img.shape)
    assert np.max(np.abs(
        quanvolve_image(img + shift, cfg) - quanvolve_image(img, cfg)
    )) <= 1e-12


PRODUCT_KINDS = [k for k in AnsatzKind if k is not AnsatzKind.RANDOM]


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_features_flip_sign_under_a_unit_shift(kind, rng):
    # pi * (x + 1) negates (cos, sin)(pi x), and a product filter's channels
    # are degree-1 in them: quanvolve(x + 1) == -quanvolve(x)
    img = rng.uniform(0, 1, (6, 6, 1))
    for seed in range(20):
        cfg = ansatz_cfg(kind, seed=seed)
        assert np.max(np.abs(
            quanvolve_image(img + 1.0, cfg) + quanvolve_image(img, cfg)
        )) <= 1e-12


def test_random_filter_breaks_the_unit_shift_law(rng):
    # products of two pixels' factors keep their sign under x -> x + 1
    img = rng.uniform(0, 1, (6, 6, 1))
    worst = max(
        np.max(np.abs(quanvolve_image(img + 1.0, cfg) + quanvolve_image(img, cfg)))
        for cfg in (ansatz_cfg(AnsatzKind.RANDOM, seed=seed) for seed in range(20))
    )
    assert worst > 0.5


@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_product_filter_channels_are_sinusoids_of_their_own_pixel(kind):
    own_pixel = [(q, ((q, t),)) for q in range(4) for t in (0, 1)]  # cos, then sin
    for seed in range(20):
        terms = ansatz_cfg(kind, seed=seed).terms
        assert [(q, factors) for q, _, factors in terms] == own_pixel


def test_terms_are_derived_from_the_circuit(rng):
    circuit = build_ansatz(AnsatzKind.ZZ_STAR, seed=3)
    a, b = QuanvConfig(circuit=circuit), QuanvConfig(circuit=circuit)
    assert "terms" not in repr(a)
    assert a == b and hash(a) == hash(b)
    # the terms reproduce psi^T M_q psi of the compiled observables
    patch = rng.uniform(0, 1, 4)
    psi = np.ones(1)
    for x in patch:
        psi = np.kron(psi, [np.cos(np.pi * x / 2), np.sin(np.pi * x / 2)])
    for kind in AnsatzKind:
        cfg = ansatz_cfg(kind)
        observables = quanv._compile_observables(cfg.circuit)
        assert np.allclose(quanvolve_image(patch_image(patch), cfg)[0, 0],
                           [psi @ m @ psi for m in observables], atol=1e-12)


# ---------------------------------------------------------------------------
# quanvolve_image
# ---------------------------------------------------------------------------

def test_shape_28x28_to_14x14x4(rng):
    img = rng.uniform(0, 1, (28, 28, 1))
    out = quanvolve_image(img, identity_cfg())
    assert out.shape == (14, 14, 4)


def test_all_zero_image_identity_circuit_gives_ones():
    out = quanvolve_image(np.zeros((6, 6, 1)), identity_cfg())
    assert np.allclose(out, 1.0, atol=1e-12)


def test_single_patch_matches_manual_composition(rng):
    img = rng.uniform(0, 1, (2, 2, 1))
    cfg = ansatz_cfg(AnsatzKind.ZZ_FULL)
    out = quanvolve_image(img, cfg)
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    encode = tuple(qsim.ry(q, np.pi * x) for q, x in enumerate(img.reshape(-1)))
    state = qsim.apply_circuit_batch(amps, qsim.Circuit(4, encode + cfg.circuit.gates))
    probs = (np.abs(state) ** 2).reshape(2, 2, 2, 2)
    manual = [
        probs.take(0, axis=q).sum() - probs.take(1, axis=q).sum() for q in range(4)
    ]
    assert np.allclose(out[0, 0], manual, atol=1e-12)


def test_rejects_multichannel_input(rng):
    with pytest.raises(ValueError):
        quanvolve_image(rng.uniform(0, 1, (6, 6, 2)), identity_cfg())


@pytest.mark.parametrize(
    "h,w,expected",
    [
        (28, 28, (14, 14, 4)),
        (7, 7, (3, 3, 4)),
        (6, 8, (3, 4, 4)),
        (9, 9, (4, 4, 4)),
        (10, 7, (5, 3, 4)),
    ],
)
def test_shape_law(h, w, expected, rng):
    out = quanvolve_image(rng.uniform(0, 1, (h, w, 1)), identity_cfg())
    assert out.shape == expected
    assert quanv.output_shape(h, w) == expected


@pytest.mark.parametrize("h,w", [(1, 5), (5, 1), (1, 1)])
def test_images_smaller_than_a_patch_are_rejected(h, w, rng):
    with pytest.raises(ValueError, match="smaller than a 2x2 patch"):
        quanv.output_shape(h, w)
    with pytest.raises(ValueError, match="smaller than a 2x2 patch"):
        quanvolve_image(rng.uniform(0, 1, (h, w, 1)), identity_cfg())


def test_feature_values_in_unit_interval(rng):
    cfg = ansatz_cfg(AnsatzKind.RANDOM)
    out = quanvolve_image(rng.uniform(0, 1, (8, 8, 1)), cfg)
    assert np.all(out >= -1 - 1e-12) and np.all(out <= 1 + 1e-12)


def test_locality_one_pixel_touches_one_output_cell(rng):
    cfg = ansatz_cfg(AnsatzKind.ZZ_STAR)
    img = rng.uniform(0.1, 0.9, (8, 8, 1))
    base = quanvolve_image(img, cfg)
    bumped = img.copy()
    bumped[3, 5, 0] += 0.05
    delta = np.abs(quanvolve_image(bumped, cfg) - base).sum(axis=2)
    assert np.count_nonzero(delta > 1e-12) == 1
    assert delta[1, 2] > 0  # patch row 3//2, col 5//2


def test_config_validation():
    # one qubit per pixel of a 2x2 patch
    for n in (1, 3, 5, 9):
        with pytest.raises(ValueError, match="4 qubits"):
            QuanvConfig(circuit=qsim.Circuit(n))


# ---------------------------------------------------------------------------
# quanvolve_dataset
# ---------------------------------------------------------------------------

def test_dataset_empty():
    out = quanvolve_dataset(np.zeros((0, 6, 6, 1)), identity_cfg())
    assert len(out) == 0


def test_dataset_order_preserved(rng):
    # the images span two internal blocks, the last one partial
    count = quanv.BLOCK + 3
    imgs = rng.uniform(0, 1, (count, 6, 6, 1))
    cfg = ansatz_cfg(AnsatzKind.RANDOM)
    batch = quanvolve_dataset(imgs, cfg)
    assert batch.shape == (count, 3, 3, 4)
    for i, img in enumerate(imgs):
        assert np.array_equal(batch[i], quanvolve_image(img, cfg))


def summed_terms(images, cfg):
    """Every compiled term of channel q added in order into one float64 array
    of the whole batch, the evaluation quanvolve_dataset blocks."""
    rows, cols = images.shape[1] // 2, images.shape[2] // 2
    trig = (np.cos(np.pi * images[..., 0]), np.sin(np.pi * images[..., 0]))
    pixels = [(slice(None), slice(a, a + 2 * rows, 2), slice(b, b + 2 * cols, 2))
              for a in range(2) for b in range(2)]
    maps = np.zeros((len(images), rows, cols, 4))
    for q, coefficient, factors in cfg.terms:
        term = coefficient
        for i, t in factors:
            term = term * trig[t][pixels[i]]
        maps[..., q] += term
    return maps


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_float32_maps_hold_the_float64_maps_rounded(kind, rng):
    # 130 images: two full blocks and a partial third
    imgs = rng.uniform(0, 1, (2 * quanv.BLOCK + 2, 28, 28, 1))
    cfg = ansatz_cfg(kind)
    maps = quanvolve_dataset(imgs, cfg)
    assert maps.dtype == np.float64
    assert np.array_equal(maps.view(np.uint64), summed_terms(imgs, cfg).view(np.uint64))
    out = quanvolve_dataset(imgs, cfg, np.float32)
    assert out.dtype == np.float32 and out.shape == maps.shape
    assert np.array_equal(out.view(np.uint32), maps.astype(np.float32).view(np.uint32))


@pytest.mark.parametrize("pixel_type", ["float", "uint8"])
def test_a_channel_without_terms_is_zero(pixel_type, rng):
    # R_x(pi/2) turns Z_0 into -Y_0, whose real part is 0: channel 0 has no terms
    cfg = QuanvConfig(circuit=qsim.Circuit(4, (qsim.rx(0, np.pi / 2),)))
    assert {q for q, _, _ in cfg.terms} == {1, 2, 3}
    imgs = rng.integers(0, 256, (3, 6, 6, 1), dtype=np.uint8)
    if pixel_type == "float":
        imgs = rng.uniform(0, 1, imgs.shape)
    out = quanvolve_dataset(imgs, cfg, np.float32)
    maps = quanvolve_dataset(imgs, cfg)
    assert np.all(maps[..., 0] == 0) and np.all(out[..., 0] == 0)
    assert np.array_equal(out, maps.astype(np.float32))
    assert maps.tobytes() == quanvolve_dataset(data.pixels(imgs), cfg).tobytes()


# ---------------------------------------------------------------------------
# byte images: each byte read as its pixel data.pixels(b) through a table
# ---------------------------------------------------------------------------

BATCH_SIZES = [1, quanv.BLOCK - 1, quanv.BLOCK, quanv.BLOCK + 1, 2 * quanv.BLOCK + 2]


def byte_images(count):
    """(count, 32, 32, 1) uint8 images, each holding all 256 bytes at each of
    the 4 positions of a 2x2 patch, arranged differently in every image."""
    patch = np.arange(256).reshape(16, 16)  # one byte per patch of a 32x32 image
    images = np.empty((count, 32, 32, 1), np.uint8)
    for j in range(count):
        for a in range(2):
            for b in range(2):
                images[j, a::2, b::2, 0] = (patch + 64 * (2 * a + b) + 37 * j) % 256
    return images


def test_byte_images_hold_every_byte_at_every_patch_position():
    for image in byte_images(3)[..., 0]:
        for a in range(2):
            for b in range(2):
                assert sorted(image[a::2, b::2].ravel()) == list(range(256))


@pytest.mark.parametrize("out_dtype", [np.float64, np.float32])
@pytest.mark.parametrize("count", BATCH_SIZES)
@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_byte_images_give_the_maps_of_their_pixels_bit_for_bit(kind, count, out_dtype):
    cfg = ansatz_cfg(kind)
    images = byte_images(count)
    expected = quanvolve_dataset(data.pixels(images), cfg, out_dtype)
    out = quanvolve_dataset(images, cfg, out_dtype)
    assert out.dtype == out_dtype and out.shape == (count, 16, 16, 4)
    assert out.tobytes() == expected.tobytes()
    if out_dtype is np.float64:
        assert quanvolve_dataset(images, cfg).tobytes() == expected.tobytes()


@pytest.mark.parametrize("count", [1, quanv.BLOCK + 1, 2 * quanv.BLOCK + 2])
@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_byte_images_give_the_float64_gradients_of_their_pixels(kind, count, rng):
    cfg = ansatz_cfg(kind)
    images = byte_images(count)
    upstream = rng.normal(size=(count, 16, 16, 4))
    expected = input_gradient(data.pixels(images), cfg, upstream)
    grad = input_gradient(images, cfg, upstream)
    assert grad.dtype == np.float64 and grad.tobytes() == expected.tobytes()
    encoding = quanv.encode(images)
    features = quanv.contract(cfg, encoding)
    assert features.tobytes() == quanvolve_dataset(data.pixels(images), cfg).tobytes()
    grad = quanv.pullback(cfg, encoding, upstream)
    assert grad.dtype == np.float64 and grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("h,w", [(7, 9), (9, 6), (3, 3)])
@pytest.mark.parametrize("kind", [AnsatzKind.RANDOM, AnsatzKind.ZZ_FULL])  # terms, table
def test_odd_sized_byte_images_give_the_maps_and_gradients_of_their_pixels(kind, h, w, rng):
    cfg = ansatz_cfg(kind)
    images = rng.integers(0, 256, (quanv.BLOCK + 1, h, w, 1), dtype=np.uint8)
    pixels = data.pixels(images)
    maps = quanvolve_dataset(images, cfg)
    assert maps.shape == (len(images), *quanv.output_shape(h, w))
    assert maps.tobytes() == quanvolve_dataset(pixels, cfg).tobytes()
    upstream = rng.normal(size=maps.shape)
    grad = input_gradient(images, cfg, upstream)
    assert grad.tobytes() == input_gradient(pixels, cfg, upstream).tobytes()
    assert np.all(grad[:, h - 1] == 0) and np.all(grad[:, :, w - w % 2 :] == 0)


def test_quanvolve_image_reads_a_byte_image_as_its_pixels():
    cfg = ansatz_cfg(AnsatzKind.ZZ_STAR)
    image = byte_images(1)[0]
    assert quanvolve_image(image, cfg).tobytes() == \
        quanvolve_image(data.pixels(image), cfg).tobytes()
    assert np.all(quanvolve_image(np.full((2, 2, 1), 255, np.uint8), identity_cfg()) == -1.0)


@pytest.mark.parametrize("seed", [0, 7, 31])
@pytest.mark.parametrize("kind", PRODUCT_KINDS)
def test_every_rotation_filter_has_a_byte_table(kind, seed):
    cfg = ansatz_cfg(kind, seed)
    assert cfg.channel_pixels == (0, 1, 2, 3)
    assert cfg.byte_table.shape == (4, 256) and cfg.byte_table.dtype == np.float64


def test_a_filter_mixing_pixels_in_a_channel_has_no_byte_table():
    cfg = ansatz_cfg(AnsatzKind.RANDOM, seed=0)
    read = [set() for _ in range(4)]  # the pixels each channel's terms read
    for q, _coefficient, factors in cfg.terms:
        read[q].update(i for i, _t in factors)
    assert max(map(len, read)) >= 2
    assert cfg.channel_pixels is None and cfg.byte_table is None


def test_the_byte_table_is_built_once_and_only_for_bytes(rng, monkeypatch):
    cfg = ansatz_cfg(AnsatzKind.ZZ_FULL)
    quanvolve_dataset(rng.uniform(0, 1, (3, 6, 6, 1)), cfg)
    assert "byte_table" not in vars(cfg)  # building and float pixels leave it unbuilt
    calls, summed_terms = [], quanv._summed_terms

    def counted(*args):
        calls.append(args)
        return summed_terms(*args)

    monkeypatch.setattr(quanv, "_summed_terms", counted)
    for _block in range(3):
        quanvolve_dataset(rng.integers(0, 256, (quanv.BLOCK, 6, 6, 1), dtype=np.uint8), cfg,
                          np.float32)
    assert len(calls) == 1 and vars(cfg)["byte_table"] is cfg.byte_table


def test_bytes_under_a_table_evaluate_no_cos_or_sin(rng, monkeypatch):
    def forbidden(_x):
        raise AssertionError("(cos, sin) evaluated")

    images = rng.integers(0, 256, (quanv.BLOCK + 1, 6, 6, 1), dtype=np.uint8)
    cfg = ansatz_cfg(AnsatzKind.ZZ_FULL)
    expected = quanvolve_dataset(data.pixels(images), cfg)
    assert cfg.byte_table is not None  # built before cos and sin are forbidden
    monkeypatch.setattr(quanv, "_trig", forbidden)
    assert quanvolve_dataset(images, cfg).tobytes() == expected.tobytes()
    with pytest.raises(AssertionError, match="evaluated"):
        quanvolve_dataset(images, ansatz_cfg(AnsatzKind.RANDOM))


@pytest.mark.parametrize("count", [1, quanv.BLOCK + 1, 2 * quanv.BLOCK + 2])
@pytest.mark.parametrize("h,w", [(28, 28), (7, 9), (3, 3)])
@pytest.mark.parametrize("pixel_type", ["float", "uint8"])
def test_one_encoding_contracts_to_every_filters_maps_bit_for_bit(pixel_type, h, w, count, rng):
    # the harness encodes an adversarial set once and contracts it per head
    images = rng.integers(0, 256, (count, h, w, 1), dtype=np.uint8)
    if pixel_type == "float":
        images = rng.uniform(-1.5, 2.5, images.shape)  # unclamped adversarial pixels
    encoding = quanv.encode(images)
    assert isinstance(encoding.blocks, list)  # kept, so every contraction reads it
    for kind in AnsatzKind:
        cfg = ansatz_cfg(kind)
        expected = quanvolve_dataset(images, cfg, np.float32)
        out = quanv.contract(cfg, encoding, np.float32)
        assert out.dtype == np.float32 and out.shape == (count, *quanv.output_shape(h, w))
        assert out.tobytes() == expected.tobytes()
    assert quanv.contract(cfg, encoding).tobytes() == quanvolve_dataset(images, cfg).tobytes()


def test_encode_rejects_what_quanvolve_dataset_rejects():
    with pytest.raises(ValueError, match="data.pixels"):
        quanv.encode(np.ones((2, 4, 4, 1), np.int64))
    with pytest.raises(ValueError, match=r"\(N, H, W, 1\)"):
        quanv.encode(np.ones((2, 4, 4, 3)))


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, bool])
def test_integer_images_that_are_not_bytes_are_rejected(dtype):
    images = np.ones((2, 4, 4, 1), dtype)
    cfg = identity_cfg()
    calls = [lambda: quanvolve_dataset(images, cfg), lambda: quanvolve_image(images[0], cfg),
             lambda: input_gradient(images, cfg, np.zeros((2, 2, 2, 4))),
             lambda: quanv.pullback(cfg, quanv.encode(images), np.zeros((2, 2, 2, 4)))]
    for call in calls:
        with pytest.raises(ValueError, match="data.pixels"):
            call()


# ---------------------------------------------------------------------------
# input_gradient
# ---------------------------------------------------------------------------

def test_gradient_identity_circuit_closed_form():
    # Identity circuit: feature = cos(pi x), so d/dx = -pi sin(pi x).
    cfg = identity_cfg()
    img = np.full((1, 2, 2, 1), 0.5)
    upstream = np.zeros((1, 1, 1, 4))
    upstream[0, 0, 0, 0] = 1.0  # channel 0 reads pixel (0, 0)
    grad = input_gradient(img, cfg, upstream)[0]
    assert grad[0, 0, 0] == pytest.approx(-np.pi, abs=1e-10)
    assert np.allclose(grad.reshape(-1)[1:], 0.0, atol=1e-12)


def test_gradient_zero_upstream():
    cfg = ansatz_cfg(AnsatzKind.ZZ_FULL)
    grad = input_gradient(np.full((2, 4, 4, 1), 0.3), cfg, np.zeros((2, 2, 2, 4)))
    assert np.array_equal(grad, np.zeros((2, 4, 4, 1)))


def test_gradient_upstream_shape_checked(rng):
    with pytest.raises(ValueError):
        input_gradient(rng.uniform(0, 1, (1, 4, 4, 1)), identity_cfg(), np.zeros((1, 3, 3, 4)))
    with pytest.raises(ValueError):  # one upstream map for two images
        input_gradient(rng.uniform(0, 1, (2, 4, 4, 1)), identity_cfg(), np.zeros((1, 2, 2, 4)))
    with pytest.raises(ValueError):  # unbatched image
        input_gradient(rng.uniform(0, 1, (4, 4, 1)), identity_cfg(), np.zeros((2, 2, 4)))


def finite_difference_gradient(img, cfg, upstream, h=1e-5):
    grad = np.zeros_like(img)
    for idx in np.ndindex(img.shape):
        plus, minus = img.copy(), img.copy()
        plus[idx] += h
        minus[idx] -= h
        f_plus = np.sum(upstream * quanvolve_image(plus, cfg))
        f_minus = np.sum(upstream * quanvolve_image(minus, cfg))
        grad[idx] = (f_plus - f_minus) / (2 * h)
    return grad


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_gradient_matches_finite_differences_all_ansatz_kinds(kind, rng):
    cfg = ansatz_cfg(kind, seed=97)
    img = rng.uniform(0.05, 0.95, (6, 6, 1))
    upstream = rng.normal(size=(3, 3, 4))
    exact = input_gradient(img[None], cfg, upstream[None])[0]
    fd = finite_difference_gradient(img, cfg, upstream)
    coords = [np.unravel_index(i, img.shape) for i in rng.choice(36, 20, replace=False)]
    for idx in coords:
        assert abs(exact[idx] - fd[idx]) <= 1e-5 * max(1.0, abs(fd[idx]))


@pytest.mark.parametrize("h,w", [(7, 9), (9, 6), (5, 5)])
def test_gradient_of_odd_sized_images_matches_finite_differences(h, w, rng):
    # an odd last row or column lies in no patch: its features ignore it and
    # its gradient is exactly 0
    cfg = ansatz_cfg(AnsatzKind.RANDOM, seed=97)
    img = rng.uniform(0.05, 0.95, (h, w, 1))
    upstream = rng.normal(size=quanv.output_shape(h, w))
    exact = input_gradient(img[None], cfg, upstream[None])[0]
    fd = finite_difference_gradient(img, cfg, upstream)
    assert np.max(np.abs(exact - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))
    assert np.all(exact[h - h % 2 :] == 0) and np.all(exact[:, w - w % 2 :] == 0)
    assert np.any(exact[: h - h % 2, : w - w % 2] != 0)


def test_batched_gradient_rows_match_one_image_batches(rng):
    # the images span two internal blocks, the last one partial
    cfg = ansatz_cfg(AnsatzKind.RANDOM, seed=5)
    count = quanv.BLOCK + 3
    imgs = rng.uniform(-0.5, 1.5, (count, 8, 8, 1))
    upstream = rng.normal(size=(count, *quanvolve_image(imgs[0], cfg).shape))
    batched = input_gradient(imgs, cfg, upstream)
    for i in range(len(imgs)):
        single = input_gradient(imgs[i : i + 1], cfg, upstream[i : i + 1])[0]
        assert np.max(np.abs(batched[i] - single)) <= 1e-15
        assert np.array_equal(np.sign(batched[i]), np.sign(single))


# ---------------------------------------------------------------------------
# QNVF container
# ---------------------------------------------------------------------------

def test_qnvf_round_trip(tmp_path, rng):
    maps = rng.uniform(-1, 1, (3, 4, 5, 4)).astype(np.float32)
    path = tmp_path / "maps.qnvf"
    quanv.write_qnvf(path, [maps], maps.shape, meta_hash=0xDEADBEEF)
    loaded, meta = quanv.read_qnvf(path)
    assert meta == 0xDEADBEEF
    assert np.array_equal(loaded, maps)


def test_qnvf_write_is_deterministic(tmp_path, rng):
    maps = rng.uniform(-1, 1, (2, 3, 3, 4))
    p1, p2 = tmp_path / "a.qnvf", tmp_path / "b.qnvf"
    quanv.write_qnvf(p1, [maps], maps.shape, meta_hash=7)
    quanv.write_qnvf(p2, [maps], maps.shape, meta_hash=7)
    assert p1.read_bytes() == p2.read_bytes()


def test_qnvf_rejects_corruption(tmp_path, rng):
    maps = rng.uniform(-1, 1, (2, 3, 3, 4))
    path = tmp_path / "c.qnvf"
    quanv.write_qnvf(path, [maps], maps.shape)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.qnvf"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        quanv.read_qnvf(bad_magic)

    truncated = tmp_path / "trunc.qnvf"
    truncated.write_bytes(raw[:-5])
    with pytest.raises(ValueError):
        quanv.read_qnvf(truncated)


def test_qnvf_blocks_write_the_bytes_of_the_whole_array(tmp_path, rng):
    maps = rng.uniform(-1, 1, (7, 3, 3, 4))
    whole, blocks = tmp_path / "whole.qnvf", tmp_path / "blocks.qnvf"
    quanv.write_qnvf(whole, [maps], maps.shape, meta_hash=11)
    quanv.write_qnvf(blocks, (maps[:3], maps[3:3], maps[3:]), maps.shape, meta_hash=11)
    assert blocks.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("blocks", [
    lambda maps: (maps[:3],),                 # fewer maps than the header declares
    lambda maps: (maps, maps[:1]),            # more
    lambda maps: (maps[:, :2],),              # a map of another shape
], ids=["too-few", "too-many", "wrong-shape"])
def test_qnvf_blocks_that_do_not_make_up_the_shape_leave_no_file(tmp_path, rng, blocks):
    maps = rng.uniform(-1, 1, (7, 3, 3, 4))
    path = tmp_path / "maps.qnvf"
    with pytest.raises(ValueError):
        quanv.write_qnvf(path, blocks(maps), maps.shape)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", list(AnsatzKind))
def test_fused_features_and_pullback_equal_the_separate_paths(kind, rng):
    # 130 images: two full blocks and a partial third, each pulled back
    # through the cos and sin its features were computed from
    cfg = ansatz_cfg(kind)
    count = 2 * quanv.BLOCK + 2
    images = rng.uniform(-1.5, 2.5, (count, 28, 28, 1))
    upstream = rng.normal(size=(count, 14, 14, 4))
    encoding = quanv.encode(images)
    assert np.array_equal(quanv.contract(cfg, encoding), quanvolve_dataset(images, cfg))
    expected = input_gradient(images, cfg, upstream)
    assert np.array_equal(quanv.pullback(cfg, encoding, upstream), expected)
    assert np.array_equal(quanv.pullback(cfg, encoding, upstream), expected)  # read again
    with pytest.raises(ValueError):
        quanv.pullback(cfg, encoding, upstream[1:])
