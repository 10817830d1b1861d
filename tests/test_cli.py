import dataclasses
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from quanvbench import cli, data, harness, nn, quanv
from quanvbench.ansatz import AnsatzKind, build_ansatz
from quanvbench.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main, parse_config_text
from quanvbench.data import Dataset, save_idx, subset
from quanvbench.quanv import QuanvConfig
from quanvbench.synthdata import synthetic_dataset


TINY_SWEEP = """
# small but complete sweep
dataset = mnist
source = synthetic
synth_count = 120
n_train = 20
n_test = 10
architectures = classical_cnn, qunn
ansatz_list = zz_full
attack_list = fgsm
epsilons = 0, 0.1, 1
epsilons_fgsm_extra =
trials = 2
train.epochs = 6
"""


@pytest.fixture
def idx_dir(tmp_path):
    root = tmp_path / "data" / "mnist"
    root.mkdir(parents=True)
    pool = synthetic_dataset("mnist", 400, seed=5)
    train, test = subset(pool, 120, 60, seed=0)
    save_idx(train, root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
    save_idx(test, root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    return tmp_path / "data"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_defaults_and_overrides():
    cfg = parse_config_text("trials = 3\nmode = end_to_end\n")
    assert cfg["trials"] == "3"
    assert cfg["mode"] == "end_to_end"
    assert cfg["dataset"] == "mnist"  # default preserved


def test_config_defaults_are_the_sweep_config_defaults():
    # the protocol keys' defaults are SweepConfig's and TrainConfig's, written
    # as config text: they must survive the trip to text and back
    cfg = cli.build_sweep_config(parse_config_text("source = synthetic\n"))
    defaults = {f.name: f.default for f in dataclasses.fields(harness.SweepConfig)
                if f.default is not dataclasses.MISSING}
    assert {"architectures", "ansatz_kinds", "attacks", "epsilons", "fgsm_extra_epsilons",
            "trials", "base_seed", "mode", "clamp"} <= defaults.keys()
    assert {name: getattr(cfg, name) for name in defaults} == defaults
    assert cfg.train_cfg == nn.TrainConfig()


def test_config_dataset_name_is_lower_cased_once():
    # the CLI normalises the name a user typed; data, nn and synthdata take
    # the lower-case names alone
    cfg = cli.build_sweep_config(parse_config_text(
        TINY_SWEEP.replace("dataset = mnist", "dataset = MNIST")))
    assert (cfg.train_data.name, cfg.test_data.name) == ("mnist", "mnist")


def test_config_rejects_unknown_key():
    with pytest.raises(cli.ConfigError, match="no_such_key"):
        parse_config_text("no_such_key = 1\n")


REMOVED_RANDOM_KEYS = ["random.depth = 3", "random.two_qubit_prob = 0.4"]


@pytest.mark.parametrize("line", REMOVED_RANDOM_KEYS)
def test_config_rejects_the_removed_random_keys(line):
    # the random architecture's depth and CNOT probability are fixed
    with pytest.raises(cli.ConfigError, match=re.escape(line.split(" = ")[0])):
        parse_config_text(line + "\n")


def test_config_rejects_malformed_line():
    with pytest.raises(cli.ConfigError, match="line 2"):
        parse_config_text("trials = 3\nbogus line\n")


def test_config_comments_and_blanks_ignored():
    cfg = parse_config_text("# comment\n\ntrials = 5  # trailing\n")
    assert cfg["trials"] == "5"


def test_config_key_table_lists_exactly_the_config_keys():
    # the module docstring's table: a key column, keys of one row joined by " / ",
    # and the row's last bracketed group, its defaults joined the same way
    table = cli.__doc__.split("Recognized keys")[1].split("\n\n")[1]
    keys, documented = [], {}
    for row in table.splitlines():
        row_keys = re.split(r"\s{2,}", row.strip())[0].split(" / ")
        brackets = re.findall(r"\[([^\]]*)\]", row)
        defaults = brackets[-1].split(" / ") if brackets else [""]  # dataset_dir has none
        keys += row_keys
        documented.update(zip(row_keys, defaults, strict=True))
    assert sorted(keys) == sorted(cli._CONFIG_DEFAULTS)
    assert documented == cli._CONFIG_DEFAULTS


def test_the_default_config_hash_is_pinned():
    # a manifest hashes the resolved config's text: a default written another
    # way (such as "1.0" for "1") would change every manifest
    assert cli.config_hash(parse_config_text("")) == "3b4a1d36f25e69b80280fea478f4849b"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_cmd_verify_passes(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 7
    assert "[FAIL]" not in out


# ---------------------------------------------------------------------------
# quanvolve
# ---------------------------------------------------------------------------

def test_cmd_quanvolve_synthetic(tmp_path, capsys):
    out = tmp_path / "maps.qnvf"
    rc = main(["quanvolve", "--synthetic", "--dataset", "mnist",
               "--ansatz", "zz_full", "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    maps, _meta = quanv.read_qnvf(out)
    assert maps.shape == (80, 14, 14, 4)  # 50 train + 30 test
    assert "80 maps of 14x14x4" in capsys.readouterr().out


def test_cmd_quanvolve_idx_files(idx_dir, tmp_path):
    out = tmp_path / "maps.qnvf"
    rc = main(["quanvolve", "--dataset-dir", str(idx_dir), "--dataset", "mnist",
               "--n-train", "20", "--n-test", "10", "--seed", "2", "--out", str(out)])
    assert rc == EXIT_OK
    maps, _ = quanv.read_qnvf(out)
    assert maps.shape == (30, 14, 14, 4)


def test_cmd_quanvolve_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.qnvf", tmp_path / "b.qnvf"
    flags = ["quanvolve", "--synthetic", "--ansatz", "zz_star", "--seed", "3"]
    assert main(flags + ["--out", str(a)]) == EXIT_OK
    assert main(flags + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_qnvf_meta_hash_covers_the_subset(idx_dir, tmp_path):
    def meta_hash(name, *flags):
        out = tmp_path / name
        assert main(["quanvolve", "--seed", "1", "--out", str(out), *flags]) == EXIT_OK
        return out.read_bytes()[:quanv._QNVF_HEADER.size], quanv.read_qnvf(out)[1]

    header, ten = meta_hash("a.qnvf", "--synthetic", "--n-train", "10")
    assert meta_hash("b.qnvf", "--synthetic", "--n-train", "10") == (header, ten)
    others = {meta_hash("c.qnvf", "--synthetic", "--n-train", "20")[1],
              meta_hash("d.qnvf", "--synthetic", "--n-train", "10", "--n-test", "20")[1],
              meta_hash("e.qnvf", "--dataset-dir", str(idx_dir), "--n-train", "10")[1]}
    assert len(others) == 3 and ten not in others


@pytest.mark.parametrize("flags, message", [
    (["--n-train", "-5"], "--n-train and --n-test: subset sizes must be >= 0"),
    # the synthetic pool holds 600 images
    (["--n-train", "700"], "--n-train and --n-test: requested 700+30 examples"),
    (["--seed", "-1"], "--seed"),
    (["--n-train", "0", "--n-test", "0"], "--n-train and --n-test are both 0"),
], ids=["negative-subset", "subset-beyond-pool", "negative-seed", "empty-selection"])
def test_cmd_quanvolve_bad_value_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "maps.qnvf"
    rc = main(["quanvolve", "--synthetic", "--out", str(out)] + flags)
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "internal error" not in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    ("quanvolve", "--n-test: requested 70+0 examples from a 60-image"),
    ("sweep", "n_test: requested 70+0 examples from a 60-image"),
])
def test_idx_subset_beyond_the_file_names_its_size_exit_2(idx_dir, tmp_path, capsys,
                                                          command, message):
    # each IDX split is drawn from its own file, so only its own size is named
    config = tmp_path / "idx.cfg"
    config.write_text(TINY_SWEEP.replace("source = synthetic", f"dataset_dir = {idx_dir}")
                      .replace("n_test = 10", "n_test = 70"))
    args = {"quanvolve": ["--dataset-dir", str(idx_dir), "--n-test", "70"],
            "sweep": ["--config", str(config)]}[command]
    assert main([command, *args, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"error: {message}" in capsys.readouterr().err


def test_cmd_quanvolve_header_claiming_more_images_exit_2(idx_dir, tmp_path, capsys):
    images = idx_dir / "mnist" / "train-images-idx3-ubyte"
    raw = bytearray(images.read_bytes())
    raw[4:8] = (2**32 - 1).to_bytes(4, "big")  # the image count, after the magic
    images.write_bytes(bytes(raw))
    out = tmp_path / "maps.qnvf"
    rc = main(["quanvolve", "--dataset-dir", str(idx_dir), "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "truncated while reading pixel data" in capsys.readouterr().err
    assert not out.exists()


def write_idx_dir(root, train, test):
    (root / "mnist").mkdir(parents=True)
    save_idx(train, root / "mnist" / "train-images-idx3-ubyte",
             root / "mnist" / "train-labels-idx1-ubyte")
    save_idx(test, root / "mnist" / "t10k-images-idx3-ubyte",
             root / "mnist" / "t10k-labels-idx1-ubyte")
    return root


@pytest.mark.parametrize("train_side, test_side", [(1, 1), (28, 20), (20, 20)],
                         ids=["smaller-than-kernel", "train-test-differ", "both-20x20"])
def test_cmd_quanvolve_image_shape_exit_2(tmp_path, capsys, train_side, test_side):
    labels = np.arange(20) % 10
    root = write_idx_dir(tmp_path / "data",
                         Dataset(np.zeros((20, train_side, train_side, 1)), labels, "mnist"),
                         Dataset(np.zeros((20, test_side, test_side, 1)), labels, "mnist"))
    out = tmp_path / "maps.qnvf"
    rc = main(["quanvolve", "--dataset-dir", str(root), "--n-train", "10", "--n-test", "10",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    assert "images must be 28x28x1" in err  # the sweep's message
    assert not out.exists()


def test_cmd_quanvolve_writes_the_maps_of_the_concatenated_images(idx_dir, tmp_path):
    # 70 train images span a full and a partial block, the test maps follow them
    out = tmp_path / "maps.qnvf"
    assert main(["quanvolve", "--dataset-dir", str(idx_dir), "--ansatz", "random",
                 "--seed", "4", "--n-train", "70", "--n-test", "40",
                 "--out", str(out)]) == EXIT_OK
    cfg = dict(cli._CONFIG_DEFAULTS, dataset_dir=str(idx_dir), n_train="70", n_test="40")
    train, test = cli.load_dataset_pair(cfg)
    images = np.concatenate([train.images, test.images])
    qcfg = QuanvConfig(circuit=build_ansatz(AnsatzKind.RANDOM, seed=4))
    expected = tmp_path / "expected.qnvf"
    maps = quanv.quanvolve_dataset(images, qcfg).astype(np.float32)
    quanv.write_qnvf(expected, [maps], maps.shape,
                     meta_hash=harness.stable_seed("mnist", "random", 4, 70, 40,
                                                   zlib.crc32(images)))
    assert out.read_bytes() == expected.read_bytes()


def test_idx_subsets_are_the_ones_subset_takes_from_the_whole_files(idx_dir):
    cfg = dict(cli._CONFIG_DEFAULTS, dataset_dir=str(idx_dir), n_train="70", n_test="40",
               subset_seed="3")
    selected = cli._select_dataset_pair(cfg)
    for split, n, got in zip(("train", "test"), (70, 40), selected):
        pool = data.load_idx(*(idx_dir / "mnist" / name for name in cli._IDX_NAMES[split]))
        expected, _ = subset(pool, n, 0, harness.stable_seed(3, split))
        assert got.images.dtype == np.uint8
        assert np.array_equal(got.images, expected.images)
        assert np.array_equal(got.labels, expected.labels)


def test_cmd_quanvolve_hands_the_idx_selection_over_as_bytes(idx_dir, tmp_path, monkeypatch):
    real, calls = quanv.quanvolve_dataset, []

    def spy(images, *args, **kwargs):
        calls.append((images.dtype, len(images)))
        return real(images, *args, **kwargs)

    monkeypatch.setattr(quanv, "quanvolve_dataset", spy)
    assert main(["quanvolve", "--dataset-dir", str(idx_dir), "--n-train", "70", "--n-test",
                 "40", "--out", str(tmp_path / "maps.qnvf")]) == EXIT_OK
    assert calls == [(np.uint8, cli._BLOCK), (np.uint8, 70 - cli._BLOCK), (np.uint8, 40)]


def test_cmd_quanvolve_holds_neither_float_images_nor_all_maps(tmp_path, rng):
    # 3,100 pool images of random bytes, 2,000 + 500 of them quanvolved
    root = tmp_path / "data" / "mnist"
    root.mkdir(parents=True)
    for (images, labels), count in zip(cli._IDX_NAMES.values(), (2500, 600)):
        (root / images).write_bytes(
            struct.pack(">IIII", data.IDX_IMAGE_MAGIC, count, 28, 28)
            + rng.integers(0, 256, count * 28 * 28, dtype=np.uint8).tobytes())
        (root / labels).write_bytes(struct.pack(">II", data.IDX_LABEL_MAGIC, count)
                                    + (np.arange(count) % 10).astype(np.uint8).tobytes())
    out = tmp_path / "maps.qnvf"
    tracemalloc.start()
    try:
        rc = main(["quanvolve", "--dataset-dir", str(tmp_path / "data"), "--n-train", "2000",
                   "--n-test", "500", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    maps, _ = quanv.read_qnvf(out)
    assert maps.shape == (2500, 14, 14, 4)
    # the float32 maps of the selection: 7.8 MB; its float64 pixels would be 15.7 MB
    assert peak < maps.nbytes


@pytest.mark.parametrize("earlier", [None, b"an earlier file"], ids=["no-file", "earlier-file"])
def test_cmd_quanvolve_failing_block_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, earlier):
    real, calls = quanv.quanvolve_dataset, []

    def fail_on_the_second_block(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) == 2:
            raise RuntimeError("second block failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(quanv, "quanvolve_dataset", fail_on_the_second_block)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "maps.qnvf"
    if earlier is not None:
        out.write_bytes(earlier)
    rc = main(["quanvolve", "--synthetic", "--n-train", "200", "--out", str(out)])
    assert rc == EXIT_FAILURE
    assert "second block failed" in capsys.readouterr().err
    assert calls == [cli._BLOCK, cli._BLOCK]  # the first block was written
    assert [p.name for p in out_dir.iterdir()] == ([] if earlier is None else ["maps.qnvf"])
    if earlier is not None:
        assert out.read_bytes() == earlier


def test_cmd_quanvolve_out_is_a_directory_exit_2_before_any_work(tmp_path, capsys,
                                                                 monkeypatch):
    calls = []
    monkeypatch.setattr(quanv, "quanvolve_dataset", lambda *args, **kwargs: calls.append(args))
    rc = main(["quanvolve", "--synthetic", "--out", str(tmp_path)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "internal error" not in err
    assert calls == []


def test_cmd_quanvolve_out_in_a_missing_directory_exit_2_before_any_work(tmp_path, capsys,
                                                                         monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_select_dataset_pair", lambda *args: calls.append(args))
    out = tmp_path / "nowhere" / "x.qnvf"
    rc = main(["quanvolve", "--synthetic", "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--out {out}" in err and ".tmp" not in err
    assert calls == []
    assert not (tmp_path / "nowhere").exists()


def test_cmd_quanvolve_missing_file_exit_2(tmp_path, capsys):
    rc = main(["quanvolve", "--dataset-dir", str(tmp_path / "nowhere"),
               "--out", str(tmp_path / "x.qnvf")])
    assert rc == EXIT_USAGE
    assert "nowhere" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_cmd_sweep_end_to_end(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP)
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(config), "--out", str(out_dir)])
    assert rc == EXIT_OK

    csv_lines = (out_dir / "results.csv").read_text().splitlines()
    # 2 architectures x 1 ansatz x 1 attack x 2 trials x 3 epsilons
    assert len(csv_lines) == 1 + 12
    assert csv_lines[0] == "dataset,architecture,ansatz,attack,mode,epsilon,trial,accuracy"
    assert (out_dir / "plot_fgsm.svg").exists()

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["records_written"] == 12
    assert manifest["config_hash"] == cli.config_hash(manifest["config"])


def test_cmd_sweep_unknown_ansatz_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_SWEEP.replace("ansatz_list = zz_full", "ansatz_list = zz_mesh"))
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "zz_mesh" in capsys.readouterr().err


def test_cmd_sweep_unknown_key_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_SWEEP + "mystery_key = 1\n")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "mystery_key" in capsys.readouterr().err


@pytest.mark.parametrize("line", REMOVED_RANDOM_KEYS)
def test_cmd_sweep_removed_random_key_exit_2(tmp_path, capsys, line):
    config = tmp_path / "old.cfg"
    config.write_text(TINY_SWEEP + line + "\n")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_sweep_nan_epsilon_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_SWEEP.replace("epsilons = 0, 0.1, 1", "epsilons = 0, nan"))
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, message", [
    ("n_train = abc", "n_train"),
    ("synth_count = x", "synth_count"),
    ("synth_count = 0", "count >= 1 images, got 0"),
    ("synth_count = -3", "count >= 1 images, got -3"),
    ("epsilons = 0, abc", "epsilons"),
    ("n_train = -5", "n_train and n_test: subset sizes must be >= 0"),
    ("n_test = 0", "empty"),
    ("epsilons = 0, 0.1, 0.1", "strictly ascending"),
    # repeats the last epsilon
    ("epsilons_fgsm_extra = 1", "fgsm_extra_epsilons: epsilon grid must be strictly ascending"),
    ("subset_seed = -1", "subset_seed"),
    ("synth_seed = -3", "synth_seed"),
])
def test_cmd_sweep_bad_value_exit_2(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    config = tmp_path / "bad.cfg"
    text, replaced = re.subn(rf"^{key} =.*$", line, TINY_SWEEP, flags=re.M)
    config.write_text(text if replaced else TINY_SWEEP + line + "\n")  # a key left at its default
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # validated before the directory is made


@pytest.mark.parametrize("line, name", [
    ("architectures = classical_cnn, qunn, classical_cnn", "classical_cnn"),
    ("ansatz_list = zz_full, zz_full", "zz_full"),
    ("attack_list = fgsm, fgsm", "fgsm"),
])
def test_cmd_sweep_repeated_name_exit_2(tmp_path, capsys, line, name):
    key = line.split(" = ")[0]
    config = tmp_path / "bad.cfg"
    config.write_text(re.sub(rf"^{key} =.*$", line, TINY_SWEEP, flags=re.M))
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert f"{name} more than once" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any work


@pytest.mark.parametrize("line, message", [
    ("trials = 1", "trials is set twice, on lines 13 and 15"),
    ("train.epochs = 6", "train.epochs is set twice, on lines 14 and 15"),  # the same value
])
def test_cmd_sweep_repeated_key_exit_2(tmp_path, capsys, line, message):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_SWEEP + line + "\n")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any work


def test_cmd_sweep_rejects_images_that_are_not_28x28(tmp_path, capsys):
    root = tmp_path / "data"
    root.mkdir()
    pool = synthetic_dataset("mnist", 200, seed=5)
    small = Dataset(pool.images[:, 4:24, 4:24], pool.labels, "mnist")
    train, test = subset(small, 60, 40, seed=0)
    save_idx(train, root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
    save_idx(test, root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    config = tmp_path / "small.cfg"
    config.write_text(TINY_SWEEP.replace("source = synthetic", f"dataset_dir = {root}"))
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "28x28x1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_sweep_rejects_a_negative_subset_seed_of_an_idx_source(idx_dir, tmp_path, capsys):
    # an idx subset hashes its seed, which takes any integer, but the key means one thing
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP.replace("source = synthetic", f"dataset_dir = {idx_dir}")
                      + "subset_seed = -1\n")
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "subset_seed: expected an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_sweep_rejects_idx_labels_outside_the_classes(idx_dir, tmp_path, capsys, monkeypatch):
    labels = idx_dir / "mnist" / "train-labels-idx1-ubyte"
    raw = bytearray(labels.read_bytes())
    raw[8] = 10  # the first label, after the 8-byte header
    labels.write_bytes(bytes(raw))
    monkeypatch.setattr(nn, "train", None)  # any training fails
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP.replace("source = synthetic", f"dataset_dir = {idx_dir}"))
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    assert "labels must" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, env", [
    ("0", None), ("-2", None), ("two", None), (None, "abc"), (None, "0"),
])
def test_cmd_sweep_bad_thread_count_exit_2(tmp_path, monkeypatch, capsys, flag, env):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP)
    if env is not None:
        monkeypatch.setenv("QUANVBENCH_THREADS", env)
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "o")]
    if flag is not None:
        argv += ["--threads", flag]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse reports a bad flag value itself
        rc = exc.code
    assert rc == EXIT_USAGE
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_thread_env_is_a_usage_error_for_every_command(monkeypatch, capsys):
    monkeypatch.setenv("QUANVBENCH_THREADS", "abc")
    assert main(["verify"]) == EXIT_USAGE
    assert "QUANVBENCH_THREADS" in capsys.readouterr().err


def test_cmd_sweep_seed_override_changes_hash(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", str(config), "--out", str(out1)]) == EXIT_OK
    assert main(["sweep", "--config", str(config), "--out", str(out2), "--seed", "99"]) == EXIT_OK
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] != m2["config_hash"]
    assert m2["config"]["base_seed"] == "99"


@pytest.mark.parametrize("failing_call, cells_kept", [(3, 2), (1, 0)],
                         ids=["third-cell", "first-cell"])
def test_cmd_sweep_failure_preserves_partial_csv(tmp_path, capsys, monkeypatch,
                                                 failing_call, cells_kept):
    from quanvbench import harness

    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP)
    out_dir = tmp_path / "out"

    real = harness.run_trial
    calls = {"n": 0}

    def explode(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == failing_call:
            raise RuntimeError("injected mid-run failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", explode)
    rc = main(["sweep", "--config", str(config), "--out", str(out_dir)])
    assert rc == EXIT_FAILURE

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "FAILED"
    assert "injected" in manifest["error"]
    assert manifest["records_written"] == 3 * cells_kept  # 3 epsilons per cell-trial
    err = capsys.readouterr().err
    assert "sweep failed: injected mid-run failure" in err
    assert "Traceback (most recent call last)" in err and "RuntimeError" in err
    if cells_kept:
        csv_lines = (out_dir / "results.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 3 * cells_kept
    else:
        assert not (out_dir / "results.csv").exists()


def test_cmd_sweep_failure_into_a_reused_out_leaves_no_earlier_output(tmp_path, monkeypatch):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out_dir)]) == EXIT_OK
    assert (out_dir / "results.csv").exists() and (out_dir / "plot_fgsm.svg").exists()

    def explode(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(harness, "run_trial", explode)
    assert main(["sweep", "--config", str(config), "--out", str(out_dir)]) == EXIT_FAILURE
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert (manifest["status"], manifest["records_written"]) == ("FAILED", 0)
    assert os.listdir(out_dir) == ["manifest.json"]


def test_cmd_sweep_into_a_reused_out_leaves_no_plot_of_a_dropped_attack(tmp_path):
    config = tmp_path / "sweep.cfg"
    out_dir = tmp_path / "out"
    for attacks in ("fgsm, pgd", "fgsm"):
        config.write_text(TINY_SWEEP.replace("attack_list = fgsm", f"attack_list = {attacks}"))
        assert main(["sweep", "--config", str(config), "--out", str(out_dir)]) == EXIT_OK
    assert sorted(os.listdir(out_dir)) == ["manifest.json", "plot_fgsm.svg", "results.csv"]
    assert ",pgd," not in (out_dir / "results.csv").read_text()


def test_cmd_sweep_missing_config_exit_2(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE


def test_cmd_sweep_out_is_an_existing_file_exit_2(tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP)
    out = tmp_path / "results"
    out.write_bytes(b"an earlier file")
    rc = main(["sweep", "--config", str(config), "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(out) in err and "internal error" not in err
    assert out.read_bytes() == b"an earlier file"


def test_cmd_sweep_config_is_a_directory_exit_2(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_cmd_sweep_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(TINY_SWEEP.replace("small", "kleiner Durchlauf f\u00fcr").encode("latin-1"))
    rc = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(config) in err and "UTF-8" in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


OFFLINE_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "configs", "offline_synthetic.cfg")
OFFLINE_RESULTS_SHA1 = "88dd4ad17377a94fc0f70c04a68fca084d040de2"


def test_offline_sweep_writes_the_pinned_results(tmp_path):
    """The behaviour gate of a change meant to keep every output byte: the
    offline sweep's results.csv, pooled on 2 workers, has this sha1.  The
    digest holds for the numpy this suite was pinned on, whose float
    arithmetic sets the bits; a declared arithmetic change, such as float32
    training (ROADMAP item 17), updates it with its declaration."""
    out = tmp_path / "out"
    assert main(["sweep", "--config", OFFLINE_CONFIG, "--out", str(out),
                 "--threads", "2"]) == EXIT_OK
    assert hashlib.sha1((out / "results.csv").read_bytes()).hexdigest() == OFFLINE_RESULTS_SHA1


QUANVOLVE_QNVF_SHA1 = {
    "no_entanglement": "cd08ab995df5f68d5b14f7838d00bee7f9fe702a",
    "zz_full": "484362a45dc4c0a3db01887fbd1a9195a05f47f1",
    "zz_linear": "492fce777491443ea8bbe930fc525a1470454217",
    "zz_star": "13bd7b63f5327d70b0a0c00313f78e8719dfa0df",
    "random": "82998bf9cc2b833b9d67b228d77ceae255c682a8",
}


def test_quanvolve_writes_the_pinned_maps(idx_dir, tmp_path):
    """The behaviour gate for the feature maps: `quanvolve` on IDX files
    writes a QNVF file of this sha1 under each ansatz (the four rotation
    ansatze through their byte tables, random pixel by pixel).  As for the
    offline sweep's digest, these hold for the numpy this suite was pinned
    on, and a declared arithmetic change updates them."""
    digests = {}
    for kind in QUANVOLVE_QNVF_SHA1:
        out = tmp_path / f"{kind}.qnvf"
        assert main(["quanvolve", "--dataset-dir", str(idx_dir), "--ansatz", kind, "--seed", "5",
                     "--n-train", "100", "--n-test", "50", "--out", str(out)]) == EXIT_OK
        digests[kind] = hashlib.sha1(out.read_bytes()).hexdigest()
    assert digests == QUANVOLVE_QNVF_SHA1


def test_importing_the_cli_loads_no_process_pool():
    # the pool's modules are imported only when a sweep runs on 2+ workers
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, quanvbench.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# process policy: a frozen import-time heap, one BLAS thread per process
# ---------------------------------------------------------------------------

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_python(code, *args, **env):
    """Run ``code`` in a new interpreter, stdout and stderr pipes, with none of
    the BLAS variables and no PYTHONUNBUFFERED unless given in ``env``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("PYTHONUNBUFFERED",)}
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**base, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, timeout=300)


MAIN_IN_A_FRESH_PROCESS = ("import gc, sys; from quanvbench import cli; "
                           "rc = cli.main(sys.argv[1:]); "
                           "print('frozen', gc.get_freeze_count() > 0); sys.exit(rc)")


def test_fresh_process_sweep_writes_what_an_in_process_run_writes(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_SWEEP.replace("trials = 2", "trials = 1"))
    in_process, fresh = tmp_path / "in", tmp_path / "fresh"
    assert main(["sweep", "--config", str(config), "--out", str(in_process)]) == EXIT_OK
    run = fresh_python(MAIN_IN_A_FRESH_PROCESS, "sweep", "--config", str(config),
                       "--out", str(fresh))
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.splitlines()[-2].startswith(f"wrote {fresh / 'results.csv'} (6 records)")
    assert run.stdout.splitlines()[-1] == "frozen True"
    assert (fresh / "results.csv").read_bytes() == (in_process / "results.csv").read_bytes()
    assert json.loads((fresh / "manifest.json").read_text())["status"] == "ok"


def test_fresh_process_quanvolve_writes_what_an_in_process_run_writes(idx_dir, tmp_path):
    flags = ["quanvolve", "--dataset-dir", str(idx_dir), "--n-train", "70", "--n-test", "40",
             "--seed", "2"]
    in_process, fresh = tmp_path / "in.qnvf", tmp_path / "fresh.qnvf"
    assert main(flags + ["--out", str(in_process)]) == EXIT_OK
    run = fresh_python(MAIN_IN_A_FRESH_PROCESS, *flags, "--out", str(fresh))
    assert run.returncode == EXIT_OK, run.stderr
    assert run.stdout.splitlines()[-2].startswith(f"wrote {fresh}: 110 maps of 14x14x4")
    assert fresh.read_bytes() == in_process.read_bytes()


def test_fresh_process_bad_config_exit_2_with_its_message(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text(TINY_SWEEP + "mystery_key = 1\n")
    run = fresh_python(MAIN_IN_A_FRESH_PROCESS, "sweep", "--config", str(config),
                       "--out", str(tmp_path / "o"))
    assert run.returncode == EXIT_USAGE
    assert run.stderr == "error: unknown config key 'mystery_key'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
], ids=["unset", "user-set"])
def test_importing_the_cli_pins_blas_to_one_thread_unless_set(env, expected):
    code = ("import os, sys; assert 'numpy' not in sys.modules; import quanvbench.cli; "
            f"print(*[os.environ.get(v) for v in {BLAS_VARS!r}])")
    run = fresh_python(code, **env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == expected
