"""Command-line entry point.

    quanvbench quanvolve ...   quanvolve a dataset subset into a QNVF file
    quanvbench sweep ...       run a full robustness sweep from a config file
    quanvbench verify          run the oracle suites (release gate)

Exit codes: 0 success, 1 internal failure, 2 usage or config error.

`quanvolve` streams: it reads only the selected IDX images, keeps them as
bytes, quanvolves them one 64-image block at a time, each byte read as its
pixel, and appends each block's float32 maps to the QNVF file, which
appears at ``--out`` only once complete.

Processes: `main` freezes the heap the imports built (``gc.freeze``), so the
collections at interpreter exit skip it and the OS reclaims it.  Importing
this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
to 1 where they are unset, before numpy loads BLAS: a sweep's parallelism is
its ``--threads`` pool.  Set a variable before the run to override it.  A
library caller of ``harness.run_sweep`` with ``threads > 1`` should set them
before it first imports numpy, as ``tests/conftest.py`` does.

Sweep configs are flat ``key = value`` text files ('#' comments allowed).
Recognized keys, with defaults in brackets:

    dataset        mnist | fmnist                          [mnist]
    source         idx | synthetic                         [idx]
    dataset_dir    directory with the IDX files (source=idx)
    n_train        training subset size                    [50]
    n_test         test subset size                        [30]
    subset_seed    subset selection seed, >= 0             [0]
    synth_count    pool size when source=synthetic         [600]
    synth_seed     generator seed when source=synthetic, >= 0  [7]
    architectures  comma list                              [classical_cnn, classical_fc, qunn]
    ansatz_list    comma list                              [all five]
    attack_list    comma list                              [fgsm, pgd, mim]
    epsilons       comma list, strictly ascending, from 0  [0, 0.01, 0.05, 0.1, 0.3, 0.5, 1, 2, 5, 10]
    epsilons_fgsm_extra  appended for FGSM only, ascending [15]
    trials         repetitions per cell                    [7]
    base_seed      master seed                             [0]
    mode           surrogate | end_to_end                  [surrogate]
    clamp          true to clip adversarial pixels to [0,1]  [false]
    train.epochs / train.batch_size / train.lr             [30 / 4 / 0.001]  (Adam)

All randomness flows from seeds named above; nothing is seeded from the
clock.  source=idx expects the conventional file names
(train-images-idx3-ubyte, train-labels-idx1-ubyte, t10k-images-idx3-ubyte,
t10k-labels-idx1-ubyte) in dataset_dir/<dataset>, or in dataset_dir itself
when that subdirectory does not exist; source=synthetic uses the built-in
procedural stand-in corpus instead.  The CLI lower-cases the dataset name,
the one place a name is normalised; the input rules live in `data` (DATASETS,
check_labels), `nn.IMAGE_SHAPE` and `harness.SweepConfig`.
"""
from __future__ import annotations

import os

# before numpy loads BLAS, which reads them once: each forked pool worker
# would otherwise start BLAS threads of its own on the same cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import sys
import traceback
import zlib

import numpy as np

from . import __version__, data, harness, nn, quanv, synthdata, verify
from .ansatz import AnsatzKind, build_ansatz
from .attacks import AttackKind
from .data import Dataset
from .nn import Architecture
from .quanv import QuanvConfig

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_BLOCK = 64  # images per `quanv.quanvolve_dataset` call of `quanvolve`: bounds what it holds

_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class ConfigError(ValueError):
    pass


_CONFIG_DEFAULTS = {
    "dataset": "mnist",
    "source": "idx",
    "dataset_dir": "",
    "n_train": "50",
    "n_test": "30",
    "subset_seed": "0",
    "synth_count": "600",
    "synth_seed": "7",
    "architectures": "classical_cnn, classical_fc, qunn",
    "ansatz_list": "no_entanglement, zz_full, zz_linear, zz_star, random",
    "attack_list": "fgsm, pgd, mim",
    "epsilons": "0, 0.01, 0.05, 0.1, 0.3, 0.5, 1, 2, 5, 10",
    "epsilons_fgsm_extra": "15",
    "trials": "7",
    "base_seed": "0",
    "mode": "surrogate",
    "clamp": "false",
    "train.epochs": "30",
    "train.batch_size": "4",
    "train.lr": "0.001",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines over the documented defaults."""
    resolved, seen = dict(_CONFIG_DEFAULTS), {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if seen.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{key} is set twice, on lines {seen[key]} and {lineno}")
        resolved[key] = value
    return resolved


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _parse_number(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")


def _int(cfg: dict[str, str], key: str) -> int:
    return _parse_number(key, cfg[key], int)


def _seed(name: str, seed: int) -> int:
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"{name}: expected an integer >= 0, got {seed}")
    return seed


def _float(cfg: dict[str, str], key: str) -> float:
    return _parse_number(key, cfg[key], float)


def _parse_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _float_list(cfg: dict[str, str], key: str) -> tuple[float, ...]:
    return tuple(_parse_number(key, item, float) for item in _parse_list(cfg[key]))


def _parse_enum_list(key, value, enum_cls):
    out = []
    for name in _parse_list(value):
        try:
            out.append(enum_cls(name))
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"{key}: unknown name {name!r} (valid: {valid})")
    if not out:
        raise ConfigError(f"{key}: empty list")
    return tuple(out)


def _select_dataset_pair(cfg: dict[str, str],
                         sizes=("n_train", "n_test")) -> tuple[Dataset, Dataset]:
    """Resolve config to stratified train/test subsets; an IDX source's
    images stay bytes, and only the selected ones are read.  A subset that
    cannot be drawn is reported under ``sizes``, the names of n_train and n_test."""
    name = cfg["dataset"].lower()
    if name not in data.DATASETS:
        raise ConfigError(f"dataset: expected one of {data.DATASETS}, got {cfg['dataset']!r}")
    n_train, n_test = _int(cfg, "n_train"), _int(cfg, "n_test")
    seed, synth_seed = (_seed(key, _int(cfg, key)) for key in ("subset_seed", "synth_seed"))

    if cfg["source"] == "synthetic":
        pool = synthdata.synthetic_dataset(name, _int(cfg, "synth_count"), synth_seed)
        with _config_errors(" and ".join(sizes)):
            return data.subset(pool, n_train, n_test, seed)
    if cfg["source"] != "idx":
        raise ConfigError(f"source: expected idx or synthetic, got {cfg['source']!r}")
    if not cfg["dataset_dir"]:
        raise ConfigError("dataset_dir is required when source = idx")

    root = os.path.join(cfg["dataset_dir"], name)
    if not os.path.isdir(root):
        root = cfg["dataset_dir"]
    paths = {split: [os.path.join(root, file) for file in files]
             for split, files in _IDX_NAMES.items()}
    for path in paths["train"] + paths["test"]:
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing dataset file: {path}")

    def split(which, n, size):
        def select(labels):
            # the images `data.subset(pool, n, 0, ...)[0]` would copy out of the whole file
            with _config_errors(size):
                return data.subset_indices(labels, n, 0, harness.stable_seed(seed, which))[0]

        return data.load_idx(*paths[which], name, select=select)

    return split("train", n_train, sizes[0]), split("test", n_test, sizes[1])


def load_dataset_pair(cfg: dict[str, str]) -> tuple[Dataset, Dataset]:
    """Resolve config to stratified train/test subsets of float pixels."""
    return tuple(dataclasses.replace(split, images=data.pixels(split.images))
                 for split in _select_dataset_pair(cfg))


@contextlib.contextmanager
def _config_errors(name=None):
    """Report a ValueError raised while resolving the inputs as a config
    error, under ``name``, the key or flag it concerns, when given."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc) if name is None else f"{name}: {exc}") from exc


def build_sweep_config(cfg: dict[str, str]) -> harness.SweepConfig:
    with _config_errors():
        train, test = load_dataset_pair(cfg)
        return harness.SweepConfig(
            train_data=train,
            test_data=test,
            architectures=_parse_enum_list("architectures", cfg["architectures"], Architecture),
            ansatz_kinds=_parse_enum_list("ansatz_list", cfg["ansatz_list"], AnsatzKind),
            attacks=_parse_enum_list("attack_list", cfg["attack_list"], AttackKind),
            epsilons=_float_list(cfg, "epsilons"),
            fgsm_extra_epsilons=_float_list(cfg, "epsilons_fgsm_extra"),
            trials=_int(cfg, "trials"),
            base_seed=_int(cfg, "base_seed"),
            mode=cfg["mode"],
            clamp=_parse_bool("clamp", cfg["clamp"]),
            train_cfg=nn.TrainConfig(
                batch_size=_int(cfg, "train.batch_size"),
                epochs=_int(cfg, "train.epochs"),
                learning_rate=_float(cfg, "train.lr"),
            ),
        )


def config_hash(cfg: dict[str, str]) -> str:
    canonical = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def _write_manifest(out_dir, cfg, status, n_records, error=None):
    manifest = {
        "tool": "quanvbench",
        "version": __version__,
        "status": status,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "records_written": n_records,
    }
    if error is not None:
        manifest["error"] = error
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_quanvolve(args) -> int:
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory, not a QNVF file path")
    out_dir = os.path.dirname(args.out)
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"--out {args.out}: directory {out_dir} does not exist")
    _seed("--seed", args.seed)
    cfg = dict(_CONFIG_DEFAULTS, dataset=args.dataset, dataset_dir=args.dataset_dir or "",
               source="synthetic" if args.synthetic else "idx",
               n_train=str(args.n_train), n_test=str(args.n_test))
    kind = AnsatzKind(args.ansatz)
    with _config_errors():
        train, test = _select_dataset_pair(cfg, ("--n-train", "--n-test"))
        if len(train) + len(test) == 0:
            raise ValueError("--n-train and --n-test are both 0: nothing to quanvolve")
        for split in (train, test):
            nn.check_image_shape(split.images)
        qcfg = QuanvConfig(circuit=build_ansatz(kind, seed=args.seed))
        shape = (len(train) + len(test), *quanv.output_shape(*train.images.shape[1:3]))
    # train's images then test's, one block at a time: no float copy of the
    # selection, no map array
    blocks = [images[start:start + _BLOCK] for images in (train.images, test.images)
              for start in range(0, len(images), _BLOCK)]
    # crc32, not blake2b: a few ms for thousands of images; chained over the
    # blocks, it equals the crc32 of all the selected pixels, train then test
    digest = 0
    for block in blocks:
        digest = zlib.crc32(data.pixels(block), digest)
    meta = harness.stable_seed(args.dataset, kind.value, args.seed, args.n_train, args.n_test,
                               digest)
    low, high = np.inf, -np.inf

    def maps():
        nonlocal low, high
        for block in blocks:
            block_maps = quanv.quanvolve_dataset(block, qcfg, np.float32)
            low, high = min(low, block_maps.min()), max(high, block_maps.max())
            yield block_maps

    quanv.write_qnvf(args.out, maps(), shape, meta_hash=meta)
    print(
        f"wrote {args.out}: {shape[0]} maps of {shape[1]}x{shape[2]}x{shape[3]}, "
        f"values in [{low:.4f}, {high:.4f}] ({kind.value}, seed {args.seed})"
    )
    return EXIT_OK


def _read_config(path) -> dict[str, str]:
    """The parsed config at ``path``; a path that is not a UTF-8 text file is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read --config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config {path} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


def cmd_sweep(args) -> int:
    cfg = _read_config(args.config)
    if args.seed is not None:
        cfg["base_seed"] = str(args.seed)
    sweep_cfg = build_sweep_config(cfg)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --out directory {args.out}: {exc.strerror}") from exc
    csv_path = os.path.join(args.out, "results.csv")

    records, failure = [], None
    try:
        for batch in harness.iter_sweep(sweep_cfg, threads=args.threads):
            records.extend(batch)
    except Exception as exc:  # keep the partial output, mark the run failed
        failure = exc
    records.sort(key=harness.SweepRecord.sort_key)
    if records:
        harness.emit_csv(records, csv_path)
    if failure is not None:
        _write_manifest(args.out, cfg, "FAILED", len(records),
                        error=f"{type(failure).__name__}: {failure}")
        print(f"sweep failed: {failure}", file=sys.stderr)
        traceback.print_exception(failure)
        return EXIT_FAILURE

    aggregated = harness.aggregate(records, expected_trials=sweep_cfg.trials)
    for attack in sweep_cfg.attacks:
        subset_rows = [a for a in aggregated if a.attack == attack.value]
        harness.emit_plot(subset_rows, os.path.join(args.out, f"plot_{attack.value}.svg"))
    _write_manifest(args.out, cfg, "ok", len(records))
    print(f"wrote {csv_path} ({len(records)} records) and "
          f"{len(sweep_cfg.attacks)} plot(s) to {args.out}")
    return EXIT_OK


def cmd_verify(_args) -> int:
    results = verify.run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} ({r.seconds:.1f}s)")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} oracle suites passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def _worker_count(text: str) -> int:
    """A --threads value: a positive integer."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return threads


def _default_threads() -> int:
    try:
        return _worker_count(os.environ.get("QUANVBENCH_THREADS") or "1")
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"QUANVBENCH_THREADS: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quanvbench", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quanvolve", help="write quanvolved feature maps as a QNVF file")
    q.add_argument("--dataset", default="mnist", choices=data.DATASETS)
    q.add_argument("--dataset-dir", help="directory with the IDX files")
    q.add_argument("--synthetic", action="store_true",
                   help="use the built-in stand-in corpus instead of IDX files")
    q.add_argument("--ansatz", default="zz_full",
                   choices=[k.value for k in AnsatzKind])
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--n-train", type=int, default=50)
    q.add_argument("--n-test", type=int, default=30)
    q.add_argument("--out", required=True)
    q.set_defaults(fn=cmd_quanvolve)

    s = sub.add_parser("sweep", help="run a robustness sweep from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--threads", type=_worker_count, default=_default_threads())
    s.add_argument("--seed", type=int, help="override base_seed from the config")
    s.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("verify", help="run the oracle suites")
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    # the import-time heap moves to the permanent generation, which the
    # collections at interpreter exit skip
    gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, FileNotFoundError, data.IdxParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
