"""The benchmark's workloads: inputs made from the seed, the CLI command
each one runs, and the checks on that command's output.

The workload seed picks one of ``INPUT_SETS`` input sets (seed modulo
``INPUT_SETS``).  reference.json holds the seed commit's output for every
set, so each run can be compared byte for byte with it.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

INPUT_SETS = 8

EPSILONS = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
FGSM_EXTRA = (15.0,)
ALL_ANSATZE = ("no_entanglement", "zz_full", "zz_linear", "zz_star", "random")
ALL_ATTACKS = ("fgsm", "pgd", "mim")
CSV_HEADER = "dataset,architecture,ansatz,attack,mode,epsilon,trial,accuracy"

# quanvolve_idx: a 7000-image IDX set, 2500 maps quanvolved from it
IDX_TRAIN, IDX_TEST = 6000, 1000
QUANVOLVE_TRAIN, QUANVOLVE_TEST = 2000, 500
MAP_SHAPE = (14, 14, 4)
_QNVF_HEADER = struct.Struct("<4sIIIIIQ")

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


class MissingReference(Exception):
    """reference.json holds no output for the requested input set."""


@dataclass(frozen=True)
class Grid:
    """The sweep cells one command runs."""

    architectures: tuple[str, ...]
    ansatze: tuple[str, ...]
    attacks: tuple[str, ...]
    mode: str
    trials: int = 1

    def cell_trials(self):
        for arch in self.architectures:
            for ansatz in (self.ansatze if arch == "qunn" else ("-",)):
                for attack in self.attacks:
                    for trial in range(self.trials):
                        yield arch, ansatz, attack, trial

    def epsilons(self, attack: str) -> tuple[float, ...]:
        return EPSILONS + FGSM_EXTRA if attack == "fgsm" else EPSILONS

    def config_text(self, seed: int) -> str:
        return "\n".join((
            "dataset = mnist",
            "source = synthetic",
            f"synth_seed = {seed}",
            f"subset_seed = {seed}",
            f"base_seed = {seed}",
            f"architectures = {', '.join(self.architectures)}",
            f"ansatz_list = {', '.join(self.ansatze)}",
            f"attack_list = {', '.join(self.attacks)}",
            f"epsilons = {', '.join(f'{e:g}' for e in EPSILONS)}",
            f"epsilons_fgsm_extra = {', '.join(f'{e:g}' for e in FGSM_EXTRA)}",
            f"trials = {self.trials}",
            f"mode = {self.mode}",
        )) + "\n"


PAPER_GRID = Grid(("classical_cnn", "classical_fc", "qunn"), ALL_ANSATZE, ALL_ATTACKS, "surrogate")
# FGSM and PGD only: MIM would double the time of the slowest workload and
# runs the same parameter-shift path as PGD (MIM is in sweep_surrogate)
END_TO_END_GRID = Grid(("qunn",), ("zz_full",), ("fgsm", "pgd"), "end_to_end")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: Grid | None  # None: the quanvolve command
    pool_threads: int = 0  # workers of the traced run's extra pool command (0: none)


WORKLOADS = {w.name: w for w in (
    Workload("sweep_surrogate",
             "the paper grid users run: surrogate gradients, quanvolution and training "
             "share the time, and the sweep's redundant work lives here",
             PAPER_GRID, pool_threads=2),
    Workload("sweep_end_to_end",
             "parameter-shift gradients through the quantum layer take most of the time; "
             "training and sweep deduplication barely show",
             END_TO_END_GRID),
    Workload("quanvolve_idx",
             "IDX parsing, one large quanvolution batch under one circuit and a QNVF write; "
             "shows per-circuit and bulk-throughput trade-offs",
             None),
)}


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


# ---------------------------------------------------------------------------
# Inputs and commands
# ---------------------------------------------------------------------------


def prepare(workload: Workload, seed: int, workdir: str) -> str:
    """Write the inputs for input set ``seed``; returns their path."""
    if workload.grid is not None:
        path = os.path.join(workdir, "sweep.cfg")
        with open(path, "w") as fh:
            fh.write(workload.grid.config_text(seed))
        return path
    from quanvbench import data, synthdata

    root = os.path.join(workdir, "idx")
    os.makedirs(os.path.join(root, "mnist"))
    pool = synthdata.synthetic_dataset("mnist", IDX_TRAIN + IDX_TEST, seed)
    for split, sl, (img, lbl) in (
        ("train", slice(0, IDX_TRAIN), ("train-images-idx3-ubyte", "train-labels-idx1-ubyte")),
        ("test", slice(IDX_TRAIN, None), ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")),
    ):
        part = data.Dataset(pool.images[sl], pool.labels[sl], "mnist")
        data.save_idx(part, os.path.join(root, "mnist", img), os.path.join(root, "mnist", lbl))
    return root


def command(workload: Workload, seed: int, inputs: str, outdir: str,
            threads: int = 1) -> list[str]:
    """quanvbench arguments that run the workload once into ``outdir``."""
    if workload.grid is not None:
        return ["sweep", "--config", inputs, "--out", outdir,
                "--threads", str(threads)]
    return ["quanvolve", "--dataset", "mnist", "--dataset-dir", inputs,
            "--ansatz", "zz_full", "--seed", str(seed),
            "--n-train", str(QUANVOLVE_TRAIN), "--n-test", str(QUANVOLVE_TEST),
            "--out", os.path.join(outdir, "maps.qnvf")]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One command's checked output."""

    attempted: int  # cell-trials or maps
    failed: int
    digests: list[str]  # one per CSV row or per map
    file_digest: str


def _short(raw: bytes, size: int) -> str:
    return hashlib.blake2b(raw, digest_size=size).hexdigest()


def check_sweep(grid: Grid, outdir: str, exit_code: int) -> Outcome:
    """A cell-trial fails if any of its rows is missing, duplicated or holds
    an accuracy that is non-finite or outside [0, 1], or if the command
    failed."""
    expected = {key: set(grid.epsilons(key[2])) for key in grid.cell_trials()}
    path = os.path.join(outdir, "results.csv")
    if exit_code != 0 or not os.path.exists(path):
        return Outcome(len(expected), len(expected), [], "")
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return Outcome(len(expected), len(expected), [], _short(raw, 16))
    seen: dict = {key: set() for key in expected}
    bad = set()
    for line in lines[1:]:
        fields = line.split(",")
        try:
            dataset, arch, ansatz, attack, mode, eps, trial, acc = fields
            key, eps, acc = (arch, ansatz, attack, int(trial)), float(eps), float(acc)
        except ValueError:
            return Outcome(len(expected), len(expected), [], _short(raw, 16))
        if key not in expected:
            continue
        if (dataset != "mnist" or mode != grid.mode or eps not in expected[key]
                or eps in seen[key] or not math.isfinite(acc) or not 0.0 <= acc <= 1.0):
            bad.add(key)
        seen[key].add(eps)
    failed = sum(1 for key in expected if key in bad or seen[key] != expected[key])
    digests = [_short(line.encode(), 8) for line in lines[1:]]
    return Outcome(len(expected), failed, digests, _short(raw, 16))


def check_maps(outdir: str, exit_code: int) -> Outcome:
    """A map fails if it is missing, non-finite or outside [-1, 1]; a QNVF
    header of the wrong shape fails every map."""
    count = QUANVOLVE_TRAIN + QUANVOLVE_TEST
    path = os.path.join(outdir, "maps.qnvf")
    if exit_code != 0 or not os.path.exists(path):
        return Outcome(count, count, [], "")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _QNVF_HEADER.size:
        return Outcome(count, count, [], _short(raw, 16))
    magic, version, n, h, w, c, _meta = _QNVF_HEADER.unpack_from(raw)
    body = raw[_QNVF_HEADER.size:]
    map_bytes = 4 * h * w * c
    if (magic != b"QNVF" or version != 1 or (h, w, c) != MAP_SHAPE or n > count
            or len(body) != n * map_bytes):
        return Outcome(count, count, [], _short(raw, 16))
    maps = np.frombuffer(body, dtype="<f4").reshape(n, -1)
    valid = np.isfinite(maps).all(axis=1) & (np.abs(maps) <= 1.0).all(axis=1)
    digests = [_short(body[i * map_bytes:(i + 1) * map_bytes], 4) for i in range(n)]
    return Outcome(count, count - int(valid.sum()), digests, _short(raw, 16))


def check(workload: Workload, outdir: str, exit_code: int) -> Outcome:
    if workload.grid is not None:
        return check_sweep(workload.grid, outdir, exit_code)
    return check_maps(outdir, exit_code)


# ---------------------------------------------------------------------------
# Reference outputs of the seed commit
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def reference_entry(outcome: Outcome, workload: Workload) -> dict:
    if workload.grid is not None:
        return {"file": outcome.file_digest, "rows": outcome.digests}
    return {"file": outcome.file_digest, "maps": "".join(outcome.digests)}


def mismatch(outcome: Outcome, workload: Workload, seed: int, reference: dict) -> float:
    """Share of the reference's rows (sweeps, as a set) or maps (quanvolve,
    by position) that this output does not reproduce."""
    entry = reference.get(workload.name, {}).get(str(input_set(seed)))
    if entry is None:
        raise MissingReference(f"reference.json has no output for {workload.name} "
                       f"input set {input_set(seed)}")
    if outcome.file_digest == entry["file"]:
        return 0.0
    if workload.grid is not None:
        rows = set(outcome.digests)
        return sum(1 for d in entry["rows"] if d not in rows) / len(entry["rows"])
    ref = entry["maps"]
    ref_maps = [ref[i:i + 8] for i in range(0, len(ref), 8)]
    matched = sum(1 for a, b in zip(outcome.digests, ref_maps) if a == b)
    return 1.0 - matched / len(ref_maps)
