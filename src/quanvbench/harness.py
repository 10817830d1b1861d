"""Sweep orchestration: trials, aggregation, CSV and SVG emission.

A sweep crosses architectures (two classical models plus the quantum-feature
head under each configured filter circuit) with attacks and an epsilon grid,
running `trials` independently seeded repetitions of the four-step protocol:

    1. quanvolve the train/test subsets with the trial's freshly seeded
       filter circuit (classical architectures skip this),
    2. train the model (batch 4, 30 epochs by default),
    3. build adversarial test sets for every attack and nonzero epsilon,
    4. evaluate and record accuracy; at epsilon 0 the set is the clean test
       set (pixels lie in [0, 1], so clamping keeps them), and its accuracy
       is the clean accuracy measured after step 2.

The pool's task is one (architecture, trial), computed as
``task_records(cfg, train_task(cfg, architecture, trial))`` by the serial
sweep, by each worker and by any caller that wants the trained models.
`train_task` does steps 1 and 2, every model built and trained once by `_fit`:
each `TrainedModel` (one head per ansatz for qunn, a qunn task's train and
test sets each encoded once, `quanv.encode`, and contracted by every head)
and in "surrogate" mode a qunn task's surrogate, a classical CNN on the raw
pixels.  `task_records` does steps 3 and 4, and ``cfg.mode`` alone picks
each model's attacker there: the surrogate for every head in "surrogate"
mode, otherwise the model's own gradients (through the quanvolution for a
head).  It starts each model's row with its clean accuracy, builds each set
with `attack_batch` (a source's attacks share one clean-image gradient),
encodes it once if its models have filters, lets them all score it and
drops it; `run_trial` zips a row with the attack's epsilon grid.

Determinism: every random draw is derived from base_seed via stable hashes
of the cell coordinates other than the attack, so any (architecture, ansatz,
trial) model can be recomputed in isolation and a rerun of the whole sweep
-- at any worker count -- reproduces the output CSV byte for byte.
"""
from __future__ import annotations

import functools
import hashlib
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nn, quanv
from .ansatz import AnsatzKind, build_ansatz
from .attacks import AttackConfig, AttackKind, EndToEndSource, SurrogateSource, attack_batch
from .data import DATASETS, Dataset
from .nn import Architecture
from .quanv import QuanvConfig

DEFAULT_EPSILONS = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
FGSM_EXTRA_EPSILONS = (15.0,)
CLASSICAL_ANSATZ = "-"  # the ansatz label of classical models


@dataclass(frozen=True)
class SweepConfig:
    train_data: Dataset
    test_data: Dataset
    architectures: tuple[Architecture, ...] = tuple(Architecture)
    ansatz_kinds: tuple[AnsatzKind, ...] = tuple(AnsatzKind)
    attacks: tuple[AttackKind, ...] = tuple(AttackKind)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    fgsm_extra_epsilons: tuple[float, ...] = FGSM_EXTRA_EPSILONS
    trials: int = 7
    base_seed: int = 0
    mode: str = "surrogate"  # "surrogate" | "end_to_end"
    clamp: bool = False  # clip adversarial pixels to [0, 1]
    train_cfg: nn.TrainConfig = field(default_factory=nn.TrainConfig)

    def __post_init__(self):
        if len(self.train_data) == 0 or len(self.test_data) == 0:
            raise ValueError(f"train and test sets must not be empty, got "
                             f"{len(self.train_data)} and {len(self.test_data)} images")
        for split in (self.train_data, self.test_data):
            if split.images.dtype.kind != "f":
                raise ValueError(f"images must be float pixels, got {split.images.dtype}: "
                                 f"convert raw IDX bytes with data.pixels first")
            nn.check_image_shape(split.images)
        dataset = self.train_data.name
        if dataset not in DATASETS:
            raise ValueError(f"train_data.name must be {' or '.join(DATASETS)}, got {dataset!r}")
        if self.test_data.name != dataset:  # every row is labelled with the train set's name
            raise ValueError(f"test_data.name must be {dataset!r} too, got {self.test_data.name!r}")
        if not isinstance(self.train_cfg, nn.TrainConfig):
            raise ValueError(f"train_cfg must be an nn.TrainConfig, got {self.train_cfg!r}")
        for name, values, kind in (("architectures", self.architectures, Architecture),
                                   ("ansatz_kinds", self.ansatz_kinds, AnsatzKind),
                                   ("attacks", self.attacks, AttackKind)):
            if not values:
                raise ValueError(f"{name} must not be empty")
            for v in values:
                if not isinstance(v, kind):
                    raise ValueError(f"{name} must hold {kind.__name__} members, got {v!r}")
            repeated = sorted({v.value for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} lists {', '.join(repeated)} more than once")
        # a float seed would hash as "1.0", not "1", and draw other circuits and weights
        for name in ("trials", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode not in ("surrogate", "end_to_end"):
            raise ValueError(f"unknown gradient mode {self.mode!r}")
        if not isinstance(self.clamp, bool):
            raise ValueError(f"clamp must be True or False, got {self.clamp!r}")
        for name in ("epsilons", "fgsm_extra_epsilons"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"{name} must be a tuple, got {getattr(self, name)!r}")
        for name, grid in (("epsilons", self.epsilons),
                           ("fgsm_extra_epsilons", self.epsilons_for(AttackKind.FGSM))):
            if not all(math.isfinite(e) for e in grid):
                raise ValueError(f"{name}: epsilon grid must be finite, got {grid}")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name}: epsilon grid must be strictly ascending, got {grid}")
            if not grid or grid[0] != 0.0:
                raise ValueError(f"{name}: epsilon grid must start at 0")

    def epsilons_for(self, attack: AttackKind) -> tuple[float, ...]:
        if attack is AttackKind.FGSM:
            return self.epsilons + self.fgsm_extra_epsilons
        return self.epsilons


@dataclass(frozen=True)
class SweepRecord:
    """One row of results.csv: a cell's accuracy at one epsilon in one trial."""

    dataset: str
    architecture: str
    ansatz: str  # CLASSICAL_ANSATZ for classical architectures
    attack: str
    mode: str
    epsilon: float
    trial: int
    accuracy: float

    def sort_key(self):
        return (self.dataset, self.architecture, self.ansatz, self.attack,
                self.mode, self.epsilon, self.trial)


CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


@dataclass(frozen=True)
class AggregateRecord:
    dataset: str
    architecture: str
    ansatz: str
    attack: str
    mode: str
    epsilon: float
    mean_accuracy: float
    std_accuracy: float
    n_trials: int


@dataclass(frozen=True)
class TrainedModel:
    """One (architecture, ansatz, trial)'s model after steps 1 and 2.

    ``qcfg`` is the filter that quanvolves its inputs (None for classical
    models); the accuracies are measured on the training and clean test sets.
    """

    model: nn.Model
    qcfg: QuanvConfig | None
    train_accuracy: float
    clean_accuracy: float

    def evaluate(self, images: np.ndarray, labels: np.ndarray, encoding=None) -> float:
        """Accuracy on pixel images, quanvolved first when the model has a filter
        (contracting ``encoding``, their `quanv.encode`, when it is given)."""
        if self.qcfg is not None:
            encoding = quanv.encode(images) if encoding is None else encoding
            images = quanv.contract(self.qcfg, encoding, np.float32)
        return nn.evaluate(self.model, images, labels)


@dataclass(frozen=True)
class TrainedTask:
    """One (architecture, trial)'s (ansatz kind or None, model) pairs."""

    architecture: Architecture
    trial: int
    models: tuple[tuple[AnsatzKind | None, TrainedModel], ...]
    surrogate: nn.Model | None  # the CNN attacking a qunn task's heads in surrogate mode


def stable_seed(*parts) -> int:
    """64-bit seed from a blake2 hash of the stringified parts."""
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _ansatz_label(ansatz_kind: AnsatzKind | None) -> str:
    return ansatz_kind.value if ansatz_kind is not None else CLASSICAL_ANSATZ


def _fit(cfg: SweepConfig, architecture: Architecture, seed: int, inputs) -> nn.Model:
    """A model of ``architecture`` built from ``seed`` and trained on ``inputs``."""
    return nn.train(nn.build_model(architecture, cfg.train_data.name, seed), inputs,
                    cfg.train_data.labels, replace(cfg.train_cfg, seed=seed))


def _train_model(cfg: SweepConfig, architecture: Architecture,
                 ansatz_kind: AnsatzKind | None, trial: int, encodings) -> TrainedModel:
    """Steps 1 and 2 for one (architecture, ansatz, trial); a head contracts
    ``encodings``, its task's one `quanv.encode` of the train and test sets."""
    cell_seed = stable_seed(cfg.base_seed, cfg.train_data.name, architecture.value,
                            _ansatz_label(ansatz_kind), trial)

    if architecture is Architecture.QUNN:
        qcfg = QuanvConfig(circuit=build_ansatz(ansatz_kind, seed=cell_seed))
        # float32, each float64 channel sum rounded as it is stored: the precision
        # every head is trained and evaluated at (and the one `quanvbench
        # quanvolve` writes); results.csv depends on this rounding
        train_x, test_x = (quanv.contract(qcfg, encoding, np.float32) for encoding in encodings)
    else:
        qcfg, train_x, test_x = None, cfg.train_data.images, cfg.test_data.images

    model = _fit(cfg, architecture, cell_seed, train_x)
    return TrainedModel(model, qcfg, nn.evaluate(model, train_x, cfg.train_data.labels),
                        nn.evaluate(model, test_x, cfg.test_data.labels))


def train_task(cfg: SweepConfig, architecture: Architecture, trial: int) -> TrainedTask:
    """Steps 1 and 2 for one (architecture, trial): each model trained once,
    and in surrogate mode a qunn task's surrogate CNN on the raw pixels."""
    qunn = architecture is Architecture.QUNN
    encodings = tuple(quanv.encode(split.images) if qunn else None
                      for split in (cfg.train_data, cfg.test_data))
    models = tuple((kind, _train_model(cfg, architecture, kind, trial, encodings))
                   for kind in (cfg.ansatz_kinds if qunn else (None,)))
    surrogate = None
    if qunn and cfg.mode == "surrogate":
        seed = stable_seed(cfg.base_seed, "surrogate", cfg.train_data.name, trial)
        surrogate = _fit(cfg, Architecture.CLASSICAL_CNN, seed, cfg.train_data.images)
    return TrainedTask(architecture, trial, models, surrogate)


def run_trial(cfg: SweepConfig, architecture: Architecture, ansatz_kind: AnsatzKind | None,
              attack: AttackKind, trial: int, accuracies) -> list[SweepRecord]:
    """The records of one cell and one trial: ``accuracies`` holds one model's
    accuracy at each epsilon of the attack's grid, in order, as `task_records`
    scores them (the clean accuracy at the grid's first epsilon, 0)."""
    ansatz_label = _ansatz_label(ansatz_kind)
    return [SweepRecord(
        dataset=cfg.train_data.name, architecture=architecture.value, ansatz=ansatz_label,
        attack=attack.value, mode=cfg.mode, epsilon=float(epsilon), trial=trial, accuracy=accuracy,
    ) for epsilon, accuracy in zip(cfg.epsilons_for(attack), accuracies, strict=True)]


def task_records(cfg: SweepConfig, task: TrainedTask):
    """Yield the record lists of one trained task, one per cell, source by source
    and attack by attack.  ``cfg.mode`` picks the sources: in surrogate mode the
    task's surrogate attacks every head, otherwise each model faces its own
    gradients.  A source's attacks share one clean-image gradient; its sets are
    built one at a time, encoded once if they need it, scored by all its models."""
    images, labels = cfg.test_data.images, cfg.test_data.labels
    qunn = task.architecture is Architecture.QUNN
    if qunn and cfg.mode == "surrogate":
        if task.surrogate is None:
            raise ValueError(f"qunn trial {task.trial} has no surrogate to attack it in surrogate mode")
        groups = [(SurrogateSource(task.surrogate), task.models)]
    else:
        groups = [(EndToEndSource(m.qcfg, m.model) if qunn else SurrogateSource(m.model), [(k, m)])
                  for k, m in task.models]  # each model's own gradients
    for source, models in groups:
        clean_gradient = functools.cache(functools.partial(source.gradient, images, labels))
        for attack in cfg.attacks:
            accuracies = [[trained.clean_accuracy] for _, trained in models]
            for epsilon in cfg.epsilons_for(attack)[1:]:
                adv = attack_batch(source, images, labels, AttackConfig(
                    attack, epsilon, clamp=cfg.clamp), gradient=clean_gradient())
                encoding = quanv.encode(adv) if qunn else None
                for row, (_, trained) in zip(accuracies, models):
                    row.append(trained.evaluate(adv, labels, encoding))
            for (kind, _), row in zip(models, accuracies):
                yield run_trial(cfg, task.architecture, kind, attack, task.trial, row)


def _run_task(task) -> list[list[SweepRecord]]:
    return list(task_records(task[0], train_task(*task)))


def _record_lists(cfg: SweepConfig, threads: int):
    tasks = [(cfg, architecture, trial)
             for architecture in cfg.architectures for trial in range(cfg.trials)]
    workers = min(threads, len(tasks))  # the pool starts every worker up front
    if workers <= 1:
        for task in tasks:
            yield from task_records(cfg, train_task(*task))
    else:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for lists in pool.map(_run_task, tasks, chunksize=1):
                yield from lists


def iter_sweep(cfg: SweepConfig, threads: int = 1, progress=None):
    """Yield one (cell, trial)'s records at a time; lets callers keep
    partial results if a later task fails.  For ``threads > 1``, set
    OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before numpy
    is first imported, as the CLI does, or every forked worker runs BLAS threads."""
    total = cfg.trials * len(cfg.attacks) * sum(
        len(cfg.ansatz_kinds) if a is Architecture.QUNN else 1 for a in cfg.architectures)
    if progress is None:
        progress = lambda msg: print(msg, file=sys.stderr)
    for i, records in enumerate(_record_lists(cfg, threads), 1):
        r = records[0]
        progress(f"[{i}/{total}] {r.architecture}/{r.ansatz}/{r.attack} trial {r.trial}")
        yield records


def run_sweep(cfg: SweepConfig, threads: int = 1, progress=None) -> list[SweepRecord]:
    """Run every (cell, trial); records sorted so output is order-independent.
    For ``threads > 1``, set the BLAS thread variables first (see `iter_sweep`)."""
    records: list[SweepRecord] = []
    for batch in iter_sweep(cfg, threads=threads, progress=progress):
        records.extend(batch)
    return sorted(records, key=SweepRecord.sort_key)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(records: list[SweepRecord], expected_trials: int | None = None) -> list[AggregateRecord]:
    """Mean and sample standard deviation (n-1) over trials per cell."""
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict = {}
    for r in records:
        key = (r.dataset, r.architecture, r.ansatz, r.attack, r.mode, r.epsilon)
        groups.setdefault(key, {})
        if r.trial in groups[key]:
            raise ValueError(f"duplicate record for {key} trial {r.trial}")
        groups[key][r.trial] = r.accuracy

    out = []
    for key in sorted(groups):
        accs = np.array([groups[key][t] for t in sorted(groups[key])])
        if expected_trials is not None and len(accs) != expected_trials:
            raise ValueError(f"cell {key} has {len(accs)} trials, expected {expected_trials}")
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        out.append(AggregateRecord(*key, float(np.mean(accs)), std, len(accs)))
    return out


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def emit_csv(records: list[SweepRecord], path) -> None:
    """Write the per-trial records; header row, '.' decimals, newline-final."""
    if not records:
        raise ValueError("no records to write")
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_format_value(getattr(r, col)) for col in CSV_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG robustness chart
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_PLOT = {"width": 860, "height": 520, "left": 70, "right": 210, "top": 40, "bottom": 50}
_ZERO_GAP = 36  # x-pixels reserved left of the log region for epsilon = 0


def _x_positions(epsilons: list[float]):
    """Log-scale x for positive epsilons; 0 pinned left of a break marker."""
    left = _PLOT["left"]
    right = _PLOT["width"] - _PLOT["right"]
    positive = sorted({e for e in epsilons if e > 0})
    log_left = left + (_ZERO_GAP if 0.0 in epsilons else 0)
    if not positive:
        return {0.0: left}, log_left
    lo, hi = np.log10(positive[0]), np.log10(positive[-1])
    span = hi - lo if hi > lo else 1.0

    def x_of(e):
        if e == 0.0:
            return float(left)
        return float(log_left + (np.log10(e) - lo) / span * (right - log_left))

    return {e: x_of(e) for e in sorted(set(epsilons))}, log_left


def _y_of(acc: float) -> float:
    top, bottom = _PLOT["top"], _PLOT["height"] - _PLOT["bottom"]
    return bottom - acc * (bottom - top)


def emit_plot(aggregated: list[AggregateRecord], path) -> None:
    """Accuracy-versus-epsilon SVG: one polyline per architecture/ansatz
    series, +/- one standard deviation error bars, log-scale x with a break
    marker separating the pinned epsilon = 0 position."""
    if not aggregated:
        raise ValueError("nothing to plot")
    attacks = {a.attack for a in aggregated}
    datasets = {a.dataset for a in aggregated}
    if len(attacks) != 1 or len(datasets) != 1:
        raise ValueError("emit_plot expects records for a single (dataset, attack)")
    attack, dataset = attacks.pop(), datasets.pop()

    series: dict = {}
    for a in sorted(aggregated, key=lambda r: r.epsilon):
        series.setdefault((a.architecture, a.ansatz), []).append(a)
    epsilons = sorted({a.epsilon for a in aggregated})
    xs, log_left = _x_positions(epsilons)

    w, hgt = _PLOT["width"], _PLOT["height"]
    left, right = _PLOT["left"], w - _PLOT["right"]
    top, bottom = _PLOT["top"], hgt - _PLOT["bottom"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{hgt}" '
        f'viewBox="0 0 {w} {hgt}" font-family="sans-serif" font-size="12">',
        f'<text x="{left}" y="{top - 16}" font-size="14">{dataset} / {attack} '
        f'accuracy vs epsilon</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _y_of(frac)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 34}" y="{y + 4:.1f}">{frac:.2f}</text>')
    for e in epsilons:
        x = xs[e]
        parts.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 4}" stroke="black"/>')
        label = "0" if e == 0 else f"{e:g}"
        parts.append(f'<text x="{x - 8:.1f}" y="{bottom + 18}">{label}</text>')
    if 0.0 in xs and len(epsilons) > 1:
        # axis-break marker between the pinned zero and the log region
        bx = (xs[0.0] + log_left) / 2
        parts.append(f'<line x1="{bx - 3:.1f}" y1="{bottom - 5}" x2="{bx + 1:.1f}" '
                     f'y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<line x1="{bx + 1:.1f}" y1="{bottom - 5}" x2="{bx + 5:.1f}" '
                     f'y2="{bottom + 5}" stroke="black"/>')

    for i, (key, rows) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{xs[r.epsilon]:.1f},{_y_of(r.mean_accuracy):.1f}" for r in rows)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        for r in rows:
            x, y0, y1 = xs[r.epsilon], _y_of(r.mean_accuracy - r.std_accuracy), _y_of(r.mean_accuracy + r.std_accuracy)
            parts.append(f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y1:.1f}" stroke="{color}"/>')
            parts.append(f'<line x1="{x - 3:.1f}" y1="{y0:.1f}" x2="{x + 3:.1f}" y2="{y0:.1f}" stroke="{color}"/>')
            parts.append(f'<line x1="{x - 3:.1f}" y1="{y1:.1f}" x2="{x + 3:.1f}" y2="{y1:.1f}" stroke="{color}"/>')
        label = key[0] if key[1] == CLASSICAL_ANSATZ else f"{key[0]}/{key[1]}"
        ly = top + 16 * i
        parts.append(f'<line x1="{right + 10}" y1="{ly}" x2="{right + 30}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{right + 36}" y="{ly + 4}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
