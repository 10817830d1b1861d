"""Acceptance suite: executes the full benchmark protocol and checks each
release criterion at its pinned tolerance, printing one PASS/FAIL line per
criterion (run with -s to see them live).

The sweeps run on the built-in synthetic stand-in corpus unless
QUANVBENCH_DATA_DIR points at a directory with real IDX files
(mnist/train-images-idx3-ubyte etc.), in which case those are used.

Known honest failure: criterion 5's epsilon=15 clause.  With the default
pipeline (angle encoding phi = pi * x, exact expectations, unclamped
attacks), perturbing any pixel by an exact even integer leaves the encoded
state unchanged up to global phase, and an odd integer shift negates
(cos, sin)(pi x): every channel of the four rotation-filter ansatze is a
sinusoid of its own pixel, so quanvolve(x + 1) == -quanvolve(x) for them
(the random filter flips the sign of only some terms).  FGSM accuracy at
eps in {2, 10} therefore equals clean accuracy exactly (their difference,
the criterion's first clause, is exactly 0), while eps = 15 negates the
features and collapses accuracy, so |acc(2) - acc(15)| far exceeds the
0.15 tolerance.  The clause is asserted as specified and reports the
measured numbers rather than a weakened threshold.
"""
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from quanvbench import data, nn, quanv, verify
from quanvbench.ansatz import AnsatzKind, build_ansatz
from quanvbench.attacks import AttackKind
from quanvbench.harness import (
    SweepConfig, SweepRecord, emit_csv, run_sweep, task_records, train_task)
from quanvbench.nn import Architecture
from quanvbench.quanv import QuanvConfig
from quanvbench.synthdata import synthetic_dataset

pytestmark = pytest.mark.acceptance

THREADS = int(os.environ.get("QUANVBENCH_THREADS", "2"))
ANSATZ_NAMES = ("no_entanglement", "zz_full", "zz_linear", "zz_star", "random")


@pytest.fixture
def report(capsys):
    """Prints one [PASS]/[FAIL] line per criterion through pytest's capture."""

    def _report(criterion: str, passed: bool, detail: str) -> bool:
        line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        print(line)  # embed in captured output for failure reports too
        return passed

    return _report


def load_benchmark_data(name: str):
    """50/30 stratified subsets from real IDX files if present, else synthetic."""
    root = os.environ.get("QUANVBENCH_DATA_DIR")
    if root:
        img = os.path.join(root, name, "train-images-idx3-ubyte")
        lbl = os.path.join(root, name, "train-labels-idx1-ubyte")
        t_img = os.path.join(root, name, "t10k-images-idx3-ubyte")
        t_lbl = os.path.join(root, name, "t10k-labels-idx1-ubyte")
        if all(os.path.exists(p) for p in (img, lbl, t_img, t_lbl)):
            train_pool = data.load_idx(img, lbl, name)
            test_pool = data.load_idx(t_img, t_lbl, name)
            train, _ = data.subset(train_pool, 50, 0, seed=0)
            test, _ = data.subset(test_pool, 30, 0, seed=1)
            return tuple(data.Dataset(data.pixels(split.images), split.labels, name)
                         for split in (train, test))
    pool = synthetic_dataset(name, 600, seed=7)
    return data.subset(pool, 50, 30, seed=0)


def run_default_sweep(name: str):
    train, test = load_benchmark_data(name)
    cfg = SweepConfig(train_data=train, test_data=test, base_seed=0)
    t0 = time.perf_counter()
    records = run_sweep(cfg, threads=THREADS, progress=lambda m: None)
    return cfg, records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mnist_sweep():
    return run_default_sweep("mnist")


@pytest.fixture(scope="module")
def mnist_trained(mnist_sweep):
    """The MNIST sweep once more, in this process, through the trial API the
    pool's workers run: its trained tasks and its sorted records."""
    cfg, _, _ = mnist_sweep
    tasks = [train_task(cfg, architecture, trial)
             for architecture in cfg.architectures for trial in range(cfg.trials)]
    records = [record for task in tasks for records in task_records(cfg, task)
               for record in records]
    return tasks, sorted(records, key=SweepRecord.sort_key)


@pytest.fixture(scope="module")
def fmnist_sweep():
    return run_default_sweep("fmnist")


def mean_acc(records, **filters):
    vals = [r.accuracy for r in records
            if all(getattr(r, k) == v for k, v in filters.items())]
    assert vals, f"no records match {filters}"
    return float(np.mean(vals))


def trial_means(records, keep=lambda r: True, **filters):
    """trial -> mean accuracy of its records that match ``filters`` and ``keep``."""
    by_trial = {}
    for r in records:
        if keep(r) and all(getattr(r, k) == v for k, v in filters.items()):
            by_trial.setdefault(r.trial, []).append(r.accuracy)
    assert by_trial, f"no records match {filters}"
    return {trial: float(np.mean(accs)) for trial, accs in by_trial.items()}


def mean_se(by_trial):
    """The mean of per-trial values and its standard error."""
    v = np.array([by_trial[t] for t in sorted(by_trial)])
    return f"{v.mean():.3f} +/- {np.std(v, ddof=1) / np.sqrt(len(v)):.3f}"


def paired(a, b):
    """The per-trial differences a - b of two arms that share each trial's
    data: their mean, its standard error, and the trials each side wins."""
    assert a.keys() == b.keys()
    d = np.array([a[t] - b[t] for t in sorted(a)])
    se = np.std(d, ddof=1) / np.sqrt(len(d))
    return (f"{d.mean():+.3f} +/- {se:.3f} (wins {int(np.sum(d > 0))}-{int(np.sum(d < 0))} "
            f"of {len(d)})")


# ---------------------------------------------------------------------------
# Criterion 1: oracle suite via the verify command, < 60 s
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_suite(report):
    t0 = time.perf_counter()
    results = verify.run_all()
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.passed]
    ok = not failed and elapsed < 60.0
    assert report(
        "criterion 1 (oracle suite)",
        ok,
        f"{len(results) - len(failed)}/{len(results)} suites passed in {elapsed:.1f}s "
        f"(budget 60s)" + (f"; failed: {failed}" if failed else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 2: full sweep completes, reproducible byte-for-byte
# ---------------------------------------------------------------------------

def test_criterion_2_protocol_fidelity(mnist_sweep, mnist_trained, tmp_path, report):
    # the sweep ran with THREADS workers; the rerun runs in this process
    cfg, records, elapsed = mnist_sweep
    per_trial_rows = sum(len(cfg.epsilons_for(a)) for a in cfg.attacks)
    expected_rows = (2 + len(cfg.ansatz_kinds)) * cfg.trials * per_trial_rows
    complete = len(records) == expected_rows

    _tasks, rerun = mnist_trained
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit_csv(records, p1)
    emit_csv(rerun, p2)
    identical = p1.read_bytes() == p2.read_bytes()

    ok = complete and identical and elapsed < 7200.0
    assert report(
        "criterion 2 (protocol fidelity)",
        ok,
        f"{len(records)}/{expected_rows} records in {elapsed:.0f}s (budget 7200s), "
        f"in-process rerun byte-identical: {identical}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: clean-accuracy sanity on MNIST
# ---------------------------------------------------------------------------

def test_criterion_3_clean_accuracy(mnist_trained, report):
    # the in-process tasks' models: criterion 2 checks their records are the sweep's
    tasks, _records = mnist_trained
    models = [trained for task in tasks for _, trained in task.models]
    worst_train = min(trained.train_accuracy for trained in models)
    worst_clean = min(trained.clean_accuracy for trained in models)
    ok = worst_train >= 0.9 and worst_clean >= 0.5
    assert report(
        "criterion 3 (clean-accuracy sanity)",
        ok,
        f"{len(models)} trained models: min train accuracy {worst_train:.3f} "
        f"(floor 0.9), min clean test accuracy {worst_clean:.3f} (floor 0.5)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: robustness gap, MNIST / FGSM / zz_full / surrogate
# ---------------------------------------------------------------------------

def test_criterion_4_robustness_gap(mnist_sweep, report, capsys):
    # "largest common epsilon" = the largest point shared by all attack
    # grids (the base grid's 10); 15 is the FGSM-only extension.  The
    # FGSM-15 numbers are printed alongside for transparency.
    cfg, records, _ = mnist_sweep
    eps_common = max(cfg.epsilons)
    q = mean_acc(records, architecture="qunn", ansatz="zz_full",
                 attack="fgsm", epsilon=eps_common)
    c = mean_acc(records, architecture="classical_cnn", attack="fgsm", epsilon=eps_common)
    gap = q - c
    eps_top = max(cfg.epsilons_for(AttackKind.FGSM))
    q15 = mean_acc(records, architecture="qunn", ansatz="zz_full",
                   attack="fgsm", epsilon=eps_top)
    c15 = mean_acc(records, architecture="classical_cnn", attack="fgsm", epsilon=eps_top)
    ok = gap >= 0.3
    stats = [f"fgsm@{eps:g} " + paired(
        trial_means(records, architecture="qunn", ansatz="zz_full", attack="fgsm", epsilon=eps),
        trial_means(records, architecture="classical_cnn", attack="fgsm", epsilon=eps))
        for eps in (eps_common, 0.05)]
    with capsys.disabled():
        print("    (report-only) criterion 4 paired per trial, qunn/zz_full - classical_cnn: "
              + "; ".join(stats), flush=True)
    assert report(
        "criterion 4 (robustness gap)",
        ok,
        f"at eps={eps_common:g}: qunn/zz_full {q:.3f} vs classical_cnn {c:.3f}, "
        f"gap {gap:+.3f} (need >= +0.3); at fgsm-only eps={eps_top:g}: "
        f"{q15:.3f} vs {c15:.3f}",
    )


# ---------------------------------------------------------------------------
# Report-only: qunn under end_to_end attacks next to the surrogate numbers
# ---------------------------------------------------------------------------

REPORT_EPSILONS = (0.05, 0.1)


def test_report_end_to_end_next_to_surrogate(mnist_sweep, mnist_trained, capsys):
    """Report-only, no gate: whether the surrogate robustness of the heads
    survives their own exact gradients.  Training reads neither the mode nor
    the grid, so the in-process pass's heads are the ones an end_to_end sweep
    trains, and under the end_to_end config `task_records` attacks them with
    their own gradients.  The grid stops at the reported budgets: each
    epsilon's attack is independent of the others, so these are the full
    grid's numbers."""
    cfg, surrogate, _ = mnist_sweep
    tasks, _records = mnist_trained
    cfg = replace(cfg, mode="end_to_end", epsilons=(0.0,) + REPORT_EPSILONS,
                  fgsm_extra_epsilons=())
    t0 = time.perf_counter()
    end_to_end = [record for task in tasks if task.architecture is Architecture.QUNN
                  for records in task_records(cfg, task) for record in records]
    lines = [f"    (report-only) mnist qunn accuracy, surrogate/end_to_end "
             f"({time.perf_counter() - t0:.1f}s for the end_to_end attacks):"]
    for ans in ANSATZ_NAMES:
        cells = []
        for attack in ("fgsm", "pgd", "mim"):
            for eps in REPORT_EPSILONS:
                cell = dict(architecture="qunn", ansatz=ans, attack=attack, epsilon=eps)
                cells.append(f"{attack}@{eps:g} {mean_acc(surrogate, **cell):.3f}/"
                             f"{mean_acc(end_to_end, **cell):.3f}")
        lines.append(f"      {ans}: " + "  ".join(cells))
    with capsys.disabled():
        print("\n".join(lines), flush=True)


# ---------------------------------------------------------------------------
# Criterion 5: plateau between eps=2 and eps=10/15 under FGSM
# ---------------------------------------------------------------------------

def test_criterion_5_plateau(mnist_sweep, report):
    _cfg, records, _ = mnist_sweep
    details, ok = [], True
    for ans in ANSATZ_NAMES:
        a2 = mean_acc(records, architecture="qunn", ansatz=ans, attack="fgsm", epsilon=2.0)
        a10 = mean_acc(records, architecture="qunn", ansatz=ans, attack="fgsm", epsilon=10.0)
        a15 = mean_acc(records, architecture="qunn", ansatz=ans, attack="fgsm", epsilon=15.0)
        d10, d15 = abs(a2 - a10), abs(a2 - a15)
        ok &= d10 <= 0.15 and d15 <= 0.15
        details.append(f"{ans}: |2-10|={d10:.3f} |2-15|={d15:.3f}")
    assert report(
        "criterion 5 (plateau beyond eps=1)",
        ok,
        "; ".join(details) + " (tolerance 0.15)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: ansatz ordering over eps >= 0.5
# ---------------------------------------------------------------------------

def test_criterion_6_ansatz_ordering(mnist_sweep, fmnist_sweep, report, capsys):
    _cfg, records, _ = mnist_sweep
    details, ok = [], True
    for attack in ("fgsm", "pgd", "mim"):
        means = {}
        for ans in ("zz_full", "zz_star", "random"):
            vals = [r.accuracy for r in records
                    if r.architecture == "qunn" and r.ansatz == ans
                    and r.attack == attack and r.epsilon >= 0.5]
            means[ans] = float(np.mean(vals))
        good = means["zz_full"] >= means["random"] and means["zz_star"] >= means["random"]
        ok &= good
        details.append(
            f"{attack}: full={means['zz_full']:.3f} star={means['zz_star']:.3f} "
            f"random={means['random']:.3f}"
        )
        high = {ans: trial_means(records, keep=lambda r: r.epsilon >= 0.5, architecture="qunn",
                                 ansatz=ans, attack=attack)
                for ans in ("zz_full", "zz_star", "random")}
        with capsys.disabled():
            print(f"    (report-only) criterion 6 paired per trial, {attack} eps>=0.5: "
                  f"zz_full - random {paired(high['zz_full'], high['random'])}; "
                  f"zz_star - random {paired(high['zz_star'], high['random'])}", flush=True)
    # report-only: the FMNIST reversal (random outperforming) is not gated
    _fcfg, frecords, _ = fmnist_sweep
    fm = {}
    for ans in ("zz_full", "random"):
        vals = [r.accuracy for r in frecords
                if r.architecture == "qunn" and r.ansatz == ans and r.epsilon >= 0.5]
        fm[ans] = float(np.mean(vals))
    with capsys.disabled():
        print(f"    (report-only) fmnist eps>=0.5 means: zz_full={fm['zz_full']:.3f} "
              f"random={fm['random']:.3f} -> reversal "
              f"{'observed' if fm['random'] > fm['zz_full'] else 'not observed'}", flush=True)
    assert report(
        "criterion 6 (ansatz ordering, mnist)", ok, "; ".join(details)
    )


# ---------------------------------------------------------------------------
# Criterion 7: FMNIST degradation
# ---------------------------------------------------------------------------

def test_criterion_7_fmnist_degradation(fmnist_sweep, report, capsys):
    cfg, records, _ = fmnist_sweep
    details, ok = [], True
    for attack in AttackKind:
        eps_max = max(cfg.epsilons_for(attack))
        cnn = mean_acc(records, architecture="classical_cnn", attack=attack.value, epsilon=eps_max)
        fc = mean_acc(records, architecture="classical_fc", attack=attack.value, epsilon=eps_max)
        high = [r.accuracy for r in records
                if r.architecture == "qunn" and r.ansatz == "zz_full"
                and r.attack == attack.value and r.epsilon >= 1.0]
        q_high = float(np.mean(high))
        good = cnn < 0.1 and fc < 0.1 and 0.2 <= q_high <= 0.6
        ok &= good
        details.append(
            f"{attack.value}: classical@{eps_max:g} cnn={cnn:.3f} fc={fc:.3f} (<0.1), "
            f"qunn high-eps {q_high:.3f} (in [0.2, 0.6])"
        )
        cells = [("qunn/zz_full@>=1", dict(keep=lambda r: r.epsilon >= 1.0,
                                            architecture="qunn", ansatz="zz_full"))]
        cells += [(f"{arch}@{eps_max:g}", dict(architecture=arch, epsilon=eps_max))
                  for arch in ("classical_cnn", "classical_fc")]
        stats = [f"{name} {mean_se(trial_means(records, attack=attack.value, **cell))}"
                 for name, cell in cells]
        with capsys.disabled():
            print(f"    (report-only) criterion 7 per-trial mean +/- standard error, "
                  f"{attack.value}: " + "; ".join(stats), flush=True)
    assert report("criterion 7 (fmnist degradation)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 8: structural laws
# ---------------------------------------------------------------------------

def test_criterion_8_structural_laws(rng, report):
    img = rng.uniform(0, 1, (28, 28, 1))

    qcfg = QuanvConfig(circuit=build_ansatz(AnsatzKind.ZZ_FULL, seed=1))
    fmap = quanv.quanvolve_image(img, qcfg)
    quanv_shape = fmap.shape == (14, 14, 4)
    in_range = bool(np.all(fmap >= -1 - 1e-12) and np.all(fmap <= 1 + 1e-12))

    cnn = nn.build_model(Architecture.CLASSICAL_CNN, "mnist", seed=1)
    conv_out, _ = cnn.layers[0].forward(img[None])
    conv_shape = conv_out.shape == (1, 14, 14, 4)

    probs = nn.forward(cnn, img[None])[0][0]
    softmax_ok = bool(np.isclose(probs.sum(), 1.0, atol=1e-6) and np.all(probs >= 0))

    pool = synthetic_dataset("mnist", 400, seed=3)
    train, test = data.subset(pool, 50, 30, seed=0)
    tr_counts = np.bincount(train.labels, minlength=10)
    te_counts = np.bincount(test.labels, minlength=10)
    stratified = (
        len(train) == 50 and len(test) == 30
        and set(tr_counts) == {5} and set(te_counts) == {3}
    )

    ok = quanv_shape and in_range and conv_shape and softmax_ok and stratified
    assert report(
        "criterion 8 (structural laws)",
        ok,
        f"quanv 28x28->14x14x4: {quanv_shape}; features in [-1,1]: {in_range}; "
        f"conv 28x28->14x14x4: {conv_shape}; softmax normalized: {softmax_ok}; "
        f"stratified 50/30: {stratified}",
    )
