import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from quanvbench import harness, nn
from quanvbench.ansatz import AnsatzKind
from quanvbench.attacks import (
    AttackConfig, AttackKind, EndToEndSource, SurrogateSource, attack_batch)
from quanvbench.data import Dataset
from quanvbench.harness import (
    AggregateRecord,
    SweepConfig,
    SweepRecord,
    aggregate,
    emit_csv,
    emit_plot,
    run_sweep,
    stable_seed,
    task_records,
    train_task,
)
from quanvbench.nn import Architecture, TrainConfig
from quanvbench.synthdata import synthetic_dataset
from quanvbench.data import subset


def tiny_config(**overrides) -> SweepConfig:
    """Small but real sweep setup: 20 train / 10 test synthetic digits."""
    ds = synthetic_dataset("mnist", 150, seed=2024)
    train, test = subset(ds, 20, 10, seed=0)
    defaults = dict(
        train_data=train,
        test_data=test,
        architectures=(Architecture.CLASSICAL_CNN, Architecture.QUNN),
        ansatz_kinds=(AnsatzKind.ZZ_FULL,),
        attacks=(AttackKind.FGSM,),
        epsilons=(0.0, 0.1, 1.0),
        fgsm_extra_epsilons=(),
        trials=2,
        base_seed=11,
        train_cfg=TrainConfig(epochs=8, seed=0),
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def fake_record(eps, trial, acc, **kw):
    base = dict(dataset="mnist", architecture="qunn", ansatz="zz_full",
                attack="fgsm", mode="surrogate", epsilon=eps, trial=trial,
                accuracy=acc)
    base.update(kw)
    return SweepRecord(**base)


# ---------------------------------------------------------------------------
# run_trial
# ---------------------------------------------------------------------------

def fresh_trial(cfg, architecture, trial):
    """The trained model and records of one freshly trained task, attacked as
    the sweep attacks it; tiny_config's one attack and one ansatz make that a
    single model and a single cell."""
    task = train_task(cfg, architecture, trial)
    ((_, trained),) = task.models
    (records,) = task_records(cfg, task)
    return trained, records


@pytest.fixture(scope="module")
def trial_records():
    cfg = tiny_config()
    return cfg, *fresh_trial(cfg, Architecture.QUNN, 0)


def test_trial_epsilon_zero_equals_clean_accuracy(trial_records):
    _cfg, trained, records = trial_records
    assert records[0].epsilon == 0.0
    assert records[0].accuracy == trained.clean_accuracy


def test_trial_record_count_matches_grid(trial_records):
    cfg, _trained, records = trial_records
    assert len(records) == len(cfg.epsilons_for(AttackKind.FGSM))
    assert [r.epsilon for r in records] == list(cfg.epsilons_for(AttackKind.FGSM))


def test_trial_deterministic(trial_records):
    cfg, _trained, records = trial_records
    _, again = fresh_trial(cfg, Architecture.QUNN, 0)
    assert [r.accuracy for r in again] == [r.accuracy for r in records]


def test_trials_differ(trial_records):
    cfg, trained, records = trial_records
    other_trained, other = fresh_trial(cfg, Architecture.QUNN, 1)
    assert [r.accuracy for r in other] != [r.accuracy for r in records] or (
        other_trained.clean_accuracy != trained.clean_accuracy
    )


def test_classical_trial_skips_quanvolution(trial_records, monkeypatch):
    cfg, _trained, _records = trial_records
    for name in ("quanvolve_dataset", "encode", "contract", "_trig"):
        monkeypatch.setattr(harness.quanv, name, None)  # any call fails
    trained, records = fresh_trial(cfg, Architecture.CLASSICAL_CNN, 0)
    assert records[0].ansatz == "-"
    assert records[0].accuracy == trained.clean_accuracy


# ---------------------------------------------------------------------------
# train_task and task_records
# ---------------------------------------------------------------------------

TWO_HEADS = (AnsatzKind.ZZ_FULL, AnsatzKind.RANDOM)


@pytest.mark.parametrize("overrides", [
    dict(mode="surrogate"), dict(mode="end_to_end"), dict(mode="end_to_end", clamp=True)])
def test_records_composed_in_process_match_the_pooled_sweep(tmp_path, overrides):
    cfg = tiny_config(ansatz_kinds=TWO_HEADS, **overrides)
    composed = sorted((record for architecture in cfg.architectures
                       for trial in range(cfg.trials)
                       for records in task_records(cfg, train_task(cfg, architecture, trial))
                       for record in records), key=SweepRecord.sort_key)
    pooled = run_sweep(cfg, threads=2, progress=lambda msg: None)
    assert composed == pooled
    emit_csv(composed, tmp_path / "composed.csv")
    emit_csv(pooled, tmp_path / "pooled.csv")
    assert (tmp_path / "composed.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()


def test_qunn_heads_do_not_depend_on_the_mode_the_grid_or_clamp():
    # the acceptance suite attacks the surrogate sweep's heads end to end
    surrogate = train_task(tiny_config(ansatz_kinds=TWO_HEADS), Architecture.QUNN, 0)
    end_to_end = train_task(tiny_config(ansatz_kinds=TWO_HEADS, mode="end_to_end", clamp=True,
                                        epsilons=(0.0, 0.05)), Architecture.QUNN, 0)
    for (kind, a), (other, b) in zip(surrogate.models, end_to_end.models, strict=True):
        assert kind is other
        assert a.model.flat.tobytes() == b.model.flat.tobytes()
        assert (a.train_accuracy, a.clean_accuracy) == (b.train_accuracy, b.clean_accuracy)


@pytest.mark.parametrize("mode", ["surrogate", "end_to_end"])
def test_only_a_surrogate_mode_qunn_task_trains_a_surrogate(mode):
    cfg = tiny_config(ansatz_kinds=TWO_HEADS, mode=mode)
    cnn = train_task(cfg, Architecture.CLASSICAL_CNN, 0)
    assert [kind for kind, _ in cnn.models] == [None] and cnn.surrogate is None
    qunn = train_task(cfg, Architecture.QUNN, 0)
    assert [kind for kind, _ in qunn.models] == list(TWO_HEADS)
    if mode == "surrogate":
        # a classical CNN on the raw pixels, none of the heads
        assert qunn.surrogate.arch is Architecture.CLASSICAL_CNN
        assert all(qunn.surrogate is not trained.model for _, trained in qunn.models)
    else:
        assert qunn.surrogate is None


def test_the_mode_alone_picks_the_attacker_of_a_trained_task():
    # a task trained in surrogate mode and scored under end_to_end: its heads
    # face their own gradients, and its records are an end_to_end task's
    surrogate_cfg = tiny_config(ansatz_kinds=TWO_HEADS)
    end_to_end_cfg = replace(surrogate_cfg, mode="end_to_end")
    scored = list(task_records(end_to_end_cfg, train_task(surrogate_cfg, Architecture.QUNN, 0)))
    assert scored == list(task_records(end_to_end_cfg,
                                       train_task(end_to_end_cfg, Architecture.QUNN, 0)))
    assert {record.mode for records in scored for record in records} == {"end_to_end"}


def test_surrogate_mode_rejects_a_qunn_task_without_a_surrogate():
    cfg = tiny_config()
    task = train_task(replace(cfg, mode="end_to_end"), Architecture.QUNN, 0)
    with pytest.raises(ValueError, match="qunn trial 0 has no surrogate"):
        list(task_records(cfg, task))


@pytest.mark.parametrize("clamp", [False, True])
def test_set_by_set_scores_equal_each_heads_own_pixel_path(clamp):
    cfg = two_attack_config(architectures=(Architecture.QUNN,), clamp=clamp)
    task = train_task(cfg, Architecture.QUNN, 0)
    cells = list(task_records(cfg, task))
    images, labels = cfg.test_data.images, cfg.test_data.labels
    source = SurrogateSource(task.surrogate)
    expected = []
    for attack in cfg.attacks:
        for kind, trained in task.models:
            sets = [attack_batch(source, images, labels, AttackConfig(attack, eps, clamp=clamp))
                    for eps in cfg.epsilons_for(attack)[1:]]
            expected.append((kind.value, attack.value, [trained.clean_accuracy] + [
                trained.evaluate(adv, labels) for adv in sets]))
    got = [(r[0].ansatz, r[0].attack, [record.accuracy for record in r]) for r in cells]
    assert repr(got) == repr(expected)


def test_each_shared_set_is_scored_by_every_head_before_the_next_is_built(monkeypatch):
    cfg = two_attack_config(architectures=(Architecture.QUNN,), epsilons=(0.0, 0.1, 0.5))
    task = train_task(cfg, Architecture.QUNN, 0)
    events = []  # the keep filters log the calls in order
    count_calls(monkeypatch, harness, "attack_batch", lambda *args: events.append("build"))
    count_calls(monkeypatch, nn, "evaluate", lambda model, *_: events.append(model))
    list(task_records(cfg, task))
    heads = [trained.model for _, trained in task.models]
    sets = sum(len(cfg.epsilons_for(attack)) - 1 for attack in cfg.attacks)
    assert events == ["build", *heads] * sets


def paper_grid_trial(ansatz_kinds):
    return two_attack_config(architectures=(Architecture.QUNN,), ansatz_kinds=ansatz_kinds,
                             attacks=tuple(AttackKind), epsilons=harness.DEFAULT_EPSILONS,
                             fgsm_extra_epsilons=harness.FGSM_EXTRA_EPSILONS, trials=1)


def test_each_adversarial_set_is_encoded_once_for_every_head(monkeypatch):
    # the train and test sets fit one block, so every quanvolution is one _trig call
    trigs = count_calls(monkeypatch, harness.quanv, "_trig")
    counts = []
    for kinds in (AnsatzKind, (AnsatzKind.ZZ_FULL,), TWO_HEADS):
        del trigs[:]
        run_sweep(paper_grid_trial(tuple(kinds)), progress=lambda msg: None)
        counts.append(len(trigs))
    sets = sum(len(paper_grid_trial(TWO_HEADS).epsilons_for(a)) - 1 for a in AttackKind)
    assert sets == 28
    # the train set once, the clean test set once, each set once
    assert counts == [1 + 1 + sets] * 3  # 30, not 5 * 30 = 150


def test_classical_models_never_encode(monkeypatch):
    trigs = count_calls(monkeypatch, harness.quanv, "_trig")
    cfg = two_attack_config(architectures=(Architecture.CLASSICAL_CNN,
                                           Architecture.CLASSICAL_FC))
    assert len(run_sweep(cfg, progress=lambda msg: None)) == 2 * 2 * 2 * 2
    assert trigs == []


def test_evaluate_takes_pixel_images_for_every_model():
    cfg = tiny_config()
    for architecture in cfg.architectures:
        ((_, trained),) = train_task(cfg, architecture, 0).models
        assert trained.evaluate(cfg.test_data.images, cfg.test_data.labels) == \
            trained.clean_accuracy


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------

def test_sweep_complete_and_reproducible(tmp_path):
    cfg = tiny_config()
    quiet = lambda msg: None
    records = run_sweep(cfg, threads=1, progress=quiet)
    # 2 architectures x 1 attack x 2 trials x 3 epsilons
    assert len(records) == 2 * 1 * 2 * 3
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, p1)
    emit_csv(run_sweep(cfg, threads=1, progress=quiet), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = tiny_config()
    quiet = lambda msg: None
    serial = run_sweep(cfg, threads=1, progress=quiet)
    parallel = run_sweep(cfg, threads=2, progress=quiet)
    assert serial == parallel


def count_calls(monkeypatch, module, name, keep=lambda *args: True):
    """Wrap module.name; returns the list of the kept calls' arguments."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def two_attack_config(**overrides) -> SweepConfig:
    return tiny_config(**{**dict(
        architectures=tuple(Architecture),
        ansatz_kinds=(AnsatzKind.ZZ_FULL, AnsatzKind.RANDOM),
        attacks=(AttackKind.FGSM, AttackKind.PGD),
        epsilons=(0.0, 0.1),
        train_cfg=TrainConfig(epochs=1, seed=0),
    ), **overrides})


@pytest.mark.parametrize("mode, surrogates", [("surrogate", 1), ("end_to_end", 0)])
def test_each_model_is_trained_once_per_trial(monkeypatch, mode, surrogates):
    cfg = two_attack_config(mode=mode)
    trains = count_calls(monkeypatch, nn, "train")
    records = run_sweep(cfg, progress=lambda msg: None)
    assert len(records) == 4 * 2 * 2 * 2  # (cnn, fc, 2 heads) x attacks x trials x eps
    classical = len(cfg.architectures) - 1
    assert len(trains) == (classical + len(cfg.ansatz_kinds) + surrogates) * cfg.trials


def test_surrogate_sets_are_built_once_per_attack_and_epsilon(monkeypatch):
    cfg = two_attack_config(architectures=(Architecture.QUNN,))
    surrogate_attacks = count_calls(monkeypatch, harness, "attack_batch",
                                    lambda source, *_: isinstance(source, SurrogateSource))
    run_sweep(cfg, progress=lambda msg: None)
    per_trial = sum(len(cfg.epsilons_for(attack)) - 1 for attack in cfg.attacks)
    assert len(surrogate_attacks) == cfg.trials * per_trial


@pytest.mark.parametrize("mode", ["surrogate", "end_to_end"])
def test_epsilon_zero_row_is_the_clean_accuracy_without_recomputing_it(monkeypatch, mode):
    # a grid of only epsilon 0: every call left is one that training makes
    cfg = two_attack_config(mode=mode, epsilons=(0.0,), fgsm_extra_epsilons=())
    attacks = count_calls(monkeypatch, harness, "attack_batch")
    encodes = count_calls(monkeypatch, harness.quanv, "encode")
    evaluates = count_calls(monkeypatch, nn, "evaluate")
    records = run_sweep(cfg, progress=lambda msg: None)
    assert len(records) == 4 * 2 * 2  # (cnn, fc, 2 heads) x attacks x trials
    assert attacks == []
    models = len(cfg.architectures) - 1 + len(cfg.ansatz_kinds)
    assert len(encodes) == 2 * cfg.trials  # a qunn task's train and test sets
    assert len(evaluates) == 2 * models * cfg.trials  # train and clean accuracy
    tasks = [train_task(cfg, architecture, trial)
             for architecture in cfg.architectures for trial in range(cfg.trials)]
    clean = {(task.architecture.value, kind.value if kind else "-", task.trial):
             trained.clean_accuracy for task in tasks for kind, trained in task.models}
    assert all(r.epsilon == 0.0 and r.accuracy == clean[r.architecture, r.ansatz, r.trial]
               for r in records)


@pytest.mark.parametrize("mode, own_heads", [("surrogate", 0), ("end_to_end", 2)])
def test_each_source_evaluates_its_clean_gradient_once_per_trial(monkeypatch, mode, own_heads):
    cfg = two_attack_config(mode=mode, attacks=tuple(AttackKind))
    clean = []
    for cls in (SurrogateSource, EndToEndSource):
        def counting(self, images, labels, real=cls.gradient):
            if np.array_equal(images, cfg.test_data.images):
                clean.append(self)  # kept alive, so every id is a distinct source
            return real(self, images, labels)

        monkeypatch.setattr(cls, "gradient", counting)
    run_sweep(cfg, progress=lambda msg: None)
    # classical_cnn, classical_fc, and the surrogate or each head's own source
    sources = 2 + (own_heads or 1)
    assert len(clean) == sources * cfg.trials
    assert len({id(source) for source in clean}) == len(clean)


def test_sweep_config_rejects_empty_sets():
    cfg = tiny_config()
    empty = Dataset(cfg.test_data.images[:0], cfg.test_data.labels[:0], "mnist")
    for split in ("train_data", "test_data"):
        with pytest.raises(ValueError, match="empty"):
            tiny_config(**{split: empty})


def test_sweep_config_rejects_images_that_are_not_28x28():
    cfg = tiny_config()
    small = Dataset(cfg.test_data.images[:, :20, :20], cfg.test_data.labels, "mnist")
    for split in ("train_data", "test_data"):
        with pytest.raises(ValueError, match="28x28x1"):
            tiny_config(**{split: small})


def test_sweep_config_rejects_raw_idx_bytes():
    # bytes 0-255 read as pixels would drive every layer far outside [0, 1]
    cfg = tiny_config()
    raw = Dataset(np.rint(cfg.test_data.images * 255.0).astype(np.uint8),
                  cfg.test_data.labels, "mnist")
    for split in ("train_data", "test_data"):
        with pytest.raises(ValueError, match="convert raw IDX bytes with data.pixels first"):
            tiny_config(**{split: raw})


@pytest.mark.parametrize("clamp", [(0.0, 1.0), None, "true"])
def test_sweep_config_rejects_a_clamp_that_is_not_a_bool(clamp):
    with pytest.raises(ValueError, match="clamp must be True or False"):
        tiny_config(clamp=clamp)


@pytest.mark.parametrize("name, values", [
    ("architectures", (Architecture.QUNN, Architecture.CLASSICAL_CNN, Architecture.QUNN)),
    ("ansatz_kinds", (AnsatzKind.ZZ_FULL, AnsatzKind.RANDOM, AnsatzKind.ZZ_FULL)),
    ("attacks", (AttackKind.PGD, AttackKind.PGD)),
])
def test_sweep_config_rejects_a_repeated_name(name, values):
    # a repeat would run its cells twice and write duplicate records
    with pytest.raises(ValueError, match=f"{name} lists {values[0].value} more than once"):
        tiny_config(**{name: values})


@pytest.mark.parametrize("name, value, message", [
    ("architectures", ("classical_fc",), " must hold Architecture members, got 'classical_fc'"),
    ("ansatz_kinds", (AnsatzKind.ZZ_STAR, "zz_full"),
     " must hold AnsatzKind members, got 'zz_full'"),
    ("attacks", ("fgsm",), " must hold AttackKind members, got 'fgsm'"),
    ("train_data", "cifar", ".name must be mnist or fmnist, got 'cifar'"),
    ("test_data", "fmnist", ".name must be 'mnist' too, got 'fmnist'"),
    ("train_cfg", {"epochs": 1}, " must be an nn.TrainConfig, got {'epochs': 1}"),
    ("epsilons", [0.0, 0.1], " must be a tuple, got [0.0, 0.1]"),
    ("fgsm_extra_epsilons", [15.0], " must be a tuple, got [15.0]"),
    ("epsilons", np.array([0.0, 0.1]), " must be a tuple, got array("),
], ids=["architectures", "ansatz_kinds", "attacks", "train_data_name", "test_data_name",
        "train_cfg", "epsilons_list", "fgsm_extra_epsilons_list", "epsilons_ndarray"])
def test_sweep_config_rejects_a_name_that_is_not_a_member(name, value, message):
    # unchecked, the names a config file holds, passed unparsed, would fail
    # only when a task reads their .value or builds an AttackConfig; a set
    # named "cifar" would fail only in nn.build_model, a test set of another
    # dataset would have every row labelled with the train set's name, a
    # train_cfg dict would fail at the first replace(), and a list or array
    # epsilon grid would fail at epsilons_for's tuple concatenation
    if name.endswith("_data"):  # the set of that name
        split = getattr(tiny_config(), name)
        value = Dataset(split.images, split.labels, value)
    with pytest.raises(ValueError, match=re.escape(name + message)):
        tiny_config(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("trials", 2.5), ("trials", True), ("trials", "2"),
    ("base_seed", 1.0), ("base_seed", True), ("base_seed", None)])
def test_sweep_config_rejects_a_count_or_seed_that_is_not_an_integer(name, value):
    # unchecked, trials=2.5 would fail at range(), trials=True run one trial,
    # and base_seed=1.0 hash as "1.0", every draw differing from base_seed=1
    with pytest.raises(ValueError, match=rf"{name} must be an integer, got {value!r}"):
        tiny_config(**{name: value})


def test_sweep_config_takes_numpy_integers():
    # a numpy integer seed hashes as the text of its value, as a Python int does
    cfg = tiny_config(trials=np.int64(2), base_seed=np.uint32(11))
    assert stable_seed(cfg.base_seed, cfg.trials) == stable_seed(11, 2)


@pytest.mark.parametrize("name", ["architectures", "ansatz_kinds", "attacks"])
def test_sweep_config_rejects_an_empty_list(name):
    # no attack or architecture gives a sweep of no records; no ansatz kind
    # drops every qunn cell while the classical ones still run
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        tiny_config(**{name: ()})


@pytest.mark.parametrize("threads, workers", [(64, [2]), (2, [2]), (1, [])])
def test_pool_is_capped_at_the_task_count(monkeypatch, threads, workers):
    # a stand-in pool that records its size and runs the tasks in-process
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # _record_lists imports the pool class from here when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cfg = tiny_config(architectures=(Architecture.CLASSICAL_FC,),
                      train_cfg=TrainConfig(epochs=1, seed=0))
    records = run_sweep(cfg, threads=threads, progress=lambda msg: None)
    assert started == workers  # 1 architecture x 2 trials = 2 tasks
    assert len(records) == 2 * 3


def test_stable_seed_is_stable():
    assert stable_seed(1, "a", 2) == stable_seed(1, "a", 2)
    assert stable_seed(1, "a", 2) != stable_seed(1, "a", 3)
    assert stable_seed("x") != stable_seed("y")


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def test_aggregate_constant_trials():
    records = [fake_record(0.1, t, 0.8) for t in range(3)]
    (agg,) = aggregate(records)
    assert agg.mean_accuracy == pytest.approx(0.8)
    assert agg.std_accuracy == pytest.approx(0.0)


def test_aggregate_sample_std():
    records = [fake_record(0.1, 0, 0.6), fake_record(0.1, 1, 1.0)]
    (agg,) = aggregate(records)
    assert agg.mean_accuracy == pytest.approx(0.8)
    assert agg.std_accuracy == pytest.approx(0.2828, abs=1e-4)  # sqrt(0.08)


def test_aggregate_single_trial_zero_bar():
    (agg,) = aggregate([fake_record(0.5, 0, 0.7)])
    assert agg.std_accuracy == 0.0


def test_aggregate_one_row_per_cell():
    records = [fake_record(e, t, 0.5) for e in (0.0, 0.1) for t in range(7)]
    aggs = aggregate(records, expected_trials=7)
    assert len(aggs) == 2
    assert all(a.n_trials == 7 for a in aggs)


def test_aggregate_rejects_missing_and_duplicate():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([fake_record(0.1, 0, 0.5), fake_record(0.1, 0, 0.6)])
    with pytest.raises(ValueError):
        aggregate([fake_record(0.1, 0, 0.5)], expected_trials=7)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_shape_and_header(tmp_path):
    records = [fake_record(e, t, 0.5 + 0.01 * t) for e in (0.0, 0.1) for t in range(7)]
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "dataset,architecture,ansatz,attack,mode,epsilon,trial,accuracy"
    assert len(lines) == 1 + 14 + 1  # header + rows + trailing newline
    assert lines[-1] == ""


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

SVG = "{http://www.w3.org/2000/svg}"


def make_aggregates():
    out = []
    for arch, ansatz_label in (("classical_cnn", "-"), ("qunn", "zz_full")):
        for eps in (0.0, 0.01, 0.1, 1.0, 10.0):
            out.append(AggregateRecord("mnist", arch, ansatz_label, "fgsm",
                                       "surrogate", eps, 0.7, 0.05, 7))
    return out


def test_svg_well_formed_one_polyline_per_series(tmp_path):
    path = tmp_path / "plot.svg"
    emit_plot(make_aggregates(), path)
    root = ET.fromstring(path.read_text())
    polylines = root.findall(f".//{SVG}polyline")
    assert len(polylines) == 2


def test_svg_rejects_mixed_attacks(tmp_path):
    aggs = make_aggregates()
    aggs.append(AggregateRecord("mnist", "qunn", "zz_full", "pgd", "surrogate", 0.0, 0.5, 0.0, 7))
    with pytest.raises(ValueError):
        emit_plot(aggs, tmp_path / "x.svg")


def test_zero_epsilon_pinned_left_of_log_region(tmp_path):
    path = tmp_path / "plot.svg"
    emit_plot([AggregateRecord("mnist", "qunn", "zz_full", "fgsm", "surrogate", eps, 0.7, 0.05, 7)
               for eps in (0.0, 0.01, 0.1, 1.0)], path)
    root = ET.fromstring(path.read_text())
    lines = [{k: float(v) for k, v in line.attrib.items() if k[0] in "xy"}
             for line in root.iter(f"{SVG}line")]
    axis = lines[0]["y1"]  # the x axis is drawn first
    ticks = [line["x1"] for line in lines
             if line["x1"] == line["x2"] and (line["y1"], line["y2"]) == (axis, axis + 4)]
    marker = [x for line in lines if (line["y1"], line["y2"]) == (axis - 5, axis + 5)
              for x in (line["x1"], line["x2"])]
    labels = [text.text for text in root.iter(f"{SVG}text") if float(text.get("y")) == axis + 18]
    assert labels == ["0", "0.01", "0.1", "1"]
    assert len(ticks) == 4 and len(marker) == 4  # the break marker is two strokes
    assert ticks[0] < min(marker) < max(marker) < ticks[1] < ticks[2] < ticks[3]
    assert ticks[2] - ticks[1] == pytest.approx(ticks[3] - ticks[2], abs=0.2)  # log scale
