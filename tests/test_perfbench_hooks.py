"""perfbench's traced run (`perfbench/run.py --trace 1`) wraps program
functions by the names in `perfbench/layers.py`, and its hooks read those
functions' arguments, most of them by position.  perfbench's own tests are
not collected with these, so a rename, a changed signature or a call by
keyword in the program is caught here."""
import importlib.util
import os
from collections import defaultdict
from types import SimpleNamespace

import pytest

from quanvbench import cli, harness, quanv
from quanvbench.ansatz import AnsatzKind
from quanvbench.attacks import AttackKind
from quanvbench.data import save_idx, subset
from quanvbench.nn import Architecture, TrainConfig
from quanvbench.synthdata import synthetic_dataset

LAYERS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "layers.py")


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_alias_is_a_callable(layers):
    for name, aliases, _hook, _in_parent in layers.LAYERS:
        for module, attr in aliases:
            assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr}"
    assert callable(harness.iter_sweep)
    for cls in layers.GRADIENT_SOURCES:
        assert callable(cls.gradient)


def recording(name, hook, real, calls):
    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((name, hook, args, kwargs, result))
        return result

    return wrapper


def test_run_trial_hook_reads_a_real_call(layers, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_trial", recording(
        "harness.run_trial", layers._run_trial_hook, harness.run_trial, calls))
    train, test = subset(synthetic_dataset("mnist", 100, seed=1), 10, 5, seed=0)
    cfg = harness.SweepConfig(
        train_data=train, test_data=test,
        architectures=(Architecture.CLASSICAL_FC, Architecture.QUNN),
        ansatz_kinds=(AnsatzKind.ZZ_FULL,), attacks=(AttackKind.FGSM, AttackKind.PGD),
        epsilons=(0.0, 0.1), fgsm_extra_epsilons=(), trials=1,
        train_cfg=TrainConfig(epochs=1),
    )
    harness.run_sweep(cfg, progress=lambda msg: None)
    assert [hook(None, args, kwargs, result)
            for _name, hook, args, kwargs, result in calls] == [
        ["classical_fc", "fgsm"], ["classical_fc", "pgd"], ["qunn", "fgsm"], ["qunn", "pgd"]]


def test_every_hook_reads_the_real_calls_of_a_sweep_and_a_quanvolve(layers, monkeypatch,
                                                                      tmp_path):
    calls = []
    hooked = {name for name, _aliases, hook, _in_parent in layers.LAYERS if hook is not None}
    for name, aliases, hook, _in_parent in layers.LAYERS:
        if hook is not None:
            wrapper = recording(name, hook, getattr(*aliases[0]), calls)
            for module, attr in aliases:
                monkeypatch.setattr(module, attr, wrapper)

    sweep = """
        dataset = mnist
        source = synthetic
        synth_count = 100
        n_train = 10
        n_test = 5
        ansatz_list = zz_full
        attack_list = fgsm, pgd
        epsilons = 0, 0.1
        epsilons_fgsm_extra =
        trials = 1
        train.epochs = 1
        """
    for mode in ("surrogate", "end_to_end"):
        config = tmp_path / f"{mode}.cfg"
        config.write_text(sweep + f"mode = {mode}\n")
        assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / mode),
                         "--threads", "1"]) == cli.EXIT_OK
    train, test = subset(synthetic_dataset("mnist", 200, seed=2), 40, 20, seed=0)
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    save_idx(train, idx_dir / "train-images-idx3-ubyte", idx_dir / "train-labels-idx1-ubyte")
    save_idx(test, idx_dir / "t10k-images-idx3-ubyte", idx_dir / "t10k-labels-idx1-ubyte")
    maps = tmp_path / "maps.qnvf"
    assert cli.main(["quanvolve", "--dataset-dir", str(idx_dir), "--n-train", "10",
                     "--n-test", "10", "--out", str(maps)]) == cli.EXIT_OK
    quanv.read_qnvf(maps)  # no program path reads a QNVF file back

    assert {name for name, *_ in calls} == hooked
    tracer = SimpleNamespace(counts=defaultdict(int), distinct=defaultdict(set))
    for _name, hook, args, kwargs, result in calls:
        hook(tracer, args, kwargs, result)
    assert tracer.counts["quanv.quanvolve_dataset.images"] >= 20
    assert tracer.counts["nn.train.samples"] > 0 and tracer.counts["data.load_idx.bytes"] > 0
