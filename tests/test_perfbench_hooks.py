"""perfbench's traced run (`perfbench/run.py --trace 1`) wraps program
functions by the names in `perfbench/layers.py` and its `harness.run_trial`
hook reads that function's positional arguments.  perfbench's own tests are
not collected with these, so a rename in the program is caught here."""
import importlib.util
import os

import pytest

from quanvbench import harness
from quanvbench.ansatz import AnsatzKind
from quanvbench.attacks import AttackKind
from quanvbench.data import subset
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


def test_run_trial_hook_reads_a_real_call(layers, monkeypatch):
    calls, real = [], harness.run_trial

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(harness, "run_trial", recording)
    train, test = subset(synthetic_dataset("mnist", 100, seed=1), 10, 5, seed=0)
    cfg = harness.SweepConfig(
        train_data=train, test_data=test,
        architectures=(Architecture.CLASSICAL_FC, Architecture.QUNN),
        ansatz_kinds=(AnsatzKind.ZZ_FULL,), attacks=(AttackKind.FGSM, AttackKind.PGD),
        epsilons=(0.0, 0.1), fgsm_extra_epsilons=(), trials=1,
        train_cfg=TrainConfig(epochs=1), attack_steps=1,
    )
    harness.run_sweep(cfg, progress=lambda msg: None)
    assert [layers._run_trial_hook(None, args, kwargs, result)
            for args, kwargs, result in calls] == [
        ["classical_fc", "fgsm"], ["classical_fc", "pgd"], ["qunn", "fgsm"], ["qunn", "pgd"]]
