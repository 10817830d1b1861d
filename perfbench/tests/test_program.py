"""The wrappers against the real program: exact counts on a tiny sweep, and
neither tracing nor the 2-worker pool changes the output bytes."""
import json
import os
import time

import pytest

import run
import workloads
from quanvbench.ansatz import AnsatzKind, build_ansatz
from quanvbench.harness import stable_seed

REPO = os.path.dirname(run.HERE)

TINY = """\
dataset = mnist
source = synthetic
n_train = 20
n_test = 10
architectures = classical_cnn, classical_fc, qunn
ansatz_list = zz_full
attack_list = fgsm, pgd
epsilons = 0, 0.1
epsilons_fgsm_extra =
trials = 1
base_seed = 3
train.epochs = 2
"""


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = tmp / "tiny.cfg"
    cfg.write_text(TINY)
    saved = run.ROOT, run.SRC
    run.ROOT, run.SRC = REPO, os.path.join(REPO, "src")
    try:
        runner = run.Runner(str(tmp), time.monotonic())
        args = lambda out, threads=1: ["sweep", "--config", str(cfg), "--out", out,
                                       "--threads", str(threads)]
        pool = runner.run("parent", lambda out: args(out, 2)) if run.nproc() >= 2 else None
        yield runner.run("plain", args), runner.run("trace", args), pool
    finally:
        run.ROOT, run.SRC = saved


def _csv(res) -> bytes:
    assert res["exit_code"] == 0
    with open(os.path.join(res["outdir"], "results.csv"), "rb") as fh:
        return fh.read()


def test_traced_output_is_byte_identical(tiny_runs):
    plain, traced, _pool = tiny_runs
    assert _csv(plain) == _csv(traced)
    assert plain["spans"] == [] and traced["work_start"] is not None


def test_pool_command_traces_the_parent_only(tiny_runs):
    plain, _traced, pool = tiny_runs
    if pool is None:
        pytest.skip("needs 2 CPUs")
    assert _csv(pool) == _csv(plain)
    assert {s[2] for s in pool["spans"]} == {
        "synthdata.synthetic_dataset", "data.subset", "harness.iter_sweep", "harness.emit"}
    (arrivals,) = [s[5] for s in pool["spans"] if s[2] == "harness.iter_sweep"]
    assert len(arrivals) == 3 * 2 and arrivals[0] > pool["work_start"]


def test_tiny_sweep_gives_the_predicted_counts(tiny_runs):
    _plain, traced, _pool = tiny_runs
    n_train, n_test, epochs, steps, eps = 20, 10, 2, 10, 2
    cells = 3 * 2                      # (cnn, fc, qunn/zz_full) x (fgsm, pgd)
    trains = cells + 1                 # one per cell, plus the memoised surrogate
    attack_calls = cells * eps
    grads = 3 * eps * n_test * (1 + steps)   # FGSM: 1 gradient, PGD: `steps`
    qunn_maps = n_train + n_test + 2 * eps * n_test  # subsets once, then adversarial sets
    patches = 14 * 14
    cell_seed = stable_seed(3, "mnist", "qunn", "zz_full", 0)
    gates = len(build_ansatz(AnsatzKind.ZZ_FULL, 4, seed=cell_seed).gates)

    layers = {}
    for s in traced["spans"]:
        layers[s[2]] = layers.get(s[2], 0) + 1
    assert layers == {
        "synthdata.synthetic_dataset": 1, "data.subset": 1, "harness.iter_sweep": 1,
        "harness.run_trial": cells, "ansatz.build_ansatz": 2,
        "quanv.quanvolve_dataset": 2 + 2 * eps, "quanv.quanvolve_image": qunn_maps,
        "qsim.apply_circuit_batch": qunn_maps, "quanv.write_qnvf": 2,
        "nn.train": trains, "nn.evaluate": cells * (2 + eps) + trains * epochs,
        "attacks.attack_batch": attack_calls, "nn.input_gradient": grads,
        "harness.emit": 1 + 1 + 2,     # aggregate, CSV, one plot per attack
    }
    counts = traced["counts"]
    assert counts == {
        "attacks.gradient_evals": grads,
        "attacks.attack_batch.images": attack_calls * n_test,
        "nn.train.samples": trains * n_train * epochs,
        "nn.evaluate.images": cells * (n_train + n_test + eps * n_test) + trains * epochs * n_train,
        "quanv.quanvolve_dataset.images": qunn_maps,
        "quanv.write_qnvf.bytes": 2 * 32 + (n_train + n_test) * patches * 4 * 4,
        "qsim.apply_circuit_batch.states": qunn_maps * patches,
        "qsim.apply_circuit_batch.gate_apps": qunn_maps * patches * gates,
        "qsim.apply_circuit_batch.bytes_computed": 2 * gates * qunn_maps * patches * 16 * 16,
    }
    # cnn, fc, qunn and the surrogate are trained on distinct (arch, seed, data);
    # an eps = 0 attack returns the clean test set, quanvolved once already;
    # every eps > 0 attack has a source of its own
    assert traced["distinct"] == {"nn.train": 4, "quanv.quanvolve_dataset": 2 + 2,
                                  "attacks.attack_batch": cells}


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
