"""quanvbench benchmark: the entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is driven only through its
CLI, one command at a time from this single process (a closed loop with one
client); each command runs in a fresh child process (shim.py) with
PYTHONPATH=src and BLAS pinned to one thread per process.

Every invocation first runs ``quanvbench verify`` and aborts (exit 1, no
result) if an oracle fails.  With ``--trace 0`` it then measures set-up
alone a few times, runs the workload's command in a loop until S seconds
have passed (always once; a further command only if the previous one's
duration still fits in S), checks every output and prints the end-to-end
metrics.  With
``--trace 1`` it runs the command once untraced and once with spans around
every layer (sweep_surrogate: and once more on a 2-worker process pool),
and prints the per-layer metrics.

The last line of stdout is the JSON result; the line before it records the
environment.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads
from tracer import median_duration, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(HERE, "shim.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 11
DEADLINE_S = 170.0  # every command is killed once the invocation is this old
PIN_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ARCHITECTURES = ("classical_cnn", "classical_fc", "qunn")

# Spanned layers; each reports .calls, .s and .self_s.
SPAN_LAYERS = (
    "qsim.apply_circuit_batch", "ansatz.build_ansatz",
    "quanv.quanvolve_dataset", "quanv.quanvolve_image", "quanv.input_gradient",
    "quanv.write_qnvf", "quanv.read_qnvf",
    "nn.train", "nn.input_gradient", "nn.evaluate",
    "attacks.attack_batch", "data.load_idx", "data.subset", "synthdata.synthetic_dataset",
    "harness.run_trial", "harness.emit", "harness.iter_sweep", "verify.run_all",
)
COUNTS = (
    "qsim.apply_circuit_batch.states", "qsim.apply_circuit_batch.gate_apps",
    "qsim.apply_circuit_batch.bytes_computed", "quanv.quanvolve_dataset.images",
    "quanv.write_qnvf.bytes", "quanv.read_qnvf.bytes", "nn.train.samples",
    "nn.evaluate.images", "attacks.attack_batch.images", "attacks.gradient_evals",
    "data.load_idx.bytes", "verify.passed",
)
USEFUL_RATIOS = ("quanv.quanvolve_dataset", "nn.train", "attacks.attack_batch")
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "success_rate": "fraction", "output_match_frac": "fraction"}

# ROADMAP baseline table: (label, span name, attr filter, ROADMAP value in ms)
BASELINES = (
    ("quanvolve 50 images", "quanv.quanvolve_dataset", lambda a: a == 50, "56.7"),
    ("parameter-shift input gradient, 1 image", "quanv.input_gradient", lambda a: True, "9.6"),
    ("train 30 epochs, classical_cnn", "nn.train", lambda a: a == "classical_cnn", "250"),
    ("train 30 epochs, classical_fc", "nn.train", lambda a: a == "classical_fc", "86"),
    ("train 30 epochs, qunn", "nn.train", lambda a: a == "qunn", "89"),
    ("PGD 10 steps, 30 images, surrogate", "attacks.attack_batch",
     lambda a: a[0] == "pgd" and a[1] > 0 and a[2] == "surrogate", "86"),
    ("PGD 10 steps, 30 images, end_to_end", "attacks.attack_batch",
     lambda a: a[0] == "pgd" and a[1] > 0 and a[2] == "end_to_end", "3390"),
    ("one PGD trial, classical_cnn", "harness.run_trial",
     lambda a: a == ["classical_cnn", "pgd"], "930"),
    ("one PGD trial, qunn", "harness.run_trial", lambda a: a == ["qunn", "pgd"],
     "1300-1600 surrogate / 27200 end_to_end"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def per_layer_names() -> list[str]:
    names = [f"{layer}.{m}" for layer in SPAN_LAYERS for m in ("calls", "s", "self_s")]
    names += COUNTS
    names += [f"{layer}.useful_ratio" for layer in USEFUL_RATIOS]
    names += [f"harness.run_trial.{arch}.s_p50" for arch in ARCHITECTURES]
    names += ["harness.iter_sweep.first_result_s", "harness.iter_sweep.last_gap_s",
              "harness.scaling_eff", "trace.run_s", "trace.untraced_run_s",
              "trace.overhead_s", "trace.accounted_frac"]
    return names


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Running one command
# ---------------------------------------------------------------------------


class Runner:
    """Starts shim processes one at a time and measures each from outside."""

    def __init__(self, workdir: str, started: float):
        self.workdir = workdir
        self.started = started
        self.n = 0
        self.env = dict(os.environ, PYTHONPATH=SRC, **{k: "1" for k in PIN_THREADS})

    def run(self, mode: str, program_args_fn) -> dict:
        """Run ``shim.py MODE`` on ``program_args_fn(outdir)``.  Returns the
        sidecar plus exit_code, t_launch, t_end, cpu_s and peak_rss_mb."""
        self.n += 1
        outdir = os.path.join(self.workdir, f"cmd{self.n:03d}")
        os.makedirs(outdir)
        sidecar = os.path.join(outdir, "sidecar.json")
        logpath = os.path.join(outdir, "log.txt")
        argv = [sys.executable, SHIM, mode, sidecar, "--", *program_args_fn(outdir)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before starting a command")
        with open(logpath, "wb") as logfh:
            t_launch = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=logfh, stderr=logfh, start_new_session=True)
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                t_end = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    _kill_group(proc.pid)
                    proc.wait()
        result = {"work_start": None, "spans": [], "counts": {}, "distinct": {},
                  "peak_rss_kb": usage.ru_maxrss}
        if os.path.exists(sidecar):
            with open(sidecar) as fh:
                result.update(json.load(fh))
        result.update(exit_code=proc.returncode, outdir=outdir, log=logpath,
                      t_launch=t_launch, t_end=t_end,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=result["peak_rss_kb"] / 1024.0)
        if proc.returncode != 0:
            with open(logpath, errors="replace") as fh:
                log(f"command failed ({proc.returncode}): {' '.join(argv[5:])}\n"
                    + "".join(fh.readlines()[-15:]))
        return result


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def split_times(res: dict) -> tuple[float, float]:
    """(setup_s, run_s) of one command: launch -> first work call -> exit."""
    if res["work_start"] is None:
        return res["t_end"] - res["t_launch"], 0.0
    return res["work_start"] - res["t_launch"], res["t_end"] - res["work_start"]


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int, input_set: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": nproc(), "threads_env": {k: "1" for k in PIN_THREADS},
            "seed": seed, "input_set": input_set}


# ---------------------------------------------------------------------------
# The two kinds of invocation
# ---------------------------------------------------------------------------


def timed(wl, seed, seconds, runner, inputs, reference) -> tuple[dict, int, int]:
    setups, runs, cpus, rsss, mismatches = [], [], [], [], []
    attempted = failed = 0
    for _ in range(SETUP_PROBES):
        res = runner.run("probe", lambda out: workloads.command(wl, seed, inputs, out))
        if res["exit_code"] != 0 or res["work_start"] is None:
            raise BenchError("set-up probe did not reach the work function")
        setups.append(split_times(res)[0])
    loop_start = time.monotonic()
    while True:
        res = runner.run("plain", lambda out: workloads.command(wl, seed, inputs, out))
        outcome = workloads.check(wl, res["outdir"], res["exit_code"])
        attempted += outcome.attempted
        failed += outcome.failed
        mismatches.append(workloads.mismatch(outcome, wl, seed, reference))
        setup_s, run_s = split_times(res)
        setups.append(setup_s)
        runs.append(run_s)
        cpus.append(res["cpu_s"])
        rsss.append(res["peak_rss_mb"])
        shutil.rmtree(res["outdir"])
        elapsed = time.monotonic() - loop_start
        if elapsed + (res["t_end"] - res["t_launch"]) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "success_rate": 1.0 - failed / attempted,
        "output_match_frac": 1.0 - statistics.mean(mismatches),
    }
    log(f"{wl.name}: {len(runs)} command(s), {len(setups)} set-ups; "
        f"error_rate {failed / attempted:g}, output_mismatch_frac {1 - metrics['output_match_frac']:g}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, attempted, failed


def traced(wl, seed, runner, inputs, reference, verify_res) -> tuple[dict, int, int, bool]:
    """Per-layer metrics from one untraced and one traced command, plus a
    pool command for a workload with ``pool_threads``; the last value says
    whether all of them wrote byte-identical output."""
    def cmd(threads=1):
        return lambda out: workloads.command(wl, seed, inputs, out, threads)

    plain = runner.run("plain", cmd())
    traced_res = runner.run("trace", cmd())
    pool = None
    if wl.pool_threads > nproc():
        log(f"{wl.name}: skipping the {wl.pool_threads}-worker pool command, "
            f"only {nproc()} CPUs available")
    elif wl.pool_threads:
        # spans recorded inside pool workers would be lost: trace the parent only
        pool = runner.run("parent", cmd(wl.pool_threads))
    attempted = failed = 0
    outcomes = []
    for res in (plain, traced_res, pool):
        if res is None:
            continue
        outcome = workloads.check(wl, res["outdir"], res["exit_code"])
        attempted += outcome.attempted
        failed += outcome.failed
        outcomes.append(outcome)
    identical = len({o.file_digest for o in outcomes}) == 1
    if not identical:
        log(f"{wl.name}: the traced or pool command's output differs from the untraced one's")
    if workloads.mismatch(outcomes[0], wl, seed, reference) != 0.0:
        log(f"{wl.name}: output differs from the seed commit's reference")
    if traced_res["work_start"] is None or (pool and pool["work_start"] is None):
        raise BenchError("a traced command did not reach its work function")
    untraced_run_s = split_times(plain)[1]
    run_s = split_times(traced_res)[1]

    spans = traced_res["spans"]
    layers = summarize(spans)
    layers.update(summarize(verify_res["spans"]))
    counts = {**verify_res["counts"], **traced_res["counts"]}
    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        entry = layers.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for m in ("calls", "s", "self_s"):
            metrics[f"{layer}.{m}"] = entry[m]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    for layer in USEFUL_RATIOS:
        calls = metrics[f"{layer}.calls"]
        useful = traced_res["distinct"].get(layer, 0)
        metrics[f"{layer}.useful_ratio"] = useful / calls if calls else 0.0
    for arch in ARCHITECTURES:
        metrics[f"harness.run_trial.{arch}.s_p50"] = median_duration(
            spans, "harness.run_trial", lambda a, arch=arch: a[0] == arch)[0]
    arrivals = next((s[5] for s in pool["spans"] if s[2] == "harness.iter_sweep"),
                    []) if pool else []
    metrics["harness.iter_sweep.first_result_s"] = (
        arrivals[0] - pool["work_start"] if arrivals else 0.0)
    metrics["harness.iter_sweep.last_gap_s"] = (
        arrivals[-1] - arrivals[-2] if len(arrivals) > 1 else 0.0)
    metrics["harness.scaling_eff"] = (
        untraced_run_s / (wl.pool_threads * split_times(pool)[1]) if pool else 0.0)
    own = self_times(spans)
    accounted = sum(own[s[0]] for s in spans if s[3] >= traced_res["work_start"])
    metrics.update({
        "trace.run_s": run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": run_s - untraced_run_s,
        "trace.accounted_frac": accounted / run_s if run_s > 0 else 0.0,
    })

    log(f"{wl.name} traced: run_s {run_s:.3f} vs untraced {untraced_run_s:.3f} "
        f"(overhead {run_s - untraced_run_s:+.3f} s); spans cover "
        f"{metrics['trace.accounted_frac']:.1%} of the traced run_s")
    log(f"{'ROADMAP baseline':<44} {'median ms':>10} {'n':>6}   ROADMAP ms")
    for label, name, match, roadmap in BASELINES:
        med, n = median_duration(traced_res["spans"], name, match)
        if n:
            log(f"{label:<44} {1000 * med:>10.1f} {n:>6}   {roadmap}")
    return ({k: {"value": metrics[k], "unit": _unit(k)} for k in per_layer_names()},
            attempted, failed, identical)


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s", "s_p50")):
        return "s"
    if name.endswith(".bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("useful_ratio", "scaling_eff", "accounted_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "quanvbench", "cli.py")):
        log(f"error: no program sources at {SRC}; run from the root of a checkout")
        return 2
    sys.path.insert(0, SRC)  # prepare() makes inputs with the program's own modules
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        log(f"error: unknown workload {args.workload!r} (have {', '.join(workloads.WORKLOADS)})")
        return 2
    seed = workloads.input_set(args.seed)
    # fixed-length paths: their length shifts the program's heap layout, and
    # with it peak RSS by several MB
    workdir = os.path.join(WORK_ROOT, f"{os.getpid():07d}")
    os.makedirs(workdir)
    load_before = os.getloadavg()
    try:
        reference = workloads.load_reference()
        runner = Runner(workdir, started)
        verify_res = runner.run("verify", lambda out: ["verify"])
        if verify_res["exit_code"] != 0:
            raise BenchError("quanvbench verify failed; not timing a program that fails its oracles")
        inputs = workloads.prepare(wl, seed, workdir)
        identical = True
        if args.trace:
            metrics, attempted, failed, identical = traced(
                wl, seed, runner, inputs, reference, verify_res)
        else:
            metrics, attempted, failed = timed(wl, seed, args.seconds, runner, inputs, reference)
    except (BenchError, workloads.MissingReference) as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    env = environment(args.seed, seed)
    env.update(loadavg_before=load_before, loadavg_after=os.getloadavg())
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0 and identical, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
