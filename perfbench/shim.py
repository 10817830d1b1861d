"""Child side of the benchmark: run one quanvbench CLI command in this
process, with the benchmark's wrappers around the program's functions.

    python3 perfbench/shim.py MODE SIDECAR -- QUANVBENCH_ARGS...

MODE:
  plain    note when the command first calls its work function
           (harness.iter_sweep or quanv.quanvolve_dataset); nothing else
  probe    note it, then exit at once: measures set-up alone
  trace    plain, plus spans around every layer (see layers.py)
  parent   plain, plus spans around the layers that run in this process
           only: spans recorded inside pool workers would be lost
  verify   a span around verify.run_all only

At exit the shim writes SIDECAR as JSON: ``work_start`` (time.monotonic,
comparable with the parent's clock), ``exit_code``, ``peak_rss_kb``, and in
the traced modes the spans and counters.  The program's modules come from PYTHONPATH.
"""
from __future__ import annotations

import json
import resource
import sys
import time

from quanvbench import cli, harness, quanv

import layers
from tracer import Patcher, Tracer

MODES = ("plain", "probe", "trace", "parent", "verify")


def _stamp_first_call(fn, state, exit_after: bool):
    def wrapper(*args, **kwargs):
        if state["work_start"] is None:
            state["work_start"] = time.monotonic()
            if exit_after:
                raise SystemExit(0)
        return fn(*args, **kwargs)

    return wrapper


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec, or of its largest
    finished child (pool workers).  The parent's wait4 figure would also
    count the launching process's own peak, which the kernel carries over
    into the child at exec."""
    own = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv) -> int:
    mode, sidecar, sep, *program_args = argv
    if mode not in MODES or sep != "--" or not program_args:
        raise SystemExit(f"usage: shim.py {{{','.join(MODES)}}} SIDECAR -- ARGS...")
    tracer = Tracer(run_id=sidecar)
    state = {"work_start": None, "exit_code": None}
    # the stamp gets a patcher of its own so that it wraps the layer wrapper
    with Patcher() as patcher, Patcher() as outer:
        if mode == "trace":
            layers.install(tracer, patcher)
        elif mode == "parent":
            layers.install(tracer, patcher, parent_only=True)
        elif mode == "verify":
            layers.install_verify(tracer, patcher)
        owner, attr = (harness, "iter_sweep") if program_args[0] == "sweep" \
            else (quanv, "quanvolve_dataset")
        outer.patch(((owner, attr),),
                    lambda fn: _stamp_first_call(fn, state, mode == "probe"))
        try:
            state["exit_code"] = cli.main(program_args)
        finally:
            state["peak_rss_kb"] = peak_rss_kb()
            with open(sidecar, "w") as fh:
                json.dump({**state, "run_id": tracer.run_id, "spans": tracer.spans,
                           "counts": tracer.counts,
                           "distinct": {k: len(v) for k, v in tracer.distinct.items()}}, fh)
    return state["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
