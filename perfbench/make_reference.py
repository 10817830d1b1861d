"""Record the program's outputs for every input set into reference.json.

    python3 perfbench/make_reference.py [--workload NAME ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Entries for other workloads already in the file are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run
import workloads


def main(argv=None) -> int:
    sys.path.insert(0, run.SRC)
    own = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="*", default=own, choices=own)
    args = parser.parse_args(argv)

    reference = {}
    if os.path.exists(workloads.REFERENCE_PATH):
        reference = workloads.load_reference()
    workdir = os.path.join(run.WORK_ROOT, f"reference-{os.getpid()}")
    try:
        for name in args.workload:
            wl = workloads.WORKLOADS[name]
            for seed in range(workloads.INPUT_SETS):
                setdir = os.path.join(workdir, f"{name}-{seed}")
                os.makedirs(setdir)
                runner = run.Runner(setdir, time.monotonic())
                inputs = workloads.prepare(wl, seed, setdir)
                res = runner.run("plain", lambda out: workloads.command(wl, seed, inputs, out))
                outcome = workloads.check(wl, res["outdir"], res["exit_code"])
                if outcome.failed:
                    run.log(f"{name} set {seed}: {outcome.failed}/{outcome.attempted} failed")
                    return 1
                reference.setdefault(name, {})[str(seed)] = workloads.reference_entry(outcome, wl)
                run.log(f"{name} set {seed}: {outcome.file_digest} "
                        f"({res['t_end'] - res['t_launch']:.1f} s)")
                tmp = f"{workloads.REFERENCE_PATH}.tmp"
                with open(tmp, "w") as fh:
                    json.dump(reference, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                os.replace(tmp, workloads.REFERENCE_PATH)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
