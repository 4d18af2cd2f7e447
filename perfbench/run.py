"""Benchmark entry point: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload {census,simulate,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``. Each run times set-up in several fresh child processes, then runs
the workload in one more fresh, single-threaded child (see ``child.py``).
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics ``wall_ref`` (op time
in reference-kernel units, see ``refclock.py``), ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` the per-layer metrics of a traced run.
The line before it is a record for reading: raw wall seconds, per-op
figures, output digests and the host's state. Exits 1 without a result if
any child fails or overruns.

``setup_s`` is the smallest over set-up probes of the time from spawning a
child to its ``ready`` line, divided by the reference-kernel speed the child
measured right after, in seconds at ``NOMINAL_SAMPLE_S`` per kernel sample.
Raw probe seconds drift with the host by tens of percent from minute to
minute, and the normalised median still drifted by up to 23% between
batches of ten runs against 18% for the minimum; the raw and normalised
probes stay in the record.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from refclock import NOMINAL_SAMPLE_S
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 7
RUN_DEADLINE_S = 170.0
# one BLAS thread (numpy here links multithreaded OpenBLAS), and a fixed
# string-hash seed so dict and set layouts repeat from run to run
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}



class ChildFailed(RuntimeError):
    pass


def _child_cmd(args, extra):
    return [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def _spawn(cmd, deadline):
    """Start a child; return (process, seconds until it printed ``ready``)."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.perf_counter()
    # unbuffered, so reading the first line leaves the rest of the output in
    # the pipe for communicate() rather than in a read-ahead buffer
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        _finish(proc, deadline)
        raise ChildFailed(f"child did not get ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline) -> str:
    """Wait for a child until the deadline; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child overran the run deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return out.decode()


def _host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "child_env": CHILD_ENV,
            "loadavg": os.getloadavg()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gamedyn benchmark: one run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    deadline = time.monotonic() + RUN_DEADLINE_S
    host = _host()
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    proc = None
    try:
        setups, setups_ref = [], []
        for _ in range(0 if args.trace else SETUP_PROBES):
            proc, setup = _spawn(_child_cmd(args, ["--setup-only"]), deadline)
            samples = json.loads(_finish(proc, deadline))
            setups.append(setup)
            setups_ref.append(setup / statistics.harmonic_mean(samples))
        proc, child_setup = _spawn(_child_cmd(args, ["--seconds", str(args.seconds),
                                                     "--trace", str(args.trace),
                                                     "--out", str(out_dir)]), deadline)
        lines = _finish(proc, deadline).splitlines()
        result = json.loads(lines[-1]) if lines else None
    except ChildFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(out_dir, ignore_errors=True)
    if result is None:
        print("benchmark failed: child printed no result", file=sys.stderr)
        return 1

    record = dict(result.pop("record"), host=host, setup_probe_s=setups,
                  setup_probe_ref=setups_ref, child_setup_s=child_setup,
                  workload=args.workload, seed=args.seed, trace=args.trace)
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": min(setups_ref) * NOMINAL_SAMPLE_S, "unit": "s"}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
