"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every op of every workload once on the checkout's ``src/`` and stores
its output under ``perfbench/reference/<command>/<scenario>.csv`` (xz
compressed for trajectories). Bifurcation counts were checked to be the same
for every workload seed tried, so one recording serves all seeds. Re-record
only on purpose: the references define what a correct op is.
"""
from __future__ import annotations

import lzma
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_SEED = 0


def main() -> int:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path.insert(0, str(ROOT / "src"))
    from gamedyn import cli
    from gamedyn.scenario import load_scenario
    from workloads import OUTPUT_FILE, WORKLOADS, reference_path, scenario_path

    ops = sorted({op for ops in WORKLOADS.values() for op in ops})
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for command, name in ops:
            out = Path(tmp) / f"{command}-{name}"
            code = cli.run(command, load_scenario(scenario_path(ROOT, name)), out,
                           REFERENCE_SEED, quiet=True)
            if code != 0:
                raise SystemExit(f"{command} {name} exited with code {code}")
            data = (out / OUTPUT_FILE[command]).read_bytes()
            dest = reference_path(command, name)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(lzma.compress(data, preset=9) if dest.suffix == ".xz"
                             else data)
            print(f"{dest.relative_to(ROOT)}: {len(data)} bytes", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
