"""One benchmark run in a fresh process: set up, run ops, check, report.

Started by ``run.py`` with the BLAS thread pools pinned to one thread. It
imports the package from the checkout's ``src/``, loads and builds the
workload's scenarios, then prints ``ready`` so the parent can time set-up.
With ``--setup-only`` it then prints reference-kernel samples, which give
the host speed the set-up ran at, and stops. Otherwise it runs the
workload's ops one at a time on the main thread, in whole sets, until
``--seconds`` have passed (each set with its own CLI seed, see
``_set_seed``), then checks every output and prints one JSON record as its
last line. Outputs stay under ``--out`` until ``run.py`` removes the
directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _setup(ops):
    sys.path.insert(0, str(ROOT / "src"))
    import gamedyn
    from gamedyn import scenario as scenario_mod
    if Path(gamedyn.__file__).resolve().parent != ROOT / "src" / "gamedyn":
        raise ImportError(f"gamedyn imported from {gamedyn.__file__}, "
                          f"not from {ROOT / 'src'}")
    from workloads import scenario_path
    for name in sorted({name for _, name in ops}):
        scenario_mod.load_scenario(scenario_path(ROOT, name)).build_game()


def _set_seed(seed: int, k: int) -> int:
    """CLI seed of the k-th set: the workload seed first, then seeds derived
    from it, so a run averages census work over several multistart draws."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _per_layer(first_set, wall_ref: float, self_gap: float, branches_kept: int) -> dict:
    """Per-layer metrics of the first set of ops, so counts repeat exactly."""
    slots, counts = first_set.slots, first_set.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("scenario.load_scenario", "scenario.build_game",
                 "analysis.bifurcation_scan", "cli.run"):
        m[f"{name}.self_s"] = (slots[name][1], "s")
    for name in ("game.evaluate_costs", "game.cost_jacobian",
                 "routing.cost_field", "routing.cost_jacobian",
                 "logit.softmax_target", "logit.logit_map", "logit.logit_jacobian",
                 "logit.local_stability", "logit.contraction_margin",
                 "logit.fixed_point", "analysis.continuation_sweep",
                 "dynamics.integrate"):
        m[f"{name}.calls"] = (slots[name][0], "count")
        m[f"{name}.self_s"] = (slots[name][1], "s")
    m["logit.fixed_point.iterations"] = (counts.get("logit.fixed_point.iterations", 0),
                                         "count")
    m["logit.fixed_point.converged_ratio"] = (
        ratio(counts.get("logit.fixed_point.converged", 0), slots["logit.fixed_point"][0]),
        "ratio")
    m["analysis.branch_keep_ratio"] = (
        ratio(branches_kept, counts.get("analysis.seeds_traced", 0)), "ratio")
    m["analysis.census_distinct_ratio"] = (
        ratio(counts.get("analysis.census_distinct", 0),
              counts.get("analysis.census_converged", 0)), "ratio")
    m["dynamics.integrate.steps"] = (counts.get("dynamics.integrate.steps", 0), "count")
    m["cli.write_csv.self_s"] = (slots["cli.write_csv"][1], "s")
    m["cli.write_csv.bytes"] = (counts.get("cli.write_csv.bytes", 0), "B")
    m["trace.wall_ref"] = (wall_ref, "ref")
    m["trace.self_sum_gap"] = (self_gap, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    from workloads import OUTPUT_FILE, WORKLOADS, Gate, scenario_path
    ops = WORKLOADS[args.workload]
    _setup(ops)
    print("ready", flush=True)
    from refclock import EDGE_SAMPLES, RefClock, kernel_sample
    if args.setup_only:
        print(json.dumps([kernel_sample() for _ in range(2 * EDGE_SAMPLES)]))
        return 0

    from gamedyn import cli, scenario as scenario_mod
    import tracing

    clock = RefClock()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        clock.on_sample = tracer.foreign

    def run_op(command, name, out, seed):
        return cli.run(command, scenario_mod.load_scenario(scenario_path(ROOT, name)),
                       out, seed, quiet=True)

    if tracer is not None:
        run_op = tracer.wrap("bench.op", run_op)

    def failure(command, name):
        print(f"op {command} {name} failed:", file=sys.stderr)
        traceback.print_exc()

    done = []                    # (set, op, output dir, wall_ref, net s, raw s)
    op_counts: dict = {}         # traced counts of each op's first run
    attempted = failed = sets = 0
    self_gap = 0.0
    start = tracer.mark() if tracer is not None else None
    started = time.perf_counter()
    while True:
        seed = _set_seed(args.seed, sets)
        for op in ops:
            attempted += 1
            out = args.out / f"{op[0]}-{op[1]}-{attempted}"
            mark = tracer.mark() if tracer is not None else None
            try:
                code, wall_ref, net, raw = clock.measure(lambda: run_op(*op, out, seed))
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
                if tracer is not None:
                    tally = tracer.since(mark)
                    gap = tally.gap("bench.op")
                    self_gap = max(self_gap, gap)
                    if gap > 0.01:
                        raise RuntimeError(f"layer self times miss the op span by {gap:.2%}")
                    op_counts.setdefault(op, tally.flat_counts())
            except Exception:
                failed += 1
                failure(*op)
                continue
            done.append((sets, op, out, wall_ref, net, raw))
        if sets == 0 and tracer is not None:
            first_set = tracer.since(start)
        sets += 1
        if time.perf_counter() - started >= args.seconds:
            break
    # read before the gate parses outputs, so it is the program's peak alone
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    gate = Gate()
    per_op = {op: [] for op in ops}          # wall_ref of each passing run
    digests: dict = {}
    raw_wall = net_wall = 0.0
    branches_kept = 0
    for k, op, out, wall_ref, net, raw in done:
        try:
            data = (out / OUTPUT_FILE[op[0]]).read_bytes()
            rows = gate.check(*op, data.decode())
            # no workload's output depends on the CLI seed, so every run of
            # an op must give the same bytes
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(op, digest) != digest:
                raise RuntimeError("output bytes differ from an earlier run of the op")
        except Exception:
            failed += 1
            failure(*op)
            continue
        per_op[op].append(wall_ref)
        raw_wall += raw
        net_wall += net
        if op[0] == "sweep" and k == 0:
            branches_kept += len({row[1] for row in rows})

    wall_ref = sum(statistics.median(v) for v in per_op.values() if v)
    if tracer is not None:
        metrics = _per_layer(first_set, wall_ref, self_gap, branches_kept)
    else:
        metrics = {"wall_ref": {"value": wall_ref, "unit": "ref"},
                   "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"}}
    record = {"sets": sets, "raw_wall_s": raw_wall, "net_wall_s": net_wall,
              "op_wall_ref": {f"{c}:{n}": v for (c, n), v in per_op.items()},
              "op_sha256": {f"{c}:{n}": d for (c, n), d in digests.items()},
              "op_counts": {f"{c}:{n}": d for (c, n), d in op_counts.items()}}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics, "record": record}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
