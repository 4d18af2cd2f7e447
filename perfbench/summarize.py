"""Median and quartiles of each metric over saved benchmark runs.

    python3 perfbench/summarize.py RUN_OUTPUT...

Each file holds the standard output of one ``run.py`` run; files without a
result (a failed run) are listed under ``runs_without_result``. Runs are grouped
by workload and trace mode; for every metric the script prints the run
count, median, first and third quartile (``statistics.quantiles(n=4)``) and
the quartile spread as a share of the median, as one JSON object. Where a
workload has traced and untraced runs it also prints the tracing overhead:
median traced ``trace.wall_ref`` minus median untraced ``wall_ref``.
"""
from __future__ import annotations

import json
import statistics
import sys


def summarize(paths) -> dict:
    groups: dict[str, dict[str, list[float]]] = {}
    missing = []
    for path in paths:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if len(lines) < 2:
            missing.append(path)
            continue
        *_, record_line, result_line = lines
        record = json.loads(record_line)["record"]
        result = json.loads(result_line)
        key = f"{record['workload']}/trace{record['trace']}"
        metrics = groups.setdefault(key, {})
        metrics.setdefault("failed", []).append(result["failed"])
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    out = {"runs_without_result": missing}
    for key, metrics in sorted(groups.items()):
        out[key] = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            out[key][name] = {"runs": len(values), "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med if med else 0.0}
    for key in [k for k in out if "/" in k]:
        workload, mode = key.split("/")
        untraced = out.get(f"{workload}/trace0", {}).get("wall_ref")
        if mode == "trace1" and untraced:
            overhead = out[key]["trace.wall_ref"]["median"] - untraced["median"]
            out[f"{workload}/trace_overhead"] = {
                "wall_ref": overhead, "share": overhead / untraced["median"]}
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    print()
