"""Workloads and the correctness gate applied to every op's output.

An op is one ``gamedyn.cli.run(command, load_scenario(path), out, seed,
quiet=True)`` on a bundled scenario at its ``[run]`` settings. Reference
outputs were recorded by ``make_reference.py`` at the package's first
benchmarked state and live under ``reference/``.

Why these workloads:

- ``sweep``: noise continuation down to eta=1e-3 on wheatstone and series2
  is all damped Picard solves (600 + 680, ~1.2M iterations) where the map
  and cost field dominate, and every seed collapses onto one branch; a
  Newton corrector or early branch merging shows here, and series2 is where
  an unguarded Newton prototype stalled.
- ``census``: bifurcation scans on coordination, pigou and constant make
  1,300 cold multistart solves at coexisting equilibria plus contraction
  margins, so Jacobians weigh ~10x more than on ``sweep``; a change that
  helps warm starts but hurts cold ones, or slows Jacobians, shows here.
- ``simulate``: RK4 on all eight scenarios, 29,000 steps and 116,000 cost
  evaluations with no fixed-point solve, plus ~4 MB of trajectory CSV; a
  solver-only change should not move it, cost-field, softmax, integrator or
  CSV changes do.
"""
from __future__ import annotations

import csv
import io
import lzma
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

SCENARIOS = ("constant", "coordination", "homogeneous", "parallel3", "pigou",
             "series2", "tolls", "wheatstone")

WORKLOADS = {
    "sweep": [("sweep", "wheatstone"), ("sweep", "series2")],
    "census": [("bifurcation", "coordination"), ("bifurcation", "pigou"),
               ("bifurcation", "constant")],
    "simulate": [("simulate", name) for name in SCENARIOS],
}

OUTPUT_FILE = {"sweep": "sweep.csv", "bifurcation": "bifurcation.csv",
               "simulate": "trajectory.csv"}

SWEEP_X_L1_TOL = 1e-8
TRAJECTORY_ABS_TOL = 1e-9


class Mismatch(AssertionError):
    """An op's output differs from the reference beyond its tolerance."""


def scenario_path(root: Path, name: str) -> Path:
    return root / "src" / "gamedyn" / "scenarios" / f"{name}.scn"


def reference_path(command: str, scenario: str) -> Path:
    suffix = ".xz" if command == "simulate" else ""
    return REFERENCE_DIR / command / f"{scenario}.csv{suffix}"


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise Mismatch("output is empty")
    return rows[0], rows[1:]


def _read_reference(command: str, scenario: str) -> str:
    path = reference_path(command, scenario)
    if path.suffix == ".xz":
        return lzma.decompress(path.read_bytes()).decode()
    return path.read_text()


def _same_shape(header, rows, ref_header, ref_rows) -> None:
    if header != ref_header:
        raise Mismatch(f"header {header[:6]}... differs from reference {ref_header[:6]}...")
    if len(rows) != len(ref_rows):
        raise Mismatch(f"{len(rows)} rows, reference has {len(ref_rows)}")


def _check_sweep(header, rows, ref_header, ref_rows) -> None:
    """Identical eta grid, branch ids and stable flags; x within l1 tol per row."""
    _same_shape(header, rows, ref_header, ref_rows)
    x_cols = [k for k, h in enumerate(header) if h.startswith("x_")]
    for n, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        if float(row[0]) != float(ref[0]) or row[1] != ref[1] or row[3] != ref[3]:
            raise Mismatch(f"row {n}: eta/branch/stable {row[:4]} vs {ref[:4]}")
        l1 = sum(abs(float(row[k]) - float(ref[k])) for k in x_cols)
        if not l1 <= SWEEP_X_L1_TOL:
            raise Mismatch(f"row {n}: x differs by {l1:.3e} in l1")


def _check_bifurcation(header, rows, ref_header, ref_rows) -> None:
    """Identical eta grid and fixed-point / stable counts."""
    _same_shape(header, rows, ref_header, ref_rows)
    for n, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        if float(row[0]) != float(ref[0]) or row[1:] != ref[1:]:
            raise Mismatch(f"row {n}: {row} vs reference {ref}")


def _check_trajectory(header, rows, ref_header, ref_rows) -> None:
    """Every value within an absolute tolerance of the reference."""
    _same_shape(header, rows, ref_header, ref_rows)
    got = np.array(rows, dtype=float)
    ref = np.array(ref_rows, dtype=float)
    worst = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not worst <= TRAJECTORY_ABS_TOL:
        raise Mismatch(f"trajectory differs by up to {worst:.3e}")


_CHECKS = {"sweep": _check_sweep, "bifurcation": _check_bifurcation,
           "simulate": _check_trajectory}


class Gate:
    """Checks op outputs against the references, parsing each reference once."""

    def __init__(self):
        self._refs: dict[tuple[str, str], tuple] = {}

    def check(self, command: str, scenario: str, text: str) -> list[list[str]]:
        """Raise Mismatch unless ``text`` matches the reference; return its rows."""
        key = (command, scenario)
        if key not in self._refs:
            self._refs[key] = _rows(_read_reference(command, scenario))
        header, rows = _rows(text)
        _CHECKS[command](header, rows, *self._refs[key])
        return rows
