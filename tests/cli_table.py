"""The CLI's golden table: what each bundled run leaves behind.

``cli_table.json`` holds one row per (command, scenario, seed): the exit
code, the lines written to stderr and the sha256 of each output file. The
keys are the seven commands on the eight bundled scenarios at seed 11, and
``bifurcation`` on every scenario at the census seeds 3, 7, 23 and 40. Every
run uses ``--quiet``. ``verify.txt`` is hashed with its ``=number`` parts
stripped: those numbers carry roundoff that can move across numpy builds.

    python tests/cli_table.py check DIR
        checks the seed-11 runs saved under DIR against the table: DIR/<scenario>/
        <command>/ is a run's --out directory, and DIR/<scenario>/<command>.exit
        and .stderr beside it hold its exit code and stderr
    python tests/cli_table.py write
        re-runs every row in this process, prints each row that moved and
        rewrites the table

A mismatch names the row, the file and its new digest; for a .txt file it
also prints the text, so a re-pin can be reviewed.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import logging
import re
import sys
import tempfile
from pathlib import Path

import gamedyn
from gamedyn import cli

TABLE = Path(__file__).with_name("cli_table.json")
SCENARIO_DIR = Path(gamedyn.__file__).resolve().parent / "scenarios"
COMMANDS = ("simulate", "fixed-point", "sweep", "bifurcation", "classify", "verify",
            "reproduce-wheatstone")
SCENARIOS = tuple(sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")))
SEED = 11
CENSUS_SEEDS = (3, 7, 23, 40)
KEYS = ([(command, name, SEED) for name in SCENARIOS for command in COMMANDS]
        + [("bifurcation", name, seed) for seed in CENSUS_SEEDS for name in SCENARIOS])

_NUMBER = re.compile(rb"=\S+")


def _pinned_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    return _NUMBER.sub(b"", data) if path.name == "verify.txt" else data


def observe(out: Path, code: int, stderr: str) -> dict:
    """A run's row: its exit code, stderr lines and the digest of each file in out."""
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stderr": stderr.splitlines(),
            "files": {p.name: hashlib.sha256(_pinned_bytes(p)).hexdigest() for p in files}}


@functools.cache
def load() -> dict:
    return {(r["command"], r["scenario"], r["seed"]): r for r in json.loads(TABLE.read_text())}


def mismatches(key, row: dict, out: Path) -> list[str]:
    """How row, observed in out, differs from the table's row for key."""
    want = load()[key]
    name = "{} {} --seed {}".format(*key)
    found = [f"{name}: {field} {row[field]!r}, table {want[field]!r}"
             for field in ("exit", "stderr") if row[field] != want[field]]
    for fname in sorted(row["files"].keys() | want["files"].keys()):
        new, old = row["files"].get(fname), want["files"].get(fname)
        if new != old:
            found.append(f"{name}: {fname} sha256 {new or 'missing'}, table {old or 'missing'}")
            if new and fname.endswith(".txt"):
                found[-1] += "\n" + _pinned_bytes(out / fname).decode()
    return found


def run(key, out: Path) -> tuple[int, str]:
    """cli.main on one row in this process; returns the exit code and stderr.

    The package's log records go to the returned stderr in the console
    script's format, as they would with --quiet.
    """
    command, name, seed = key
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter(cli.LOG_FORMAT))
    logger = logging.getLogger("gamedyn")
    logger.addHandler(handler)
    logger.propagate = False
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", str(SCENARIO_DIR / f"{name}.scn"),
                             "--seed", str(seed), "--quiet", "--out", str(out)])
    finally:
        logger.removeHandler(handler)
        logger.propagate = True
    return code, err.getvalue()


def check(root: Path) -> list[str]:
    """Mismatches of the seed-11 runs saved under root, laid out as for `check`."""
    found = []
    for key in KEYS:
        command, name, seed = key
        if seed == SEED:
            out = root / name / command
            code = int((out.parent / f"{command}.exit").read_text())
            stderr = (out.parent / f"{command}.stderr").read_text()
            found += mismatches(key, observe(out, code, stderr), out)
    return found


def write() -> None:
    old = load() if TABLE.exists() else {}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, key in enumerate(KEYS):
            out = Path(tmp) / str(k)
            row = observe(out, *run(key, out))
            for found in mismatches(key, row, out) if key in old else []:
                print(found)
            rows.append(dict(zip(("command", "scenario", "seed"), key), **row))
    TABLE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    chk = sub.add_parser("check", help="check saved runs against the table")
    chk.add_argument("dir", type=Path)
    sub.add_parser("write", help="re-run every row and rewrite the table")
    args = ap.parse_args(argv)
    if args.mode == "write":
        write()
        return 0
    found = check(args.dir)
    for line in found:
        print(line)
    print(f"{sum(key[2] == SEED for key in KEYS)} runs checked, "
          f"{len(found)} mismatch(es)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
