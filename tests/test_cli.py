"""End-to-end CLI checks: the golden table of every bundled run (exit code,
stderr and output digests, kept in cli_table.json by cli_table.py), CSV
layout, byte-level determinism and the exit codes of failing runs."""

import ast
import dataclasses
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gamedyn as gd
from gamedyn import cli, logit

import cli_table
from conftest import ALL_SCENARIOS, SCENARIO_DIR, count_picard, get_scenario


def short_pigou(tmp_path, x0="vertex:r2", horizon="1"):
    """Pigou scenario with a shortened run block, written under tmp_path."""
    text = (SCENARIO_DIR / "pigou.scn").read_text()
    text = text.replace("x0 = vertex:r2", f"x0 = {x0}")
    text = text.replace("horizon = 50", f"horizon = {horizon}")
    p = tmp_path / "pigou_short.scn"
    p.write_text(text)
    return gd.load_scenario(p), p


def scenario_file(tmp_path, name, **values):
    """Bundled scenario with some key = value lines replaced, written under tmp_path."""
    text = (SCENARIO_DIR / f"{name}.scn").read_text()
    for key, value in values.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1, key
    p = tmp_path / f"{name}.scn"
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# the golden table


# Rows only CI's cli-matrix job checks. In-process at seed 11 on a 2-core host,
# sweep wheatstone takes 25.5 s, sweep series2 17.3 s and reproduce-wheatstone
# wheatstone 9.8 s, nearly all of it damped-Picard continuation. Once the sweep
# runs on the corrector (ROADMAP item 2), that change re-pins the sweep rows and
# moves these three into tier-1.
CI_ONLY = {("sweep", "wheatstone", cli_table.SEED), ("sweep", "series2", cli_table.SEED),
           ("reproduce-wheatstone", "wheatstone", cli_table.SEED)}
TIER1_KEYS = [key for key in cli_table.KEYS if key not in CI_ONLY]


def test_host_class_names_what_it_cannot_read_and_exits_0(capsys, monkeypatch):
    # CI prints this before the golden table's checks; a missing library or
    # symbol reads "unknown" and must not fail the job
    import host_class
    monkeypatch.setattr(host_class, "openblas_core", lambda: 1 / 0)
    assert host_class.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "OpenBLAS core: unknown"
    assert re.fullmatch(r"host class: \S+/unknown", lines[3])


@pytest.mark.parametrize("key", TIER1_KEYS, ids=["-".join(map(str, k)) for k in TIER1_KEYS])
def test_run_matches_the_table(tmp_path, key):
    code, stderr = cli_table.run(key, tmp_path)
    found = cli_table.mismatches(key, cli_table.observe(tmp_path, code, stderr), tmp_path)
    assert not found, "\n".join(found)


# The bifurcation command's counts (n_fixed_points, n_stable) per grid eta, in
# runs of equal rows, the same at every CLI seed from 1 to 40. The table pins
# whole files at five seeds.
CENSUS_COUNTS = {
    "constant": [((1, 1), 30)],
    "coordination": [((1, 1), 11), ((2, 2), 49)],
    "homogeneous": [((1, 1), 40)],
    "parallel3": [((1, 1), 40)],
    "pigou": [((1, 1), 40)],
    "series2": [((1, 1), 40)],
    "tolls": [((1, 1), 40)],
    "wheatstone": [((1, 1), 60)],
}


@pytest.mark.parametrize("name", sorted(CENSUS_COUNTS))
def test_bifurcation_counts_are_pinned(name):
    # the counts must not depend on which random starts the census draws; the
    # scan runs as the command runs it, on one game built once (~14 s in all)
    scn = get_scenario(name)
    game, _ = scn.build_game()
    grid, multistart = scn.noise_grid(steps=25), scn.run_int("multistart", 8)
    want = [row for row, times in CENSUS_COUNTS[name] for _ in range(times)]
    for seed in range(1, 41):
        sweep = gd.bifurcation_scan(game, grid, multistart, rng=cli._derive_rng(seed, 1))
        assert list(zip(sweep.n_fixed_points.tolist(), sweep.n_stable.tolist())) == want, seed


# ---------------------------------------------------------------------------
# simulate


def test_simulate_trajectory_csv(tmp_path):
    scn = get_scenario("pigou")
    out = tmp_path / "nested" / "run"      # directories are created on demand
    assert cli.run("simulate", scn, out_dir=out, quiet=True) == 0
    path = out / "trajectory.csv"
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,x_r1_p1,x_r2_p1,w_r1,w_r2,y_e1,y_e2"
    assert len(lines) == 5002              # header + horizon/dt + 1 records
    assert "\r" not in text

    arr = np.loadtxt(path, delimiter=",", skiprows=1)
    t, x, w, y = arr[:, 0], arr[:, 1:3], arr[:, 3:5], arr[:, 5:7]
    assert t[0] == 0.0 and t[-1] == pytest.approx(50.0)
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(w, x)    # single population
    np.testing.assert_array_equal(y, w)    # one link per route
    game, _ = scn.build_game()
    gd.validate_configuration(game, arr[-1, 1:3].reshape(2, 1))


def test_simulate_random_x0_seed_determinism(tmp_path):
    scn, _ = short_pigou(tmp_path, x0="random")
    for d, seed in (("a", 7), ("b", 7), ("c", 8)):
        cli.run("simulate", scn, out_dir=tmp_path / d, seed=seed, quiet=True)
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    c = (tmp_path / "c" / "trajectory.csv").read_bytes()
    assert a == b
    assert a != c


_SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                   2.2250738585072014e-308 / 3, np.finfo(float).max, -np.finfo(float).max]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(lambda width: st.lists(
    st.lists(st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL_FLOATS)),
             min_size=width, max_size=width), min_size=1, max_size=4)))
def test_csv_row_template_matches_fmt(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rows") / "rows.csv"
    cli._write_lines(path, ["h"], np.array(rows, dtype=float))
    expected = "h\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


def test_trajectory_writer_peak_memory_stays_below_the_file(tmp_path):
    scn = get_scenario("pigou")
    game, rgame = scn.build_game()
    traj = gd.integrate(game, scn.eta(), scn.initial_configuration(game, None),
                        *scn.time_grid())
    assert len(traj.times) == 5001
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        cli.write_trajectory_csv(path, traj, game, rgame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


# ---------------------------------------------------------------------------
# sweep / bifurcation


def test_sweep_csv_layout_and_thread_determinism(tmp_path):
    scn = get_scenario("constant")
    cli.run("sweep", scn, out_dir=tmp_path / "t1", quiet=True)
    cli.run("sweep", scn, out_dir=tmp_path / "t2", quiet=True)
    b1 = (tmp_path / "t1" / "sweep.csv").read_bytes()
    assert b1 == (tmp_path / "t2" / "sweep.csv").read_bytes()

    lines = b1.decode().splitlines()
    assert lines[0] == "eta,branch_id,residual,stable,l1_margin,x_a1_p1,x_a2_p1"
    rows = [ln.split(",") for ln in lines[1:]]
    assert {r[3] for r in rows} <= {"0", "1"}
    etas = np.array([float(r[0]) for r in rows])
    assert etas.max() == pytest.approx(2.0) and etas.min() == pytest.approx(1e-3)
    # constant costs keep a single branch after dedup
    assert {r[1] for r in rows} == {"0"}
    assert len(rows) == 30


def test_bifurcation_csv(tmp_path):
    scn = get_scenario("constant")
    assert cli.run("bifurcation", scn, out_dir=tmp_path, quiet=True) == 0
    lines = (tmp_path / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == "eta,n_fixed_points,n_stable"
    assert len(lines) == 1 + 30            # scenario sets steps = 30
    for ln in lines[1:]:
        _, nf, ns = ln.split(",")
        assert nf == "1" and ns == "1"


# ---------------------------------------------------------------------------
# fixed-point and exit codes


def test_fixed_point_csv(tmp_path):
    scn = get_scenario("pigou")
    assert cli.run("fixed-point", scn, out_dir=tmp_path, quiet=True) == 0
    lines = (tmp_path / "fixed_point.csv").read_text().splitlines()
    assert lines[0].startswith("eta,residual,iterations,converged,l1_log_norm,"
                               "spectral_abscissa,locally_stable,x_")
    vals = lines[1].split(",")
    assert float(vals[0]) == 0.25
    assert float(vals[1]) <= 1e-8
    assert vals[3] == "1"


def test_unknown_command_raises():
    scn = get_scenario("constant")
    with pytest.raises(gd.ScenarioError, match="frobnicate"):
        cli.run("frobnicate", scn)


def test_main_exit_1_on_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[whatever]\nz\n")
    code = cli.main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_exit_2_on_unconverged_solve(tmp_path, monkeypatch, capsys, caplog):
    scn_path = SCENARIO_DIR / "pigou.scn"
    monkeypatch.setattr(logit, "NEWTON_STEPS", 0)
    code = cli.main(["fixed-point", "--scenario", str(scn_path),
                     "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    warned = [m for m in caplog.messages if "no convergence" in m]
    assert len(warned) == 1
    assert warned[0].startswith("fixed_points: start 0, no convergence after 0 steps")
    # the partial result is still written for inspection
    lines = (tmp_path / "fixed_point.csv").read_text().splitlines()
    assert lines[1].split(",")[3] == "0"


@pytest.mark.parametrize("eta", [None, "1e-3", "1e-4"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_single_solves_hold_at_small_noise(tmp_path, monkeypatch, capsys, caplog, name, eta):
    # fixed-point and verify solve on the corrector down to eta = 1e-4 and
    # never reach damped Picard, which stops unconverged after 100,000 steps
    # on wheatstone at 1e-3 and on wheatstone and parallel3 at 1e-4
    path = SCENARIO_DIR / f"{name}.scn" if eta is None else scenario_file(tmp_path, name, eta=eta)
    picard = count_picard(monkeypatch)
    for command in ("fixed-point", "verify"):
        code = cli.main([command, "--scenario", str(path), "--out", str(tmp_path / command),
                         "--quiet"])
        assert code == 0, command
    assert capsys.readouterr().err == "" and not caplog.messages
    assert not picard


def no_branch_converges(tmp_path, monkeypatch, capsys, command, name):
    """Run command with every damped solve capped at one iteration."""
    monkeypatch.setattr(logit, "MAX_ITER", 1)
    code = cli.main([command, "--scenario", str(SCENARIO_DIR / f"{name}.scn"),
                     "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert "no continuation branch converged at eta_hi=2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*sweep.csv"))


def test_main_exit_2_when_no_sweep_branch_converges(tmp_path, monkeypatch, capsys):
    no_branch_converges(tmp_path, monkeypatch, capsys, "sweep", "pigou")


def test_reproduce_wheatstone_exit_2_when_no_branch_converges(tmp_path, monkeypatch,
                                                              capsys):
    no_branch_converges(tmp_path, monkeypatch, capsys, "reproduce-wheatstone", "wheatstone")


# eta_hi > eta_lo, but the 200-point geometric grid between them repeats a float
NARROW_BRACKET = {"eta_hi": "1.0", "eta_lo": "0.99999999999999", "steps": "200"}


@pytest.mark.parametrize("command, name, values, cause", [
    ("sweep", "pigou", {"eta_lo": "3"}, "needs eta_hi > eta_lo > 0"),
    ("bifurcation", "pigou", {"eta_lo": "3"}, "needs eta_hi > eta_lo > 0"),
    ("reproduce-wheatstone", "wheatstone", {"eta_lo": "3"}, "needs eta_hi > eta_lo > 0"),
    ("sweep", "pigou", {"steps": "abc"}, "steps = 'abc' is not a valid int"),
    ("bifurcation", "pigou", {"steps": "abc"}, "steps = 'abc' is not a valid int"),
    ("sweep", "pigou", {"steps": "1"}, "steps >= 2, got eta_hi = 2, eta_lo = 0.001, steps = 1"),
    ("simulate", "pigou", {"dt": "nan"}, "dt must be finite"),
    ("bifurcation", "pigou", {"multistart": "2"}, "multistart must be at least 4"),
    ("simulate", "pigou", {"x0": "explicit: nan; 1"}, "non-finite mass nan at (r1, p1)"),
    ("fixed-point", "pigou", {"eta": "abc"}, "eta = 'abc' is not a number"),
    ("fixed-point", "pigou", {"eta": "inf"}, "eta must be positive and finite"),
    ("simulate", "pigou", {"dt": "-0.1"}, "needs 0 < dt <= horizon, got dt = -0.1, horizon = 50"),
    ("simulate", "pigou", {"horizon": "0.001"}, "got dt = 0.01, horizon = 0.001"),
    ("verify", "pigou", {"dt": "-0.1"}, "needs 0 < dt <= 2, got dt = -0.1"),
    ("verify", "pigou", {"dt": "3"}, "needs 0 < dt <= 2, got dt = 3"),
    ("simulate", "pigou", {"seed": "-4"}, "[run] seed must be nonnegative, got -4"),
    ("simulate", "pigou", {"--seed": "-3"}, "--seed must be nonnegative, got -3"),
    ("simulate", "pigou", {"horizon": "1e300", "dt": "1"},
     "[run] horizon / dt = 1e+300 exceeds the 1000000 step limit"),
    ("sweep", "pigou", {"steps": "1000000000000000"},
     "[run] steps = 1000000000000000 exceeds the 1000000 step limit"),
    ("bifurcation", "pigou", {"steps": "1000000000000000"},
     "[run] steps = 1000000000000000 exceeds the 1000000 step limit"),
    ("simulate", "pigou", {"x0": "vertex: zz"}, "bad x0 'vertex: zz': unknown action 'zz'"),
    *[(command, name, NARROW_BRACKET, "[run] eta_hi = 1.0 and eta_lo = 0.99999999999999 "
       "are too close for steps = 200")
      for command, name in [("bifurcation", "coordination"), ("sweep", "coordination"),
                            ("reproduce-wheatstone", "wheatstone")]],
    ("bifurcation", "pigou", {"multistart": "1000000000000000"},
     "[run] multistart = 1000000000000000 and steps = 40 ask for 40000000000000080 "
     "census starts, more than the 1000000 limit"),
])
def test_main_exit_1_on_bad_scenario_values(tmp_path, capsys, command, name, values,
                                            cause):
    # keys starting with -- are command-line flags, the rest scenario values
    flags = [s for k, v in values.items() if k.startswith("--") for s in (k, v)]
    path = scenario_file(tmp_path, name,
                         **{k: v for k, v in values.items() if not k.startswith("--")})
    code = cli.main([command, "--scenario", str(path), "--out", str(tmp_path), "--quiet",
                     *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and cause in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("steps, reaches_scan", [(58823, True), (58824, False),
                                                  (100000, False)])
def test_bifurcation_bounds_its_census_starts(tmp_path, monkeypatch, capsys, steps,
                                              reaches_scan):
    # steps x (multistart 8 + 9 vertices) starts on wheatstone: 999,991 may
    # reach the scan, one step more may not; the scan is stubbed, so no start runs
    def scan(*args, **kwargs):
        raise NotImplementedError("scan reached")

    monkeypatch.setattr(cli, "bifurcation_scan", scan)
    path = scenario_file(tmp_path, "wheatstone", steps=str(steps))
    argv = ["bifurcation", "--scenario", str(path), "--out", str(tmp_path), "--quiet"]
    if reaches_scan:
        with pytest.raises(NotImplementedError, match="scan reached"):
            cli.main(argv)
        return
    assert cli.main(argv) == 1
    assert (f"multistart = 8 and steps = {steps} ask for {17 * steps} census starts, "
            "more than the 1000000 limit") in capsys.readouterr().err


def test_verify_exit_2_when_a_required_invariant_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "exact_target_check", lambda eta, game, rng: (False, 0.5))
    path = scenario_file(tmp_path, "pigou")
    code = cli.main(["verify", "--scenario", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert ("numerical failure: a required invariant failed; see verify.txt"
            in capsys.readouterr().err)
    assert "FAIL exact_target max_violation=5.000e-01" in (tmp_path / "verify.txt").read_text()


def test_reproduce_wheatstone_exit_2_when_the_trajectories_disagree(tmp_path, monkeypatch,
                                                                    capsys):
    # the second run's terminal state is moved by 0.2 of mass between two
    # routes; the sweep runs on the first grid eta alone, which keeps it fast
    integrate, sweep = cli.integrate, cli.continuation_sweep

    def moved_integrate(*args, **kwargs):
        ta, tb = integrate(*args, **kwargs)
        states = tb.states.copy()
        states[-1, :2, 0] += [0.1, -0.1]
        return ta, dataclasses.replace(tb, states=states)

    monkeypatch.setattr(cli, "integrate", moved_integrate)
    monkeypatch.setattr(cli, "continuation_sweep", lambda game, grid, seeds:
                        sweep(game, grid[:1], seeds))
    code = cli.main(["reproduce-wheatstone", "--scenario",
                     str(SCENARIO_DIR / "wheatstone.scn"), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert ("numerical failure: trajectories disagree by 2.000e-01 at the horizon"
            in capsys.readouterr().err)
    for name in ["wheatstone_traj_1.csv", "wheatstone_traj_2.csv", "wheatstone_sweep.csv"]:
        assert (tmp_path / name).is_file()


@pytest.mark.parametrize("command, key", [
    ("fixed-point", "eta"), ("verify", "eta"), ("bifurcation", "eta_lo"), ("sweep", "eta_lo")])
def test_main_exit_1_on_subnormal_noise(tmp_path, capsys, command, key):
    # 1/eta overflows; without the check these crashed in eigvals or were
    # reported as a sweep whose branches did not converge
    path = scenario_file(tmp_path, "pigou", **{key: "1e-320"})
    code = cli.main([command, "--scenario", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert f"{key} = 1e-320 is too small: 1/{key} overflows" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["1e-12", "1e-13"])
def test_main_exit_2_past_the_tolerance_bound(tmp_path, capsys, caplog, eta):
    path = scenario_file(tmp_path, "wheatstone", eta=eta)
    code = cli.main(["fixed-point", "--scenario", str(path), "--out", str(tmp_path),
                     "--quiet"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
    assert any("roundoff floor" in m and "bound" in m for m in caplog.messages)


def test_bifurcation_exit_2_where_no_solve_is_trusted(tmp_path, capsys):
    # past the tolerance bound every start stops, so a zero count would claim
    # "no fixed point" where the logit map always has one; the table is kept.
    # The 16 zeros are the etas below 5.7e-8, where pigou's roundoff floor
    # passes the bound. Each larger eta counts its one point, the census
    # counting every start that fixed_points converged: at the two just above
    # (2.3e-7, 1.1e-7) the starts land within their tolerance of 2.5e-7 or
    # 5.1e-7, at residuals of 1.2e-8 or more
    path = scenario_file(tmp_path, "pigou", eta_lo="1e-12")
    out = tmp_path / "out"
    code = cli.main(["bifurcation", "--scenario", str(path), "--out", str(out), "--quiet"])
    assert code == 2
    lines = (out / "bifurcation.csv").read_text().splitlines()[1:]
    zeros = [ln.split(",")[0] for ln in lines if ln.endswith(",0,0")]
    assert len(lines) == 40 and len(zeros) == 16
    assert lines[-16:] == [f"{eta},0,0" for eta in zeros]
    assert all(ln.endswith(",1,1") for ln in lines[:-16])
    assert float(zeros[0]) < 5.7e-8 and float(lines[-17].split(",")[0]) > 1.1e-7
    err = capsys.readouterr().err
    assert (f"no solve could be trusted at 16 of 40 etas, the largest "
            f"eta={float(zeros[0]):g}") in err


@pytest.mark.parametrize("name", ["pigou", "coordination"])
@pytest.mark.parametrize("off, code", [("5e-9", 0), ("2e-8", 1)])
def test_classify_checks_x0_at_the_nash_tolerance(tmp_path, name, off, code):
    # routing and explicit games alike: a column sum off the mass 1 by up to
    # NASH_TOL classifies, and one further off is a bad x0
    path = scenario_file(tmp_path, name, x0=f"explicit: {off}; 1")
    assert cli.main(["classify", "--scenario", str(path), "--out", str(tmp_path),
                     "--quiet"]) == code


def test_classify_route_longer_than_the_recursion_limit(tmp_path):
    n = sys.getrecursionlimit() + 200
    links = [f"e{k}, n{k}, n{k + 1}" for k in range(n - 1)]
    costs = [f"e{k}, all, affine, 1, 0" for k in range(n - 1)]
    text = "\n".join(["[nodes]", *(f"n{k}" for k in range(n)), "[links]", *links,
                      "[costs]", *costs, "[populations]", "p1, 1", "[od]",
                      f"n0, n{n - 1}", "[dynamics]", "protocol = logit", "eta = 0.5"])
    path = tmp_path / "chain.scn"
    path.write_text(text + "\n")
    assert cli.main(["classify", "--scenario", str(path), "--out", str(tmp_path),
                     "--quiet"]) == 0
    assert "topology: parallel" in (tmp_path / "classify.txt").read_text()


def test_main_exit_1_when_out_is_a_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    code = cli.main(["classify", "--scenario", str(SCENARIO_DIR / "pigou.scn"),
                     "--out", str(out), "--quiet"])
    assert code == 1
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_main_exit_1_on_decreasing_tolled_curve(tmp_path, capsys):
    text = (SCENARIO_DIR / "tolls.scn").read_text()
    p = tmp_path / "tolls.scn"
    p.write_text(text.replace("e2, all, affine, 1, 0", "e2, all, affine, -1, 3"))
    code = cli.main(["simulate", "--scenario", str(p), "--out", str(tmp_path), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "link cost for (e2, p1) is decreasing" in err


CLI_STDOUT = [
    ("simulate", "pigou", {"horizon": "1"},
     r"wrote {out}/trajectory\.csv \(101 records, mass drift \S+\)"),
    ("fixed-point", "pigou", {}, r"wrote {out}/fixed_point\.csv \(residual \S+, \d+ iterations\)"),
    ("sweep", "pigou", {"steps": "5"},
     r"wrote {out}/sweep\.csv \(1 branch\(es\), eta 2 down to 0\.001\)"),
    ("bifurcation", "pigou", {"steps": "5"}, r"wrote {out}/bifurcation\.csv \(stable counts 1\.\.1\)"),
    ("classify", "pigou", {}, r"wrote {out}/classify\.txt"),
    ("verify", "pigou", {}, r"wrote {out}/verify\.txt"),
    ("reproduce-wheatstone", "wheatstone", {}, r"wrote {out}/wheatstone_traj_1\.csv, "
     r"{out}/wheatstone_traj_2\.csv, {out}/wheatstone_sweep\.csv"),
]


@pytest.mark.parametrize("command, name, values, wrote", CLI_STDOUT,
                         ids=[row[0] for row in CLI_STDOUT])
def test_main_without_quiet_reports_to_stdout(tmp_path, monkeypatch, capsys, command, name,
                                              values, wrote):
    if command == "reproduce-wheatstone":
        # the sweep runs on the first grid eta alone, which keeps it fast
        sweep = cli.continuation_sweep
        monkeypatch.setattr(cli, "continuation_sweep", lambda game, grid, seeds:
                            sweep(game, grid[:1], seeds))
    out = tmp_path / "out"
    path = scenario_file(tmp_path, name, **values)
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == 0
    *head, wrote_line, finished = capsys.readouterr().out.splitlines()
    assert re.fullmatch(wrote.format(out=re.escape(str(out))), wrote_line)
    assert re.fullmatch(rf"{command} finished in \d+\.\d\ds", finished)
    if command in ("classify", "verify"):
        assert head == (out / f"{command}.txt").read_text().splitlines()
    elif command == "reproduce-wheatstone":
        assert head[0].startswith("terminal l1 gap between the two runs: ")
        assert head[1].startswith("limit link flow: ") and len(head) == 2
    else:
        assert head == []


LOADER_ERRORS = [
    ("no-eta", "coordination", "eta = 0.25\n", "", "[dynamics] needs eta"),
    ("x0-unparseable", "coordination", "x0 = uniform", "x0 = explicit: 0.5; a",
     "unparseable explicit x0"),
    ("x0-unknown", "coordination", "x0 = uniform", "x0 = corner",
     "unknown x0 description 'corner'"),
    ("x0-explicit-count", "coordination", "x0 = uniform", "x0 = explicit: 0.5, 0.5",
     "explicit x0 has shape (1, 2), expected (2, 1)"),
    ("x0-vertex-count", "pigou", "x0 = vertex:r2", "x0 = vertex:r1, r2",
     "bad x0 'vertex:r1, r2': need one action per population (1), got 2"),
    ("population-record", "coordination", "p1, 1", "p1, 1, 2",
     "population record needs 'id, mass'"),
    ("cost-record", "coordination", "a2, all, affine, -1, 2", "a2, all",
     "cost record needs 'ref, population, kind, params...'"),
    ("link-record", "pigou", "e2, o, d", "e2, o", "link record needs 'id, tail, head'"),
    ("toll-record", "tolls", "e2, 1\n", "e3, 1\n",
     "toll record needs 'link, omega' with a known link"),
    ("sensitivity-record", "tolls", "p2, 2", "p2",
     "sensitivity record needs 'population, alpha'"),
    ("cost-unknown-link", "pigou", "e2, all, constant, 1", "e3, all, constant, 1",
     "unknown link 'e3' in cost record"),
    ("cost-unknown-action", "coordination", "a2, all, affine, -1, 2", "a3, all, affine, -1, 2",
     "unknown action 'a3' in cost record"),
    ("cost-unknown-population", "coordination", "a2, all, affine, -1, 2",
     "a2, p2, affine, -1, 2", "unknown population 'p2' in cost record"),
    ("cost-duplicate-all", "pigou", "e2, all, constant, 1",
     "e2, all, constant, 1\ne2, all, constant, 2", "duplicate 'all' cost record for 'e2'"),
    ("duplicate-node", "pigou", "[nodes]\no, d", "[nodes]\no, d, o", "duplicate node ids"),
    ("self-loop", "pigou", "e2, o, d", "e2, o, o", "link 'e2' is a self-loop"),
    ("unknown-node", "pigou", "e2, o, d", "e2, o, x", "link 'e2' references unknown node"),
    ("missing-sensitivity", "tolls", "p2, 2\n", "", "no toll sensitivity for 'p2'"),
    ("no-actions", "coordination", "[actions]\na1, a2\n", "",
     "explicit scenario needs [actions]"),
    ("duplicate-population", "coordination", "p1, 1", "p1, 1\np1, 1",
     "action and population ids must be unique"),
    ("zero-mass", "coordination", "p1, 1", "p1, 0",
     "at least one population must have positive mass"),
    ("constant-two-values", "pigou", "e2, all, constant, 1", "e2, all, constant, 1, 2",
     "constant cost needs one value"),
    ("table-equal-breakpoints", "pigou", "e2, all, constant, 1",
     "e2, all, table, 0, 1, 0, 2", "table breakpoints must be strictly increasing"),
    ("no-key-value", "pigou", "dt = 0.01", "dt 0.01", "expected 'key = value'"),
]


@pytest.mark.parametrize("name, old, new, cause", [row[1:] for row in LOADER_ERRORS],
                         ids=[row[0] for row in LOADER_ERRORS])
def test_main_exit_1_names_the_scenario_error(tmp_path, capsys, name, old, new, cause):
    # one edit to a bundled scenario; the message names the file once
    text = (SCENARIO_DIR / f"{name}.scn").read_text()
    assert text.count(old) == 1
    path = tmp_path / f"{name}.scn"
    path.write_text(text.replace(old, new))
    code = cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count(str(path)) == 1
    assert cause in err
    assert not list(tmp_path.glob("*.csv"))


OVERFLOW_RUNS = [
    *[("homogeneous", "e2", "r2", command, 2,
       "numerical failure: non-finite cost for action 'r2', population 'p1'\n")
      for command in ("simulate", "fixed-point", "classify")],
    ("pigou", "e1", "r1", "simulate", 0, ""),
    ("pigou", "e1", "r1", "fixed-point", 2,
     "numerical failure: fixed-point solve stalled at residual 4.540e-16 (eta=0.25)\n"),
    *[("wheatstone", "e4", "r2", command, 2,
       "numerical failure: non-finite cost for action 'r2', population 'p1'\n")
      for command in ("simulate", "fixed-point", "classify")],
]


@pytest.mark.parametrize("name, link, x0, command, code, err", OVERFLOW_RUNS,
                         ids=[f"{run[0]}-{run[3]}" for run in OVERFLOW_RUNS])
def test_link_cost_overflow(tmp_path, capsys, name, link, x0, command, code, err):
    # a cost of 1e308 per unit overflows at a flow above 1. Where the
    # incidence is not the identity (wheatstone), the route cost A.T @ tau(y)
    # then multiplies inf by 0, which leaves NaN on every other route, r1
    # among them, yet the error names r2, the route through the overflowing
    # link; a parallel network skips that product and makes no NaN. On pigou the
    # start's map image has r1 as deep as a start goes, 36 log-units below r2,
    # where r1 still costs 2.3e92: that puts the roundoff floor past the bound,
    # so the solve stops at its first step, with a residual of 4.5e-16 that it
    # cannot trust. numpy's warnings stay off stderr
    path = scenario_file(tmp_path, name, x0=f"vertex:{x0}")
    text, n = re.subn(rf"^{link}, all, affine, .*$", f"{link}, all, affine, 1e308, 0",
                      path.read_text(), flags=re.M)
    assert n == 1
    path.write_text(text)
    assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"]) == code
    assert capsys.readouterr().err == err


def test_nan_a_command_survives_is_warned_of(tmp_path, monkeypatch):
    # the overflow and invalid-value warnings are off only where they add
    # nothing: a command that returns after making NaN still warns
    def command(scenario, out, seed, quiet):
        np.subtract(np.inf, np.inf)
    monkeypatch.setitem(cli._COMMANDS, "simulate", command)
    with pytest.warns(RuntimeWarning, match="simulate: 1 invalid floating-point operation"):
        assert cli.run("simulate", get_scenario("pigou"), out_dir=tmp_path) == 0


# ---------------------------------------------------------------------------
# reproduce-wheatstone and the console script


def test_reproduce_wheatstone_smoke(tmp_path):
    text = (SCENARIO_DIR / "wheatstone.scn").read_text()
    text = text.replace("steps = 60", "steps = 12")
    text = text.replace("eta_lo = 0.001", "eta_lo = 0.05")
    p = tmp_path / "wheat.scn"
    p.write_text(text)
    scn = gd.load_scenario(p)
    assert cli.run("reproduce-wheatstone", scn, out_dir=tmp_path, quiet=True) == 0
    for fname in ("wheatstone_traj_1.csv", "wheatstone_traj_2.csv",
                  "wheatstone_sweep.csv"):
        assert (tmp_path / fname).is_file()
    header = (tmp_path / "wheatstone_traj_1.csv").read_text().splitlines()[0]
    assert header.endswith("y_e1,y_e2,y_e3,y_e4,y_e5")


def test_console_script(tmp_path):
    # the installed entry point when present, else the module with src importable
    exe = shutil.which("gamedyn")
    cmd = [exe] if exe else [sys.executable, "-m", "gamedyn.cli"]
    src = str(Path(gd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    _, scn_path = short_pigou(tmp_path)
    proc = subprocess.run(
        cmd + ["simulate", "--scenario", str(scn_path), "--out", str(tmp_path), "--quiet"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectory.csv").is_file()

    bad = tmp_path / "bad.scn"
    bad.write_text("[whatever]\nz\n")
    proc = subprocess.run(
        cmd + ["simulate", "--scenario", str(bad), "--out", str(tmp_path), "--quiet"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_import_loads_only_numpy_outside_the_stdlib():
    # numpy is the one runtime dependency; a fresh interpreter shows what
    # `import gamedyn` itself pulls in, whatever the test session has loaded
    src = str(Path(gd.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); import gamedyn; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
            "- set(sys.stdlib_module_names) - {'gamedyn'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['numpy']"


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps package functions and methods by name, so a
    # renamed one fails here instead of dropping out of `--trace 1`. It runs
    # in a fresh interpreter, so this test session stays unwrapped
    src = str(Path(gd.__file__).resolve().parents[1])
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([perfbench, src])))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", sorted(
    p.name for p in SCENARIO_DIR.parent.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    # __init__.py imports to re-export; every other module imports to use
    tree = ast.parse((SCENARIO_DIR.parent / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("module", sorted(
    p.name for p in SCENARIO_DIR.parent.glob("*.py")))
def test_module_imports_no_private_name_of_another(module):
    # a leading underscore marks a name as its own module's business
    tree = ast.parse((SCENARIO_DIR.parent / module).read_text())
    private = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("gamedyn"))
               for a in node.names if a.name.startswith("_")]
    assert private == []
