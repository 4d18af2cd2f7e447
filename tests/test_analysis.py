"""Continuation sweeps, limit equilibria, bifurcation census, Lyapunov checks."""

import dataclasses
import hashlib

import numpy as np
import pytest

import gamedyn as gd
from gamedyn import analysis, logit
from gamedyn.analysis import dedup_curves, entropy_term

from conftest import get_scenario


def coordination_seeds(game):
    return [gd.vertex_configuration(game, "a1"),
            gd.vertex_configuration(game, "a2"),
            gd.uniform_configuration(game)]


def test_continuation_sweep_input_validation():
    # the seeds are checked as configurations; a one-eta grid is a grid
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(gd.ConfigurationError):
        gd.continuation_sweep(g, [1.0, 0.5], [np.full((2, 1), 0.7)])
    curves = gd.continuation_sweep(g, [1.0], coordination_seeds(g))
    assert curves and all(len(c.etas) == 1 and not c.terminated for c in curves)


BAD_GRIDS = {
    "increasing": [0.1, 0.5],
    "repeated": np.geomspace(1.0, 0.99999999999999, 200),
    "two-dimensional": [[0.5, 0.4]],
    "empty": [],
}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
@pytest.mark.parametrize("scan", [
    lambda g, grid: gd.continuation_sweep(g, grid, coordination_seeds(g)),
    lambda g, grid: gd.bifurcation_scan(g, grid),
], ids=["continuation_sweep", "bifurcation_scan"])
def test_scans_reject_the_same_bad_grids(scan, grid):
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="^eta_grid must be strictly decreasing$"):
        scan(g, grid)


def test_coordination_sweep_finds_pitchfork_branches():
    g, _ = get_scenario("coordination").build_game()
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 60),
                                   coordination_seeds(g))
    assert len(curves) == 3

    v1 = min(curves, key=lambda c: abs(c.terminal_limit[0, 0] - 1.0))
    v2 = min(curves, key=lambda c: abs(c.terminal_limit[1, 0] - 1.0))
    sym = min(curves, key=lambda c: abs(c.terminal_limit[0, 0] - 0.5))
    assert {id(v1), id(v2), id(sym)} == {id(c) for c in curves}
    assert abs(v1.terminal_limit[0, 0] - 1.0) <= 1e-3
    assert abs(v2.terminal_limit[1, 0] - 1.0) <= 1e-3

    # the symmetric branch stays put and loses stability below the fork
    np.testing.assert_allclose(sym.points[:, 0, 0], 0.5, atol=1e-8)
    assert sym.stable[0] and not sym.stable[-1]
    # the vertex branches are locally stable along the entire grid
    assert v1.stable.all() and v2.stable.all()
    assert not v1.terminated
    np.testing.assert_array_equal(v1.etas, np.geomspace(2.0, 1e-3, 60))


def test_branch_jump_diagnostic_on_smooth_curve():
    # fork-free branch on a 200-point grid: the max consecutive jump stays
    # within 10x the median jump (the branch-switch detector stays quiet)
    g, _ = get_scenario("pigou").build_game()
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 200),
                                   [gd.uniform_configuration(g)])
    assert len(curves) == 1
    jumps = np.abs(np.diff(curves[0].points, axis=0)).sum(axis=(1, 2))
    assert jumps.max() <= 10 * float(np.median(jumps))


def test_fork_hop_is_the_only_large_jump():
    # the vertex-seeded branches hop off the destabilized symmetric point
    # exactly once, right at the fork; everywhere else they move smoothly
    g, _ = get_scenario("coordination").build_game()
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 200),
                                   coordination_seeds(g))
    v1 = min(curves, key=lambda c: abs(c.terminal_limit[0, 0] - 1.0))
    jumps = np.abs(np.diff(v1.points, axis=0)).sum(axis=(1, 2))
    k = int(np.argmax(jumps))
    assert 0.4 <= v1.etas[k + 1] <= 0.5
    others = np.delete(jumps, k)
    assert others.max() <= 0.6 * jumps[k]


def test_sweep_residuals_and_margins_recorded():
    g, _ = get_scenario("pigou").build_game()
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 30),
                                   [gd.uniform_configuration(g)])
    assert len(curves) == 1
    c = curves[0]
    assert np.all(c.residuals <= 1e-8)
    # pigou's column cancellation pins the l1 margin at -1 everywhere
    np.testing.assert_allclose(c.l1_margins, -1.0, atol=1e-9)
    assert c.stable.all()


@pytest.mark.parametrize("name, solves, iterations, branches", [
    ("coordination", 231, 2712, 3),
    ("pigou", 180, 1889, 1),
])
def test_continuation_warm_start_counts(monkeypatch, name, solves, iterations, branches):
    # pins the secant predictor and the nudge retry: any change to either
    # moves the number of solves or the Picard iterations they take
    g, _ = get_scenario(name).build_game()
    real = analysis.fixed_point
    totals = [0, 0]

    def counted(*args, **kwargs):
        r = real(*args, **kwargs)
        totals[0] += 1
        totals[1] += r.iterations
        return r

    monkeypatch.setattr(analysis, "fixed_point", counted)
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 60),
                                   gd.monomorphic_vertices(g) + [gd.uniform_configuration(g)])
    assert totals == [solves, iterations]
    assert len(curves) == branches


def test_dedup_merges_identical_branches():
    g, _ = get_scenario("coordination").build_game()
    seeds = [gd.vertex_configuration(g, "a1")] * 2
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 20), seeds)
    assert len(curves) == 1
    assert dedup_curves(curves) == curves


def test_sweep_rejects_a_grid_too_narrow_for_its_steps():
    # eta_hi > eta_lo, but 200 geometric steps between them repeat a float,
    # which would divide the secant gain by zero: the scenario builds the
    # sweep's grid, np.geomspace bit for bit, and refuses that one
    scn = get_scenario("coordination")
    np.testing.assert_array_equal(scn.noise_grid(steps=60), np.geomspace(2.0, 1e-3, 60))
    narrow = dataclasses.replace(scn, run={**scn.run, "eta_hi": "1.0",
                                           "eta_lo": "0.99999999999999", "steps": "200"})
    with pytest.raises(gd.ScenarioError, match="too close for steps = 200"):
        narrow.noise_grid(steps=60)


def test_constant_costs_limit_matches_closed_form():
    # eta -> 0 concentrates the softmax of costs (1, 2) on the first action
    g, _ = get_scenario("constant").build_game()
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-3, 30),
                                   [gd.uniform_configuration(g)])
    assert len(curves) == 1
    x_lim = curves[0].terminal_limit
    z = np.exp(-(np.array([1.0, 2.0]) - 1.0) / 1e-3)   # shifted for overflow
    np.testing.assert_allclose(x_lim[:, 0], z / z.sum(), atol=1e-6)


# ---------------------------------------------------------------------------
# Bifurcation census


def test_bifurcation_scan_input_validation(rng):
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="multistart"):
        gd.bifurcation_scan(g, [0.5, 0.4], multistart=2, rng=rng)


class StartsRecorded(Exception):
    pass


@pytest.mark.parametrize("name, digest", [
    ("coordination", "9155e823864463d19abcf1205536dd5eb9e92ece8f07735669510ae2c2fbf3f9"),
    ("wheatstone", "75405c5aae0c2fcc088fec9d9dee85b0ff814a4a3bef50263588037c3815e8b9"),
], ids=["coordination", "wheatstone"])
def test_census_starts_are_pinned(monkeypatch, name, digest):
    # the per-start etas and the start stack handed to the solver, in the
    # order the census draws them at a fixed rng
    g, _ = get_scenario(name).build_game()
    seen = {}

    def record(game, eta, x0s):
        seen["eta"] = np.asarray(eta, dtype=float)
        seen["x0s"] = np.asarray(x0s, dtype=float)
        raise StartsRecorded

    monkeypatch.setattr(analysis, "fixed_points", record)
    with pytest.raises(StartsRecorded):
        gd.bifurcation_scan(g, np.geomspace(2.0, 1e-3, 25), multistart=8,
                            rng=np.random.default_rng(11))
    m = 8 + len(gd.monomorphic_vertices(g))
    assert seen["eta"].shape == (25 * m,) and len(seen["x0s"]) == 25 * m
    sha = hashlib.sha256(seen["eta"].tobytes() + seen["x0s"].tobytes()).hexdigest()
    assert sha == digest


def test_bifurcation_scan_counts_coordination_fork(rng):
    g, _ = get_scenario("coordination").build_game()
    sweep = gd.bifurcation_scan(g, [0.8, 0.6, 0.3, 0.2], multistart=8, rng=rng)
    assert sweep.n_fixed_points[0] == 1 and sweep.n_stable[0] == 1
    assert sweep.n_fixed_points[-1] == 2 and sweep.n_stable[-1] == 2
    # counts never decrease as eta drops through the fork
    assert np.all(np.diff(sweep.n_fixed_points) >= 0)


def test_census_corrector_counts(monkeypatch):
    # exact work of the census on the coordination grid: one fixed_points
    # stack for all 5 etas, its corrector steps (one _noise_free_parts stack
    # each) and their trial evaluations (one softmax per step for the
    # residual, the rest Armijo rounds). Three starts land on the unstable
    # symmetric point; each restarts once inside the corrector, and none
    # falls back to fixed_point
    g, _ = get_scenario("coordination").build_game()
    maps, softmaxes, stacks, solves, fallbacks, pushed = [], [], [], [], [], []
    real_map, real_softmax, real_parts, real_restarts, real_solves = (
        logit.logit_map, logit.softmax_target, logit._noise_free_parts,
        logit._restarts, analysis.fixed_points)

    def counted(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    def recorded_restarts(game, M, X, X0):
        pushed.extend([len(stacks) - 1] * len(X))
        return real_restarts(game, M, X, X0)

    monkeypatch.setattr(logit, "logit_map", counted(maps, real_map))
    monkeypatch.setattr(logit, "softmax_target", counted(softmaxes, real_softmax))
    monkeypatch.setattr(logit, "_noise_free_parts", counted(stacks, real_parts))
    monkeypatch.setattr(logit, "_restarts", recorded_restarts)
    monkeypatch.setattr(logit, "fixed_point", counted(fallbacks, logit.fixed_point))
    monkeypatch.setattr(analysis, "fixed_points", counted(solves, real_solves))
    sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, 5), multistart=6,
                                rng=np.random.default_rng(3))
    steps = len(stacks)
    trials = len(softmaxes) - steps
    assert (len(solves), steps, trials, len(fallbacks)) == (1, 9, 9, 0)
    # the restarted starts, by the corrector step at which they landed
    assert pushed == [2, 3, 3]
    assert not maps
    np.testing.assert_array_equal(sweep.n_stable, [1, 1, 2, 2, 2])


@pytest.mark.parametrize("name", ["constant", "pigou"])
def test_bifurcation_scan_unique_branch_scenarios(name, rng):
    g, _ = get_scenario(name).build_game()
    sweep = gd.bifurcation_scan(g, [1.0, 0.3, 0.05], multistart=6, rng=rng)
    np.testing.assert_array_equal(sweep.n_fixed_points, [1, 1, 1])
    np.testing.assert_array_equal(sweep.n_stable, [1, 1, 1])


# ---------------------------------------------------------------------------
# Potentials and the Lyapunov property


def test_entropy_term_closed_forms():
    g, _ = get_scenario("coordination").build_game()
    assert entropy_term(g, gd.uniform_configuration(g)) == pytest.approx(-np.log(2))
    assert entropy_term(g, gd.vertex_configuration(g, "a1")) == 0.0


def test_lyapunov_check_descends_on_coordination():
    g, _ = get_scenario("coordination").build_game()
    eta = 0.25
    traj = gd.integrate(g, eta, np.array([[0.9], [0.1]]), 10.0, 0.01)
    rep = gd.lyapunov_check(g, traj, eta, gd.potential(g))
    assert rep.ok and bool(rep)
    assert rep.max_uphill <= 1e-10
    assert rep.values[0] > rep.values[-1]


def test_lyapunov_check_rejects_eta_mismatch():
    g, _ = get_scenario("coordination").build_game()
    traj = gd.integrate(g, 0.25, gd.uniform_configuration(g), 1.0, 0.1)
    with pytest.raises(ValueError, match="does not match"):
        gd.lyapunov_check(g, traj, 0.5, gd.potential(g))
