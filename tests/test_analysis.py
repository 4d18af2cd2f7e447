"""Continuation sweeps, limit equilibria, bifurcation census, Lyapunov checks."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gamedyn as gd
from gamedyn import analysis, logit
from gamedyn.analysis import dedup_curves, entropy_term

from conftest import census_rule, count_picard, get_scenario, wide_game


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
    "increasing": ([0.1, 0.5], "strictly decreasing"),
    "repeated": (np.geomspace(1.0, 0.99999999999999, 200), "strictly decreasing"),
    "two-dimensional": ([[0.5, 0.4]], "1-D and non-empty"),
    "empty": ([], "1-D and non-empty"),
}


@pytest.mark.parametrize("grid, fault", BAD_GRIDS.values(), ids=BAD_GRIDS)
@pytest.mark.parametrize("scan", [
    lambda g, grid: gd.continuation_sweep(g, grid, coordination_seeds(g)),
    lambda g, grid: gd.bifurcation_scan(g, grid),
], ids=["continuation_sweep", "bifurcation_scan"])
def test_scans_reject_the_same_bad_grids(scan, grid, fault):
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match=f"^eta_grid must be {fault}$"):
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


def test_a_zero_mass_column_stays_zero_down_the_sweep(monkeypatch):
    # wide_game's p2 has zero mass; every secant prediction is rescaled onto
    # the masses, and p2's column comes out zero at every grid point
    g = wide_game()
    real, projected = analysis._project_configuration, []

    def project(game, x):
        projected.append(real(game, x))
        return projected[-1]

    monkeypatch.setattr(analysis, "_project_configuration", project)
    seeds = gd.monomorphic_vertices(g)[:3] + [gd.uniform_configuration(g)]
    curves = gd.continuation_sweep(g, np.geomspace(2.0, 1e-2, 20), seeds)
    assert curves and not any(c.terminated for c in curves)
    assert len(projected) >= 18 * len(curves)
    assert not np.array(projected)[:, :, 1].any()
    for c in curves:
        assert not c.points[:, :, 1].any()
        np.testing.assert_allclose(c.points.sum(axis=1), np.broadcast_to(g.masses, (20, 3)),
                                   rtol=1e-12)


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


@pytest.mark.parametrize("multistart", [4.5, 6.0, "6"])
def test_bifurcation_scan_names_a_multistart_that_is_no_integer(multistart):
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match=f"^multistart must be an integer of at least 4, "
                                         f"got {multistart!r}$"):
        gd.bifurcation_scan(g, [0.5, 0.4], multistart=multistart)


def test_bifurcation_scan_takes_a_numpy_integer_multistart():
    g, _ = get_scenario("coordination").build_game()
    sweep = gd.bifurcation_scan(g, [0.8, 0.2], multistart=np.int64(4),
                                rng=np.random.default_rng(0))
    assert sweep.n_stable.tolist() == [1, 2]


NON_POSITIVE_GRIDS = {
    "nan": [1.0, np.nan, 0.5],
    "zero": [1.0, 0.0],
    "negative": [1.0, -0.5],
    "inf": [np.inf, 1.0],
}


@pytest.mark.parametrize("grid", NON_POSITIVE_GRIDS.values(), ids=NON_POSITIVE_GRIDS)
@pytest.mark.parametrize("scan", [
    lambda g, grid: gd.continuation_sweep(g, grid, coordination_seeds(g)),
    lambda g, grid: gd.bifurcation_scan(g, grid),
], ids=["continuation_sweep", "bifurcation_scan"])
def test_scans_name_an_eta_that_is_not_finite_and_positive(scan, grid):
    # before any solve: a NaN or 0 used to fail deep in the solver, and an
    # infinite eta was accepted and counted
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match=r"^eta_grid: each eta must be positive and finite, "
                                         r"got \["):
        scan(g, grid)


@pytest.mark.parametrize("newton_steps", [logit.NEWTON_STEPS, 3])
def test_census_builds_a_result_only_for_each_point_it_counts(monkeypatch, newton_steps):
    # the census counts on the solver's arrays: no FixedPointResult is built,
    # not for the points the census counts, the starts it only reads, nor
    # the 20 starts a cap of 3 steps stops, and no start calls damped Picard
    g, _ = get_scenario("coordination").build_game()
    built, stacks = [], []
    real_result, real_solve = logit.FixedPointResult, analysis.fixed_points

    def counted_result(*args):
        built.append(1)
        return real_result(*args)

    def recorded(*args):
        stacks.append(real_solve(*args))
        return stacks[-1]

    monkeypatch.setattr(logit, "NEWTON_STEPS", newton_steps)
    monkeypatch.setattr(logit, "FixedPointResult", counted_result)
    monkeypatch.setattr(analysis, "fixed_points", recorded)
    picard = count_picard(monkeypatch)
    sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, 5), multistart=6,
                                rng=np.random.default_rng(3))
    assert not built and not picard
    assert (~stacks[0].converged).sum() == (0 if newton_steps > 3 else 20)
    assert 0 < sweep.n_fixed_points.sum() < 5 * 8


@pytest.mark.parametrize("name, newton_steps", [
    ("coordination", logit.NEWTON_STEPS), ("wheatstone", logit.NEWTON_STEPS), ("coordination", 3),
])
def test_census_runs_no_solver_pass_on_an_empty_stack(monkeypatch, name, newton_steps):
    # stability, linear solve and backtracking run only on the starts that
    # need them, never on a stack of none
    g, _ = get_scenario(name).build_game()
    sizes = {"_stabilities": [], "_solve": [], "_armijo": []}

    def sized(f, at):
        def call(*args):
            sizes[f.__name__].append(len(args[at]))
            return f(*args)
        return call

    monkeypatch.setattr(logit, "NEWTON_STEPS", newton_steps)
    for f, at in ((logit._stabilities, 0), (logit._solve, 0), (logit._armijo, 2)):
        monkeypatch.setattr(logit, f.__name__, sized(f, at))
    gd.bifurcation_scan(g, np.geomspace(2.0, 1e-3, 25), multistart=8,
                        rng=np.random.default_rng(11))
    assert all(sizes.values()) and min(map(min, sizes.values())) >= 1


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
    # and one softmax, for the landing test, each) and its trial points (one
    # _points stack for the starts' map images, one for each step's restarts
    # and the rest Armijo rounds). Three starts land on the unstable
    # symmetric point; each restarts once inside the corrector, and no start
    # calls damped Picard
    g, _ = get_scenario("coordination").build_game()
    maps, softmaxes, points, stacks, solves, pushed = [], [], [], [], [], []
    real_map, real_softmax, real_points, real_parts, real_restarts, real_solves = (
        logit.logit_map, logit.softmax_target, logit._points, logit._noise_free_parts,
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
    monkeypatch.setattr(logit, "_points", counted(points, real_points))
    monkeypatch.setattr(logit, "_noise_free_parts", counted(stacks, real_parts))
    monkeypatch.setattr(logit, "_restarts", recorded_restarts)
    picard = count_picard(monkeypatch)
    monkeypatch.setattr(analysis, "fixed_points", counted(solves, real_solves))
    sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, 5), multistart=6,
                                rng=np.random.default_rng(3))
    steps = len(stacks)
    assert (len(solves), steps, len(softmaxes) - steps, len(points), len(picard)) == (1, 9, 0, 20, 0)
    # the restarted starts, by the corrector step at which they landed
    assert pushed == [2, 3, 3]
    assert not maps
    np.testing.assert_array_equal(sweep.n_stable, [1, 1, 2, 2, 2])


# each start of a drawn census stack: a fresh point (about half its entries
# 0), or an earlier start of its eta moved by an l1 step a few ulps below, at
# or above SAME_POINT_L1, in one entry (one that was 0 moves by the step
# exactly) or split over two; with a residual on either side of the 1e-8 that
# counts
START_KINDS = st.tuples(
    st.sampled_from(["fresh", "near", "near", "split"]),
    st.integers(-4, 4),
    st.sampled_from([True, True, True, False]),
    st.sampled_from([0.0, 1e-9, 1e-8, np.nextafter(1e-8, 1.0), 1.0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(4, 7), st.sampled_from([(2, 1), (3, 2), (6, 3)]),
       st.data(), st.integers(0, 2 ** 32 - 1))
def test_census_keeps_the_points_of_the_generator_rule(n_etas, multistart, shape, data,
                                                      seed):
    g, _ = get_scenario("coordination").build_game()
    m = multistart + len(gd.monomorphic_vertices(g))
    kinds = data.draw(st.lists(START_KINDS, min_size=n_etas * m, max_size=n_etas * m))
    rng = np.random.default_rng(seed)
    info = gd.StabilityInfo(-1.0, -1.0, True)
    results = []
    for j, (kind, ulps, converged, residual) in enumerate(kinds):
        if kind == "fresh" or j % m == 0:
            x = rng.random(shape) * rng.integers(0, 2, shape)
        else:
            x = results[j - 1 - rng.integers(j % m)].x.copy()
            step = analysis.SAME_POINT_L1 * (1.0 + ulps * np.finfo(float).eps)
            zeros = np.flatnonzero(x == 0.0)
            a = rng.choice(zeros) if len(zeros) else rng.integers(x.size)
            b = rng.choice(np.delete(np.arange(x.size), a))
            part = step * rng.random() if kind == "split" else step
            x.flat[a] += part
            x.flat[b] -= step - part
        results.append(gd.FixedPointResult(x, residual, 0, converged, 1.0, info))
    fields = [np.array([getattr(r, f) for r in results])
              for f in ("x", "residual", "iterations", "converged", "eta")]
    # each start stable or not, as its spectral abscissa's sign says
    stack = logit.FixedPointStack(*fields, np.full(len(results), -1.0),
                                  rng.choice([-1.0, 1.0], len(results)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(analysis, "fixed_points", lambda game, eta, x0s: stack)
        sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.5, n_etas), multistart,
                                    rng=np.random.default_rng(0))
    found = [census_rule([stack[j] for j in range(k * m, (k + 1) * m)])
             for k in range(n_etas)]
    assert sweep.n_fixed_points.tolist() == [len(f) for f in found]
    assert sweep.n_stable.tolist() == [sum(r.stability.locally_stable for r in f)
                                       for f in found]


@pytest.mark.parametrize("name", ["coordination", "wheatstone"])
def test_census_results_equal_lone_solves_in_every_field(monkeypatch, name):
    # each start of the census's one stack, and so each point it counts, is
    # its start's own fixed_points result, untouched by its stack-mates
    g, _ = get_scenario(name).build_game()
    solves = {}
    real = analysis.fixed_points

    def recorded(game, eta, x0s):
        solves.update(eta=eta, x0s=x0s, stack=real(game, eta, x0s))
        return solves["stack"]

    monkeypatch.setattr(analysis, "fixed_points", recorded)
    sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, 5), multistart=6,
                                rng=np.random.default_rng(3))
    m = 6 + len(gd.monomorphic_vertices(g))
    assert len(solves["stack"]) == 5 * m and sweep.n_fixed_points.sum() >= 5
    for eta, x0, r in zip(solves["eta"], solves["x0s"], solves["stack"]):
        alone = real(g, eta, [x0])[0]
        assert np.array_equal(r.x, alone.x)
        assert (r.residual, r.iterations, r.converged, r.eta, r.stability) == \
            (alone.residual, alone.iterations, alone.converged, alone.eta, alone.stability)


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
    rep = gd.lyapunov_check(g, traj)
    assert rep.ok
    assert rep.max_uphill <= 1e-10
    assert rep.values[0] > rep.values[-1]

