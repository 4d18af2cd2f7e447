"""Continuation sweeps, limit equilibria, bifurcation census, Lyapunov checks."""

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
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="eta_hi"):
        gd.continuation_sweep(g, 0.5, 1.0, 10, coordination_seeds(g))
    with pytest.raises(ValueError, match="steps"):
        gd.continuation_sweep(g, 1.0, 0.1, 1, coordination_seeds(g))


def test_coordination_sweep_finds_pitchfork_branches():
    g, _ = get_scenario("coordination").build_game()
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 60, coordination_seeds(g))
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
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 200,
                                   [gd.uniform_configuration(g)])
    assert len(curves) == 1
    jumps = np.abs(np.diff(curves[0].points, axis=0)).sum(axis=(1, 2))
    assert curves[0].max_consecutive_jump() <= 10 * float(np.median(jumps))


def test_fork_hop_is_the_only_large_jump():
    # the vertex-seeded branches hop off the destabilized symmetric point
    # exactly once, right at the fork; everywhere else they move smoothly
    g, _ = get_scenario("coordination").build_game()
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 200, coordination_seeds(g))
    v1 = min(curves, key=lambda c: abs(c.terminal_limit[0, 0] - 1.0))
    jumps = np.abs(np.diff(v1.points, axis=0)).sum(axis=(1, 2))
    k = int(np.argmax(jumps))
    assert 0.4 <= v1.etas[k + 1] <= 0.5
    others = np.delete(jumps, k)
    assert others.max() <= 0.6 * jumps[k]


def test_sweep_residuals_and_margins_recorded():
    g, _ = get_scenario("pigou").build_game()
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 30,
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
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 60, gd.monomorphic_vertices(g)
                                   + [gd.uniform_configuration(g)])
    assert totals == [solves, iterations]
    assert len(curves) == branches


def test_dedup_merges_identical_branches():
    g, _ = get_scenario("coordination").build_game()
    seeds = [gd.vertex_configuration(g, "a1")] * 2
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 20, seeds)
    assert len(curves) == 1
    assert dedup_curves(curves) == curves


def test_limit_equilibria_classification():
    g, _ = get_scenario("coordination").build_game()
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 60, coordination_seeds(g))
    limits = gd.limit_equilibria_estimate(g, curves)
    assert len(limits) == 3
    strict = [lp for lp in limits if lp.is_strict]
    assert len(strict) == 2
    assert all(lp.is_nash for lp in limits)        # the mixed point is Nash too
    assert all(lp.tail_shrinking for lp in limits)
    assert all(lp.nash_violation <= 1e-3 for lp in limits)
    assert all(lp.eta == pytest.approx(1e-3) for lp in limits)


def test_limit_equilibria_requires_full_descent():
    g, _ = get_scenario("coordination").build_game()
    curves = gd.continuation_sweep(g, 2.0, 0.01, 20,
                                   [gd.uniform_configuration(g)])
    with pytest.raises(ValueError, match="must reach"):
        gd.limit_equilibria_estimate(g, curves)


def test_constant_costs_limit_matches_closed_form():
    # eta -> 0 concentrates the softmax of costs (1, 2) on the first action
    g, _ = get_scenario("constant").build_game()
    curves = gd.continuation_sweep(g, 2.0, 1e-3, 30,
                                   [gd.uniform_configuration(g)])
    assert len(curves) == 1
    x_lim = curves[0].terminal_limit
    z = np.exp(-(np.array([1.0, 2.0]) - 1.0) / 1e-3)   # shifted for overflow
    np.testing.assert_allclose(x_lim[:, 0], z / z.sum(), atol=1e-6)


# ---------------------------------------------------------------------------
# Bifurcation census


def test_bifurcation_scan_input_validation(rng):
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="decreasing"):
        gd.bifurcation_scan(g, [0.1, 0.5], rng=rng)
    with pytest.raises(ValueError, match="multistart"):
        gd.bifurcation_scan(g, [0.5, 0.4], multistart=2, rng=rng)


def test_bifurcation_scan_counts_coordination_fork(rng):
    g, _ = get_scenario("coordination").build_game()
    sweep = gd.bifurcation_scan(g, [0.8, 0.6, 0.3, 0.2], multistart=8, rng=rng)
    assert sweep.n_fixed_points[0] == 1 and sweep.n_stable[0] == 1
    assert sweep.n_fixed_points[-1] == 2 and sweep.n_stable[-1] == 2
    assert sweep.margins[0] < 0 < sweep.margins[-1]
    # counts never decrease as eta drops through the fork
    assert np.all(np.diff(sweep.n_fixed_points) >= 0)


def test_census_makes_one_map_call_per_lockstep_step(monkeypatch):
    # each eta's starts share one stacked map evaluation per step, so the
    # longest solve sets the count, not the sum over starts
    g, _ = get_scenario("coordination").build_game()
    map_calls = []
    real_map, real_solve = logit.logit_map, analysis.fixed_points
    iterations = []

    def counted_map(*args, **kwargs):
        map_calls.append(1)
        return real_map(*args, **kwargs)

    def recorded_solve(*args, **kwargs):
        results = real_solve(*args, **kwargs)
        iterations.append([r.iterations for r in results])
        return results

    monkeypatch.setattr(logit, "logit_map", counted_map)
    monkeypatch.setattr(analysis, "fixed_points", recorded_solve)
    gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, 5), multistart=6,
                        rng=np.random.default_rng(3))
    assert len(iterations) == 5
    assert len(map_calls) == sum(max(its) + 1 for its in iterations)
    assert len(map_calls) < sum(it + 1 for its in iterations for it in its)


@pytest.mark.parametrize("name", ["constant", "pigou"])
def test_bifurcation_scan_unique_branch_scenarios(name, rng):
    g, _ = get_scenario(name).build_game()
    sweep = gd.bifurcation_scan(g, [1.0, 0.3, 0.05], multistart=6, rng=rng)
    np.testing.assert_array_equal(sweep.n_fixed_points, [1, 1, 1])
    np.testing.assert_array_equal(sweep.n_stable, [1, 1, 1])
    assert np.all(sweep.margins < 0)


# ---------------------------------------------------------------------------
# Potentials and the Lyapunov property


def test_entropy_term_closed_forms():
    g, _ = get_scenario("coordination").build_game()
    assert entropy_term(g, gd.uniform_configuration(g)) == pytest.approx(-np.log(2))
    assert entropy_term(g, gd.vertex_configuration(g, "a1")) == 0.0


def test_lyapunov_check_descends_on_coordination():
    g, _ = get_scenario("coordination").build_game()
    eta = 0.25
    traj = gd.integrate(g, gd.logit_protocol(eta), np.array([[0.9], [0.1]]),
                        10.0, 0.01)
    rep = gd.lyapunov_check(g, traj, eta, gd.potential(g))
    assert rep.ok and bool(rep)
    assert rep.max_uphill <= 1e-10
    assert rep.values[0] > rep.values[-1]


def test_lyapunov_check_rejects_eta_mismatch():
    g, _ = get_scenario("coordination").build_game()
    traj = gd.integrate(g, gd.logit_protocol(0.25), gd.uniform_configuration(g),
                        1.0, 0.1)
    with pytest.raises(ValueError, match="does not match"):
        gd.lyapunov_check(g, traj, 0.5, gd.potential(g))
