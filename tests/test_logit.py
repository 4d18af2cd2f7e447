"""Logit map, Jacobian, fixed points, contraction margins, basin estimates."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import bisect, brentq, root

import gamedyn as gd
from gamedyn import analysis, logit
from gamedyn.logit import residual_floor, softmax_target

from conftest import (ALL_SCENARIOS, CallableCostField, get_scenario, note_game,
                      small_potential_game, wide_game)


def pigou_flow_oracle(eta: float) -> float:
    """Scalar root of w = sigma((1 - w)/eta) on [0, 1], solved by Brent."""
    return brentq(lambda w: 1.0 / (1.0 + np.exp((w - 1.0) / eta)) - w,
                  0.0, 1.0, xtol=1e-15)


# ---------------------------------------------------------------------------
# The map itself


def test_logit_map_closed_form_constant_costs():
    g, _ = get_scenario("constant").build_game()     # costs 1 and 2, mass 1
    x = gd.uniform_configuration(g)
    F = gd.logit_map(g, x, 1.0)
    z = np.exp([-1.0, -2.0])
    np.testing.assert_allclose(F[:, 0], z / z.sum(), rtol=1e-14)


def test_logit_map_mass_and_support(rng):
    g, _ = get_scenario("wheatstone").build_game()
    for eta in (0.1, 1.0, 10.0):
        F = gd.logit_map(g, gd.sample_configuration(g, rng), eta)
        np.testing.assert_allclose(F.sum(axis=0), g.masses, atol=1e-12)
        assert F.min() >= 0.0


def masked_game():
    """a1 is unavailable to p2; p3 has zero mass."""
    aff = gd.ScalarFn.affine(1.0, 0.0)
    return gd.PopulationGame(
        populations=("p1", "p2", "p3"), masses=np.array([1.0, 2.0, 0.0]),
        actions=("a1", "a2"), mask=np.array([[True, False, True], [True, True, True]]),
        costs=gd.AggregateCostField([[aff, aff, aff], [aff, aff, aff]]))


def test_logit_map_masked_entries_stay_zero():
    g = masked_game()
    F = gd.logit_map(g, gd.uniform_configuration(g), 0.5)
    assert F[0, 1] == 0.0
    np.testing.assert_allclose(F.sum(axis=0), [1.0, 2.0, 0.0])


def softmax_reference(game, c, eta):
    """The masked softmax as written: off the mask c reads +inf."""
    z = np.where(game.mask, c, np.inf)
    e = np.exp((z.min(axis=-2, keepdims=True) - z) / eta)
    return game.masses * e / e.sum(axis=-2, keepdims=True)


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("masked", "wide"))
def test_softmax_target_equals_the_masked_reference(name):
    g = {"masked": masked_game, "wide": wide_game}.get(
        name, lambda: get_scenario(name).build_game()[0])()
    rng = np.random.default_rng(8)
    C = gd.evaluate_costs(g, np.stack([gd.sample_configuration(g, rng) for _ in range(5)]))
    for eta in (1e-3, 0.3, 5.0):
        assert np.array_equal(softmax_target(g, C, eta), softmax_reference(g, C, eta))
        for c in C:
            assert np.array_equal(softmax_target(g, c, eta), softmax_reference(g, c, eta))


def test_logit_map_saturates_at_tiny_eta():
    # the min-cost shift keeps exponents at or below zero, so eta -> 0 gives
    # the argmin vertex exactly instead of overflowing
    g, _ = get_scenario("pigou").build_game()
    F = gd.logit_map(g, np.array([[0.3], [0.7]]), 1e-12)
    np.testing.assert_array_equal(F, [[1.0], [0.0]])
    assert np.all(np.isfinite(F))


def test_softmax_target_is_translation_invariant(rng):
    g, _ = get_scenario("parallel3").build_game()
    c = gd.evaluate_costs(g, gd.sample_configuration(g, rng))
    F1 = softmax_target(g, c, 0.3)
    F2 = softmax_target(g, c + 17.0, 0.3)
    np.testing.assert_allclose(F1, F2, atol=1e-12)


# ---------------------------------------------------------------------------
# Jacobian


def fd_map_jacobian(game, x, eta, h=1e-7):
    pairs = game.valid_pairs
    J = np.zeros((len(pairs), len(pairs)))
    for col, (j, q) in enumerate(pairs):
        xp = x.copy()
        xp[j, q] += h
        xm = x.copy()
        xm[j, q] -= h
        dF = (gd.logit_map(game, xp, eta) - gd.logit_map(game, xm, eta)) / (2 * h)
        J[:, col] = [dF[i, p] for (i, p) in pairs]
    return J


@pytest.mark.parametrize("name,eta", [("pigou", 0.25), ("wheatstone", 0.5),
                                      ("parallel3", 0.2), ("masked", 0.3)])
def test_logit_jacobian_matches_fd(name, eta, rng):
    g = masked_game() if name == "masked" else get_scenario(name).build_game()[0]
    x = gd.sample_configuration(g, rng)
    J = gd.logit_jacobian(g, x, eta)
    np.testing.assert_allclose(J, fd_map_jacobian(g, x, eta),
                               atol=1e-6, rtol=1e-6)
    n = len(g.valid_pairs)
    assert J.shape == (n, n)


def loop_jacobian(game, x, eta):
    """Per-population loop over explicitly stacked cost partials (reference)."""
    c = gd.evaluate_costs(game, x)
    D = gd.cost_jacobian(game, x)
    pairs = game.valid_pairs
    Dcols = np.stack([D[:, :, j, q] for (j, q) in pairs], axis=-1)
    J = np.zeros((len(pairs), len(pairs)))
    row_of = {pair: k for k, pair in enumerate(pairs)}
    for p in range(game.n_pops):
        s = game.action_set(p)
        e = np.exp(-(c[s, p] - c[s, p].min()) / eta)
        pi = e / e.sum()
        block = Dcols[s, p, :]
        avg = pi @ block
        rows = [row_of[(i, p)] for i in s]
        J[rows, :] = (game.masses[p] / eta) * pi[:, None] * (avg[None, :] - block)
    return J


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_logit_jacobian_equals_per_population_loop(name):
    g, _ = get_scenario(name).build_game()
    rng = np.random.default_rng(7)
    points = [gd.sample_configuration(g, rng) for _ in range(20)]
    for x in points + gd.monomorphic_vertices(g):
        for eta in np.geomspace(1e-3, 3.0, 7):
            np.testing.assert_array_equal(gd.logit_jacobian(g, x, eta),
                                          loop_jacobian(g, x, eta))


def test_jacobian_columns_sum_to_zero(rng):
    # the map preserves per-population mass, so each column of J sums to 0
    g, _ = get_scenario("wheatstone").build_game()
    J = gd.logit_jacobian(g, gd.sample_configuration(g, rng), 0.3)
    np.testing.assert_allclose(J.sum(axis=0), 0.0, atol=1e-12)


def off_mask_game(off_values, valid_bad=None):
    """Three populations, each missing one of three actions; the callable
    field returns ``off_values`` on the three unavailable entries and, when
    given, ``valid_bad`` at (a1, p1)."""
    mask = np.array([[True, False, True], [True, True, False], [False, True, True]])
    off = np.argwhere(~mask)

    def costs(x):
        y = x.sum(axis=1)
        c = np.outer(np.array([1.0, 2.0, 0.5]) * y + [0.0, 0.3, 0.6], [1.0, 1.5, 2.0])
        c[off[:, 0], off[:, 1]] = off_values
        if valid_bad is not None:
            c[0, 0] = valid_bad
        return c

    masses = np.array([1.0, 0.5, 2.0])
    return gd.PopulationGame(
        populations=("p1", "p2", "p3"), masses=masses,
        actions=("a1", "a2", "a3"), mask=mask, costs=CallableCostField(costs, mask, masses))


OFF_MASK_VALUES = [np.nan, np.inf, -np.inf]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eta", [1e-3, 0.3, 5.0])
def test_off_mask_costs_are_ignored(eta, rng):
    g = off_mask_game(OFF_MASK_VALUES)
    x = gd.sample_configuration(g, rng)
    c = gd.evaluate_costs(g, x)
    assert np.isnan(c[~g.mask]).sum() == 1 and np.isinf(c[~g.mask]).sum() == 2
    F = gd.logit_map(g, x, eta)
    assert np.all(np.isfinite(F))
    np.testing.assert_array_equal(F[~g.mask], 0.0)
    np.testing.assert_allclose(F.sum(axis=0), g.masses, rtol=1e-14)
    # the finite-difference partials difference only the available costs
    assert np.all(np.isfinite(gd.logit_jacobian(g, x, eta)))


def test_off_mask_nan_does_not_hide_a_bad_valid_cost():
    g = off_mask_game([np.nan] * 3, valid_bad=np.inf)
    with pytest.raises(gd.CostEvalError, match="action 'a1', population 'p1'"):
        gd.evaluate_costs(g, gd.uniform_configuration(g))
    with pytest.raises(gd.CostEvalError, match="action 'a1', population 'p1'"):
        gd.logit_map(g, gd.uniform_configuration(g), 0.5)


# ---------------------------------------------------------------------------
# Stability and fixed points


def test_local_stability_flips_at_coordination_fork():
    g, _ = get_scenario("coordination").build_game()
    x = np.array([[0.5], [0.5]])       # symmetric fixed point at every eta
    assert gd.local_stability(g, x, 0.6).locally_stable
    assert not gd.local_stability(g, x, 0.4).locally_stable
    # l1 log-norm of J - I is 1/(2 eta) - 1 at the symmetric point
    info = gd.local_stability(g, x, 0.4)
    assert info.l1_log_norm == pytest.approx(1 / 0.8 - 1, rel=1e-12)


@pytest.mark.parametrize("eta", [0.25, 0.05])
def test_pigou_fixed_point_matches_brentq(eta):
    g, _ = get_scenario("pigou").build_game()
    r = gd.fixed_point(g, eta, gd.uniform_configuration(g))
    assert r.converged
    assert abs(r.x[0, 0] - pigou_flow_oracle(eta)) <= 1e-9
    assert r.stability is not None and r.stability.locally_stable


def test_fixed_point_result_invariants():
    g, _ = get_scenario("wheatstone").build_game()
    r = gd.fixed_point(g, 0.2, gd.uniform_configuration(g))
    assert r.converged and r.eta == 0.2
    np.testing.assert_allclose(r.x.sum(axis=0), g.masses, atol=1e-9)
    F = gd.logit_map(g, r.x, 0.2)
    assert float(np.abs(F - r.x).sum()) <= 5e-10


@pytest.mark.parametrize("eta, iterations", [(0.2, 411), (0.01, 10202)])
def test_fixed_point_iteration_counts(eta, iterations):
    # exact counts pin the damping rule; eta=0.01 crosses the 250-step refresh
    g, _ = get_scenario("wheatstone").build_game()
    r = gd.fixed_point(g, eta, gd.uniform_configuration(g))
    assert r.converged and r.iterations == iterations


def test_fixed_point_reports_nonconvergence(caplog, monkeypatch):
    g, _ = get_scenario("wheatstone").build_game()
    monkeypatch.setattr(logit, "MAX_ITER", 3)
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        r = gd.fixed_point(g, 0.005, gd.uniform_configuration(g))
    assert not r.converged
    assert r.stability is None
    assert np.isfinite(r.residual) and r.iterations == 3
    assert any("no convergence" in m for m in caplog.messages)


def explicit_game(masses, mask, slopes, intercepts):
    """An explicit game with affine curve slopes[i][p] * w_i + intercepts[i][p]."""
    S, P = np.shape(mask)
    grid = [[gd.ScalarFn.affine(slopes[i][p], intercepts[i][p]) if mask[i][p] else None
             for p in range(P)] for i in range(S)]
    return gd.PopulationGame(populations=[f"p{p}" for p in range(P)], masses=np.array(masses),
                             actions=[f"a{i}" for i in range(S)], mask=np.array(mask),
                             costs=gd.AggregateCostField(grid))


def two_cycle_cases():
    """Two convex-potential games at eta 0.3 with a start from which damped
    Picard once settled in a steady 2-cycle: at each fixed point J has an
    eigenvalue near -4.4, and the damping cap sized at the start (l1 column
    norm 1.30 and 0.11) lets that mode swing past -1."""
    a = explicit_game([2.0, 1.0, 2.0], [[True] * 3, [True] * 3, [True, False, True]],
                      [[0.875] * 3, [1.0] * 3, [0.4375, 0.0, 0.4375]],
                      [[-0.5, 0.0, -0.25], [0.875, 0.5, 0.875], [0.0] * 3])
    b = explicit_game([2.0], [[True]] * 3, [[2.0], [1.0], [2.0]], [[2.625], [1.5], [1.0]])
    return [(a, gd.vertex_configuration(a, "a0")),
            (b, gd.sample_configuration(b, np.random.default_rng(0)))]


@pytest.mark.parametrize("case, iterations", [(0, 577), (1, 6776)], ids=["three-pops", "one-pop"])
def test_fixed_point_leaves_a_steady_two_cycle(case, iterations):
    # 250 steps without a better iterate halve the damping cap; without the
    # halving both solves stop at MAX_ITER, residual 4.66 and 1.59
    game, x0 = two_cycle_cases()[case]
    r = gd.fixed_point(game, 0.3, x0)
    assert r.converged and r.iterations == iterations and r.stability.locally_stable
    assert np.abs(r.x - gd.fixed_points(game, 0.3, [x0])[0].x).sum() <= 1e-9


@pytest.mark.parametrize("eta", [1e-12, 1e-13])
def test_solves_stop_past_the_tolerance_bound(caplog, eta):
    # the roundoff floor grows like |c|/eta; past TOL_BOUND it would let any
    # point pass, x0 included, so the solve stops there unconverged
    g, _ = get_scenario("wheatstone").build_game()
    x0 = gd.uniform_configuration(g)
    c = gd.evaluate_costs(g, x0)
    assert residual_floor(g, c, eta) > logit.TOL_BOUND * max(1.0, g.total_mass())
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        r = gd.fixed_point(g, eta, x0)
    assert not r.converged and r.stability is None and r.iterations == 0
    assert any("roundoff floor" in m for m in caplog.messages)
    many = gd.fixed_points(g, eta, [x0, *gd.monomorphic_vertices(g)])
    assert not any(m.converged for m in many)


def test_bundled_floors_stay_far_below_the_tolerance_bound():
    # at each bundled scenario's smallest noise level, on samples and vertices
    for name in ALL_SCENARIOS:
        scn = get_scenario(name)
        g, _ = scn.build_game()
        X = np.array([*gd.sample_configurations(g, np.random.default_rng(0), 50),
                      *gd.monomorphic_vertices(g)])
        floor = residual_floor(g, gd.evaluate_costs(g, X), scn.noise_grid(steps=2)[-1])
        assert 100 * floor.max() < logit.TOL_BOUND * max(1.0, g.total_mass())


def test_results_do_not_alias_the_start():
    # the uniform start is already a fixed point: at eta 0.45 fixed_point
    # stops at it, and at eta 0.3, where it is unstable, the fallback of
    # fixed_points stops at it too; neither result may be x0 itself
    g, _ = get_scenario("coordination").build_game()
    for solve in (lambda x0: gd.fixed_point(g, 0.45, x0),
                  lambda x0: gd.fixed_points(g, 0.3, [x0])[0]):
        x0 = gd.uniform_configuration(g)
        r = solve(x0)
        assert r.iterations == 0 and np.array_equal(r.x, x0)
        x0[0, 0] = 0.9
        assert r.x[0, 0] == 0.5


def assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert (a.residual, a.iterations, a.converged, a.eta, a.stability) == \
        (b.residual, b.iterations, b.converged, b.eta, b.stability)


REAL_FIXED_POINT = logit.fixed_point


def record_fallbacks(monkeypatch):
    """Record what each fixed_point solve that fixed_points makes returns,
    (x, residual, iterations, converged), in the order the solves run."""
    runs = []

    def recorded(*args):
        r = REAL_FIXED_POINT(*args)
        runs.append((r.x, r.residual, r.iterations, r.converged))
        return r

    monkeypatch.setattr(logit, "fixed_point", recorded)
    return runs


def fell_back(many, fallbacks):
    """Which results of fixed_points came from its fallback fixed_point solves."""
    return [any(r.x is f[0] for f in fallbacks) for r in many]


def assert_matches_single_solves(game, eta, seeds, many, fallbacks, same_point=True):
    """fixed_points' contract: fixed_point's flags, with x within 1e-9 l1
    when same_point; a fallback is fixed_point's own result, bit for bit,
    and any other result is a converged, stable corrector solve."""
    assert len(many) == len(seeds)
    from_fallback = fell_back(many, fallbacks)
    assert sum(from_fallback) == len(fallbacks)
    for x0, r, fell in zip(seeds, many, from_fallback):
        single = gd.fixed_point(game, eta, x0)
        assert r.converged == single.converged
        assert (r.stability is None) == (single.stability is None)
        if r.stability is not None:
            assert r.stability.locally_stable == single.stability.locally_stable
        if fell:
            assert_same_result(r, single)
        else:
            assert r.converged and r.stability.locally_stable and r.eta == eta
            assert r.iterations <= logit.NEWTON_STEPS
        if same_point:
            assert float(np.abs(r.x - single.x).sum()) <= 1e-9


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_fixed_points_match_single_solves(name, monkeypatch):
    g, _ = get_scenario(name).build_game()
    rng = np.random.default_rng(11)
    seeds = ([gd.sample_configuration(g, rng) for _ in range(3)]
             + [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g))
    for eta in (1.0, 0.1):
        fallbacks = record_fallbacks(monkeypatch)
        many = gd.fixed_points(g, eta, seeds)
        assert_matches_single_solves(g, eta, seeds, many, fallbacks)


def test_fixed_points_warn_once_per_failed_fallback(caplog, monkeypatch):
    # with 3 corrector steps the uniform start (11 steps) falls back, and
    # its damping run stops at a cap of 600 of its 10202 steps; a start at
    # the solution converges at once
    g, _ = get_scenario("wheatstone").build_game()
    x_star = gd.fixed_points(g, 0.01, [gd.uniform_configuration(g)])[0].x
    seeds = [gd.uniform_configuration(g), x_star] + gd.monomorphic_vertices(g)
    monkeypatch.setattr(logit, "NEWTON_STEPS", 3)
    monkeypatch.setattr(logit, "MAX_ITER", 600)
    fallbacks = record_fallbacks(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        many = gd.fixed_points(g, 0.01, seeds)
    assert many[0].x is fallbacks[0][0] and many[0].iterations == 600
    assert not many[0].converged and many[1].converged and many[1].iterations == 0
    failed = sum(not r.converged for r in many)
    assert failed == sum(not f[3] for f in fallbacks) >= 1
    assert sum("no convergence" in m for m in caplog.messages) == failed
    assert_matches_single_solves(g, 0.01, seeds, many, fallbacks)


@pytest.mark.parametrize("steps, n_fallbacks", [(0, 7), (1, 7), (3, 4), (4, 1)])
def test_fixed_points_respect_the_step_cap(steps, n_fallbacks, monkeypatch):
    g, _ = get_scenario("coordination").build_game()
    rng = np.random.default_rng(5)
    seeds = ([gd.sample_configuration(g, rng) for _ in range(4)]
             + [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g))
    monkeypatch.setattr(logit, "NEWTON_STEPS", steps)
    fallbacks = record_fallbacks(monkeypatch)
    many = gd.fixed_points(g, 0.3, seeds)
    assert len(fallbacks) == n_fallbacks
    assert_matches_single_solves(g, 0.3, seeds, many, fallbacks, same_point=False)
    # two stable points coexist at eta = 0.3, and Newton's basins are not
    # damped Picard's: from the second start (share 0.71 of a1, where the map
    # is steeper than 1) the corrector crosses the unstable middle to the a2
    # side in 4 steps, while Picard goes to the a1 side
    assert seeds[1][0, 0] > 0.5 and gd.fixed_point(g, 0.3, seeds[1]).x[0, 0] > 0.5
    assert (many[1].x[0, 0] > 0.5) == (steps < 4)


@pytest.mark.parametrize("x0", [
    [[0.9435801079269924, 0.9211775575355341],
     [0.05641989207300761, 0.07882244246446587]],
    [[0.7555950004661288, 0.931222741572553],
     [0.24440499953387126, 0.06877725842744696]],
], ids=["census-seed-11", "census-seed-3"])
def test_fixed_points_converge_where_picard_stalls_on_tolls(x0, monkeypatch):
    # starts from the tolls census on which damped Picard stalls (residual
    # ~1 after 1e5 steps); the corrector converges to the stable equilibrium
    # (from the seed-3 start only after 53 steps) without a fallback
    g, _ = get_scenario("tolls").build_game()
    eta = 0.0012151833063783375
    x0 = np.array(x0)
    fallbacks = record_fallbacks(monkeypatch)
    r, = gd.fixed_points(g, eta, [x0])
    assert not fallbacks
    assert r.converged and r.stability.locally_stable
    assert r.iterations <= logit.NEWTON_STEPS

    def reduced(v):       # each population has mass 1 on two routes
        x = np.array([v, 1.0 - v])
        return (gd.logit_map(g, x, eta) - x)[0]

    sol = root(reduced, x0[0], method="lm", tol=1e-14)
    assert sol.success
    assert float(np.abs(r.x[0] - sol.x).sum()) <= 1e-9


def coordination_share(eta, lo, hi):
    """Root of x = 1/(1 + exp(-(2x - 1)/eta)) in [lo, hi], by bisection."""
    return bisect(lambda x: 1.0 / (1.0 + np.exp(-(2.0 * x - 1.0) / eta)) - x,
                  lo, hi, xtol=1e-15)


@pytest.mark.parametrize("eta, n_stable", [(0.55, 1), (0.45, 2)])
def test_census_counts_coordination_fork(eta, n_stable):
    # the map's slope at the symmetric point is 1/(2 eta): one stable point
    # above eta = 1/2, two stable vertices' branches (and an unstable middle)
    # below it
    g, _ = get_scenario("coordination").build_game()
    sweep = gd.bifurcation_scan(g, [eta], rng=np.random.default_rng(4))
    assert sweep.n_stable[0] == n_stable
    stable = sorted(float(r.x[0, 0]) for r in sweep.results[0]
                    if r.stability.locally_stable)
    brackets = [(0.0, 1.0)] if n_stable == 1 else [(0.0, 0.5 - 1e-3), (0.5 + 1e-3, 1.0)]
    for x, (lo, hi) in zip(stable, brackets):
        assert abs(x - coordination_share(eta, lo, hi)) <= 1e-10


def test_uniform_coordination_start_falls_back_from_the_unstable_point(monkeypatch):
    # the corrector stops at once on the symmetric point, which is unstable at
    # eta = 0.45, so the start is re-solved by fixed_point's damping
    g, _ = get_scenario("coordination").build_game()
    x0 = gd.uniform_configuration(g)
    fallbacks = record_fallbacks(monkeypatch)
    r, = gd.fixed_points(g, 0.45, [x0])
    assert len(fallbacks) == 1 and r.x is fallbacks[0][0]
    assert r.converged and not r.stability.locally_stable
    assert_same_result(r, gd.fixed_point(g, 0.45, x0))


def record_restarts(monkeypatch):
    """Record the start x0 of every start that _restarts pushes off an
    unstable landing, in the order they are pushed."""
    starts = []
    real = logit._restarts

    def recorded(game, M, X, X0):
        starts.extend(X0.copy())
        return real(game, M, X, X0)

    monkeypatch.setattr(logit, "_restarts", recorded)
    return starts


@pytest.mark.parametrize("eta", [0.45, 0.3, 0.1, 0.05, 0.02])
def test_unstable_landings_restart_on_the_side_of_their_start(eta, monkeypatch):
    # random starts near the middle land on the unstable symmetric point;
    # each restarts inside the corrector and reaches the stable point on
    # its start's side, the one damped Picard reaches from that start
    g, _ = get_scenario("coordination").build_game()
    share = np.random.default_rng(17).uniform(0.3, 0.7, 40)
    seeds = [np.array([[s], [1.0 - s]]) for s in share]
    fallbacks = record_fallbacks(monkeypatch)
    restarted = record_restarts(monkeypatch)
    many = gd.fixed_points(g, eta, seeds)
    assert not fallbacks and len(restarted) >= 4
    for x0, r in zip(seeds, many):
        if not any(np.array_equal(x0, x) for x in restarted):
            continue
        assert r.converged and r.stability.locally_stable
        assert r.iterations <= logit.NEWTON_STEPS
        above = x0[0, 0] > 0.5
        assert (r.x[0, 0] > 0.5) == above
        if eta >= 0.05:
            lo, hi = (0.5 + 1e-3, 1.0) if above else (0.0, 0.5 - 1e-3)
            assert abs(r.x[0, 0] - coordination_share(eta, lo, hi)) <= 1e-10
        assert float(np.abs(r.x - gd.fixed_point(g, eta, x0).x).sum()) <= 1e-8


def test_fallback_stack_equals_lone_solves(caplog, monkeypatch):
    # with no corrector steps every start but the uniform one at eta 0.8 (a
    # stable fixed point) falls back; the fallback solves at four etas end at
    # different steps, and a cap of 190 stops the two slowest
    g, _ = get_scenario("coordination").build_game()
    rng = np.random.default_rng(5)
    seeds = ([gd.sample_configuration(g, rng) for _ in range(6)]
             + [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g))
    etas = np.resize([0.45, 0.3, 0.8, 0.2], len(seeds))
    monkeypatch.setattr(logit, "NEWTON_STEPS", 0)
    monkeypatch.setattr(logit, "MAX_ITER", 190)
    fallbacks = record_fallbacks(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        many = gd.fixed_points(g, etas, seeds)
    warned = [m for m in caplog.messages if "no convergence" in m]
    from_fallback = fell_back(many, fallbacks)
    assert from_fallback == [True] * 6 + [False] + [True] * 2
    assert [r.iterations for r in many] == [185, 53, 106, 36, 190, 139, 0, 30, 190]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        lone = [gd.fixed_point(g, eta, x0) for eta, x0 in zip(etas, seeds)]
    # one warning per failed fallback, in start order, each fixed_point's own
    assert warned == [m for m in caplog.messages if "no convergence" in m]
    assert len(warned) == 2 == sum(not r.converged for r in many)
    for eta, x0, r, single, fell in zip(etas, seeds, many, lone, from_fallback):
        alone = gd.fixed_points(g, eta, [x0])[0]
        if fell:
            assert_same_result(r, single)
            assert_same_result(r, alone)
        else:
            assert_same_result(r, alone)


@pytest.mark.parametrize("cap", [logit.MAX_ITER, 20])
def test_fallback_stack_equals_fixed_point_on_a_wide_game(cap, monkeypatch):
    # with no corrector steps every start falls back; a configuration of the
    # generated game holds 18 entries, and the fallbacks at two etas must
    # give fixed_point's result bit for bit, zero-mass population and masked
    # entry included, both converged and stopped by a cap of 20 steps
    g = wide_game()
    rng = np.random.default_rng(9)
    seeds = [gd.sample_configuration(g, rng) for _ in range(7)] + [gd.uniform_configuration(g)]
    etas = np.resize([0.5, 0.05], len(seeds))
    monkeypatch.setattr(logit, "NEWTON_STEPS", 0)
    monkeypatch.setattr(logit, "MAX_ITER", cap)
    fallbacks = record_fallbacks(monkeypatch)
    many = gd.fixed_points(g, etas, seeds)
    assert fell_back(many, fallbacks) == [True] * len(seeds)
    assert all(r.converged == (cap > 20) for r in many)
    for eta, x0, r in zip(etas, seeds, many):
        assert_same_result(r, gd.fixed_point(g, eta, x0))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_fixed_points_equal_lone_solves_in_every_field(name):
    # no result depends on its stack-mates, not even in the last bit of its
    # residual: 48 starts at six etas in one stack, each against its lone solve
    g, _ = get_scenario(name).build_game()
    etas = np.repeat(np.geomspace(1.0, 1e-3, 6), 8)
    seeds = gd.sample_configurations(g, np.random.default_rng(11), len(etas))
    for eta, x0, r in zip(etas, seeds, gd.fixed_points(g, etas, seeds)):
        assert_same_result(r, gd.fixed_points(g, eta, [x0])[0])


@settings(max_examples=60, deadline=None)
@given(small_potential_game(), st.sampled_from([1.0, 0.3, 0.1]),
       st.integers(0, 2 ** 32 - 1))
def test_fixed_points_match_single_solves_on_small_games(game, eta, seed):
    note_game(game)
    rng = np.random.default_rng(seed)
    seeds = ([gd.sample_configuration(game, rng) for _ in range(3)]
             + [gd.uniform_configuration(game)] + gd.monomorphic_vertices(game))
    with pytest.MonkeyPatch.context() as monkeypatch:
        fallbacks = record_fallbacks(monkeypatch)
        many = gd.fixed_points(game, eta, seeds)
    assert_matches_single_solves(game, eta, seeds, many, fallbacks)


def force_singular(monkeypatch, eta_bad):
    """Make J = I, so J - I is singular, in every _jacobians slice at eta_bad."""
    real = logit._jacobians

    def forced(game, c, D, eta):
        J = real(game, c, D, eta)
        J[np.broadcast_to(np.equal(eta, eta_bad), (len(J), 1, 1))[:, 0, 0]] = np.eye(J.shape[-1])
        return J

    monkeypatch.setattr(logit, "_jacobians", forced)


def test_fixed_points_keep_each_start_independent_of_a_singular_slice(monkeypatch):
    # the starts at eta 0.37 meet a singular J - I at their first step and
    # fall back alone; their stack-mates at other etas go on with Newton
    g, _ = get_scenario("wheatstone").build_game()
    rng = np.random.default_rng(7)
    seeds = [gd.sample_configuration(g, rng) for _ in range(6)] + gd.monomorphic_vertices(g)
    etas = np.resize([1.0, 0.37, 0.3, 2.0], len(seeds))
    force_singular(monkeypatch, 0.37)
    fallbacks = record_fallbacks(monkeypatch)
    many = gd.fixed_points(g, etas, seeds)
    assert len(fallbacks) == 4 and sum(etas == 0.37) == 4
    assert [r.eta for r, fell in zip(many, fell_back(many, fallbacks)) if fell] == [0.37] * 4
    for eta, x0, r in zip(etas, seeds, many):
        assert r.eta == eta
        assert_same_result(r, gd.fixed_points(g, eta, [x0])[0])
        if eta != 0.37:
            assert r.iterations <= logit.NEWTON_STEPS and r.stability.locally_stable


@settings(max_examples=40, deadline=None)
@given(small_potential_game(), st.lists(st.sampled_from([1.0, 0.3, 0.1, 0.37]),
                                        min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_fixed_points_with_mixed_etas_equal_lone_solves(game, etas, seed):
    # each start of a mixed-eta stack, a singular slice (eta 0.37) among
    # them, gets the result it gets alone
    note_game(game)
    rng = np.random.default_rng(seed)
    seeds = [gd.sample_configuration(game, rng) for _ in etas]
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_singular(monkeypatch, 0.37)
        many = gd.fixed_points(game, etas, seeds)
        for eta, x0, r in zip(etas, seeds, many):
            assert_same_result(r, gd.fixed_points(game, eta, [x0])[0])


def test_fixed_points_reject_a_bad_start_or_eta():
    g, _ = get_scenario("pigou").build_game()
    seeds = [gd.uniform_configuration(g)] * 4
    seeds[2] = np.array([[1.5], [-0.5]])
    with pytest.raises(gd.ConfigurationError, match=r"negative mass .* in start 2$"):
        gd.fixed_points(g, 0.5, seeds)
    with pytest.raises(ValueError, match="eta must be positive"):
        gd.fixed_points(g, [0.5, 0.0], seeds[:2])


@pytest.mark.parametrize("call", [
    lambda g, x0: gd.logit_map(g, x0, np.nan),
    lambda g, x0: gd.logit_jacobian(g, x0, np.nan),
    lambda g, x0: gd.fixed_point(g, np.nan, x0),
    lambda g, x0: gd.fixed_points(g, [0.5, np.nan], [x0, x0]),
    lambda g, x0: gd.contraction_margin(g, np.nan),
    lambda g, x0: gd.bifurcation_scan(g, [0.5, np.nan]),
    lambda g, x0: gd.integrate(g, np.nan, x0, 1.0, 0.1),
    lambda g, x0: gd.ReducedSystem(g, np.nan),
], ids=["logit_map", "logit_jacobian", "fixed_point", "fixed_points",
        "contraction_margin", "bifurcation_scan", "integrate", "ReducedSystem"])
def test_nan_eta_is_rejected(call):
    # NaN passes an eta <= 0 check; each entry point must still refuse it
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="eta must be positive"):
        call(g, gd.uniform_configuration(g))


def test_residual_floor_grows_as_eta_shrinks():
    g, _ = get_scenario("wheatstone").build_game()
    c = gd.evaluate_costs(g, gd.uniform_configuration(g))
    floors = [residual_floor(g, c, eta) for eta in (1.0, 0.1, 0.01)]
    assert floors[0] < floors[1] < floors[2]
    assert floors[0] >= 256 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Contraction margins


@pytest.mark.parametrize("name", ["pigou", "constant"])
@pytest.mark.parametrize("eta", [0.1, 1.0, 100.0])
def test_margin_is_exactly_minus_one_on_diagonal_instances(name, eta, rng):
    # single-population two-action games where only one cost moves: the
    # off-diagonal gain cancels the diagonal loss in every column sum
    g, _ = get_scenario(name).build_game()
    assert gd.contraction_margin(g, eta, rng=rng) == pytest.approx(-1.0, abs=1e-12)


def test_margin_brackets_coordination_threshold(rng):
    g, _ = get_scenario("coordination").build_game()
    assert gd.contraction_margin(g, 0.7, rng=rng) < 0
    assert gd.contraction_margin(g, 0.3, rng=rng) > 0
    assert gd.contraction_margin(g, 1e6, rng=rng) == pytest.approx(-1.0, abs=1e-5)


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("masked",))
def test_batched_margin_equals_per_point_loop(name):
    # one stacked kernel over the 200 draws plus the vertices gives bit for
    # bit the max over those points of the one-point Jacobian's column measure
    g = masked_game() if name == "masked" else get_scenario(name).build_game()[0]
    points = [*gd.sample_configurations(g, np.random.default_rng(5), 200),
              *gd.monomorphic_vertices(g)]
    eye = np.eye(len(g.valid_pairs))
    for eta in np.geomspace(1e-3, 3.0, 7):
        loop = max(logit._column_measure(gd.logit_jacobian(g, x, eta) - eye)
                   for x in points)
        assert gd.contraction_margin(g, eta, rng=np.random.default_rng(5)) == loop


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_threshold_makes_one_cost_jacobian_pass(monkeypatch):
    # the bisection visits 12 etas, but the cost partials of its 200 + 2
    # points are built once, in one stacked call
    g, _ = get_scenario("coordination").build_game()
    calls = count_calls(monkeypatch, logit, "cost_jacobian")
    gd.high_noise_threshold(g, rng=np.random.default_rng(1))
    assert len(calls) == 1


@pytest.mark.parametrize("n_etas", [2, 6])
def test_census_makes_every_cost_jacobian_call_inside_its_one_solve(monkeypatch,
                                                                    n_etas):
    # the census makes one solver call for all etas, and every cost-Jacobian
    # call (corrector steps and fallbacks) is made inside it
    g, _ = get_scenario("coordination").build_game()
    calls = count_calls(monkeypatch, logit, "cost_jacobian")
    solver_calls = []
    solve = analysis.fixed_points

    def counted_solve(*args, **kwargs):
        before = len(calls)
        results = solve(*args, **kwargs)
        solver_calls.append(len(calls) - before)
        return results

    monkeypatch.setattr(analysis, "fixed_points", counted_solve)
    sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, n_etas), multistart=4,
                                rng=np.random.default_rng(2))
    assert len(sweep.etas) == n_etas and len(solver_calls) == 1
    assert len(calls) == sum(solver_calls) > 0


def test_high_noise_threshold_brackets_the_flip(rng):
    g, _ = get_scenario("coordination").build_game()
    eta_hat = gd.high_noise_threshold(g, rng=rng)
    assert 0.45 <= eta_hat <= 0.56
    assert gd.contraction_margin(g, eta_hat, rng=rng) < 0.05


def test_high_noise_threshold_returns_floor_when_easy():
    g, _ = get_scenario("pigou").build_game()      # certified at every eta
    assert gd.high_noise_threshold(g, eta_lo=0.05) == 0.05


def test_high_noise_threshold_rejects_bad_bracket():
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="widen the bracket"):
        gd.high_noise_threshold(g, eta_lo=0.01, eta_hi=0.02)
