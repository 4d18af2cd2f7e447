"""Logit map, Jacobian, fixed points, contraction margins, basin estimates."""

import logging

import numpy as np
import pytest
from scipy.optimize import brentq

import gamedyn as gd
from gamedyn import logit
from gamedyn.logit import residual_floor, softmax_target

from conftest import ALL_SCENARIOS, get_scenario


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

    return gd.PopulationGame(
        populations=("p1", "p2", "p3"), masses=np.array([1.0, 0.5, 2.0]),
        actions=("a1", "a2", "a3"), mask=mask, costs=gd.CallableCostField(costs))


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


def test_fixed_point_reports_nonconvergence(caplog):
    g, _ = get_scenario("wheatstone").build_game()
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        r = gd.fixed_point(g, 0.005, gd.uniform_configuration(g), max_iter=3)
    assert not r.converged
    assert r.stability is None
    assert np.isfinite(r.residual) and r.iterations == 3
    assert any("no convergence" in m for m in caplog.messages)


def assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert (a.residual, a.iterations, a.converged, a.eta, a.stability) == \
        (b.residual, b.iterations, b.converged, b.eta, b.stability)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_fixed_points_equal_single_solves(name):
    # lockstep solves share map evaluations but not damping state, so each
    # result is the single solve's, bit for bit
    g, _ = get_scenario(name).build_game()
    rng = np.random.default_rng(11)
    seeds = ([gd.sample_configuration(g, rng) for _ in range(3)]
             + [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g))
    for eta in (1.0, 0.1):
        many = gd.fixed_points(g, eta, seeds)
        assert len(many) == len(seeds)
        for x0, r in zip(seeds, many):
            assert_same_result(r, gd.fixed_point(g, eta, x0))


def test_fixed_points_mix_finished_and_unfinished_solves(caplog, monkeypatch):
    # at MAX_ITER=600 the uniform start (10202 steps to converge) crosses two
    # cap refreshes and fails, while a start at the solution converges at once
    g, _ = get_scenario("wheatstone").build_game()
    x_star = gd.fixed_point(g, 0.01, gd.uniform_configuration(g)).x
    seeds = [gd.uniform_configuration(g), x_star] + gd.monomorphic_vertices(g)
    monkeypatch.setattr(logit, "MAX_ITER", 600)
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        many = gd.fixed_points(g, 0.01, seeds)
    assert [r.iterations for r in many[:2]] == [600, 0]
    assert not many[0].converged and many[1].converged
    failed = sum(not r.converged for r in many)
    assert sum("no convergence" in m for m in caplog.messages) == failed
    for x0, r in zip(seeds, many):
        assert_same_result(r, gd.fixed_point(g, 0.01, x0, max_iter=600))


@pytest.mark.parametrize("max_iter", [0, 1, 3])
def test_fixed_points_equal_single_solves_at_small_max_iter(max_iter, monkeypatch):
    g, _ = get_scenario("wheatstone").build_game()
    seeds = [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g)
    monkeypatch.setattr(logit, "MAX_ITER", max_iter)
    many = gd.fixed_points(g, 0.005, seeds)
    for x0, r in zip(seeds, many):
        assert r.iterations == max_iter and not r.converged
        assert_same_result(r, gd.fixed_point(g, 0.005, x0, max_iter=max_iter))


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
    rep = gd.contraction_margin(g, eta, rng=rng)
    assert rep.margin == pytest.approx(-1.0, abs=1e-12)
    assert rep.certified and rep.rate_c == pytest.approx(1.0, abs=1e-12)


def test_margin_brackets_coordination_threshold(rng):
    g, _ = get_scenario("coordination").build_game()
    assert gd.contraction_margin(g, 0.7, rng=rng).margin < 0
    assert gd.contraction_margin(g, 0.3, rng=rng).margin > 0
    rep = gd.contraction_margin(g, 1e6, rng=rng)
    assert rep.margin == pytest.approx(-1.0, abs=1e-5)


def test_margin_input_validation():
    g, _ = get_scenario("pigou").build_game()
    with pytest.raises(ValueError):
        gd.contraction_margin(g, 1.0, points=[])


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("masked",))
def test_batched_margin_equals_per_point_loop(name):
    # one stacked kernel over the point set gives bit for bit the max over
    # points of the one-point Jacobian's column measure
    g = masked_game() if name == "masked" else get_scenario(name).build_game()[0]
    points = logit.contraction_points(g, 30, np.random.default_rng(5))
    eye = np.eye(len(g.valid_pairs))
    for eta in np.geomspace(1e-3, 3.0, 7):
        loop = max(logit._column_measure(gd.logit_jacobian(g, x, eta) - eye)
                   for x in points)
        assert gd.contraction_margin(g, eta, points=points).margin == loop


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
    # points are built once
    g, _ = get_scenario("coordination").build_game()
    calls = count_calls(monkeypatch, logit, "cost_jacobian")
    gd.high_noise_threshold(g, rng=np.random.default_rng(1))
    assert len(calls) == 200 + len(gd.monomorphic_vertices(g))


@pytest.mark.parametrize("n_etas", [2, 6])
def test_census_margins_make_one_cost_jacobian_pass(monkeypatch, n_etas):
    # every cost-Jacobian call beyond the solver's own logit_jacobian calls
    # and the stacked stability pass (one per converged start) belongs to
    # the margins: one per point of the 100 + 2 point set
    g, _ = get_scenario("coordination").build_game()
    calls = count_calls(monkeypatch, logit, "cost_jacobian")
    solver_calls = count_calls(monkeypatch, logit, "logit_jacobian")
    stability_points = []
    stabilities = logit._stabilities

    def counted_stabilities(J):
        stability_points.append(len(J))
        return stabilities(J)

    monkeypatch.setattr(logit, "_stabilities", counted_stabilities)
    sweep = gd.bifurcation_scan(g, np.geomspace(1.0, 0.2, n_etas), multistart=4,
                                rng=np.random.default_rng(2))
    assert len(sweep.margins) == n_etas
    assert (len(calls) - len(solver_calls) - sum(stability_points)
            == 100 + len(gd.monomorphic_vertices(g)))


def test_high_noise_threshold_brackets_the_flip(rng):
    g, _ = get_scenario("coordination").build_game()
    eta_hat = gd.high_noise_threshold(g, rng=rng)
    assert 0.45 <= eta_hat <= 0.56
    assert gd.contraction_margin(g, eta_hat,
                                 points=gd.logit.contraction_points(g, 200, rng)
                                 ).margin < 0.05


def test_high_noise_threshold_returns_floor_when_easy():
    g, _ = get_scenario("pigou").build_game()      # certified at every eta
    assert gd.high_noise_threshold(g, eta_lo=0.05) == 0.05


def test_high_noise_threshold_rejects_bad_bracket():
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="widen the bracket"):
        gd.high_noise_threshold(g, eta_lo=0.01, eta_hi=0.02)


# ---------------------------------------------------------------------------
# Strict-equilibrium basin estimate


def test_strict_basin_estimate_coordination(rng):
    g, _ = get_scenario("coordination").build_game()
    est = gd.strict_basin_estimate(g, gd.vertex_configuration(g, "a1"), rng=rng)
    assert est.alpha == pytest.approx(1.0)
    # worst corner (1 - eps, eps) has cost gap 1 - 2 eps >= alpha/2 iff
    # eps <= 1/4, which sits exactly on the default grid
    assert est.epsilon_bar == pytest.approx(0.25)
    # the invariance cutoff is eta <= 1/(2 ln 3); the estimate returns the
    # largest default grid value below it
    grid = np.geomspace(10.0, 1e-4, 60)
    expected = grid[grid <= 0.5 / np.log(3.0)][0]
    assert est.eta_epsilon == pytest.approx(expected, rel=1e-12)


def test_strict_basin_membership(rng):
    g, _ = get_scenario("coordination").build_game()
    x_star = gd.vertex_configuration(g, "a1")
    est = gd.strict_basin_estimate(g, x_star, rng=rng)
    assert est.contains(g, x_star)
    assert est.contains(g, np.array([[0.8], [0.2]]))
    assert not est.contains(g, np.array([[0.6], [0.4]]))
    assert est.contains(g, np.array([[0.6], [0.4]]), epsilon=0.5)


def test_strict_basin_rejects_non_strict_point(rng):
    g, _ = get_scenario("pigou").build_game()
    with pytest.raises(ValueError, match="strict"):
        gd.strict_basin_estimate(g, gd.vertex_configuration(g, "r1"), rng=rng)
