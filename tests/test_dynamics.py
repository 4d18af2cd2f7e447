"""Sampling checks, RK4 integration, aggregate reduction, rate fits."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import gamedyn as gd
from gamedyn import dynamics, logit
from gamedyn.logit import softmax_target

from conftest import (ALL_SCENARIOS, explicit_costs, get_scenario, note_game,
                      small_potential_game, wide_game)


# ---------------------------------------------------------------------------
# Sampling checks


def test_exact_target_check_passes_logit_and_flags_leak(rng, monkeypatch):
    g, _ = get_scenario("parallel3").build_game()
    ok, worst = gd.exact_target_check(0.5, g, rng=rng)
    assert ok and worst <= 1e-12

    monkeypatch.setattr(dynamics, "logit_map",
                        lambda gm, x, eta: 0.9 * logit.logit_map(gm, x, eta))
    ok, worst = gd.exact_target_check(0.5, g, rng=rng)
    assert not ok
    assert worst == pytest.approx(0.2, rel=1e-6)     # 10% of the heavier mass


def exact_target_check_per_sample(eta, game, rng):
    """The check one sample at a time, an oracle for its stacked form."""
    worst = 0.0
    for _ in range(20):
        x = gd.sample_configuration(game, rng)
        F = gd.logit_map(game, x, eta)
        worst = max(worst, float(np.abs(F.sum(axis=0) - game.masses).max()))
        worst = max(worst, float(np.abs(np.where(game.mask, 0.0, F)).max()))
        worst = max(worst, float(max(0.0, -(F.min()))))
    return worst <= 1e-9, worst


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_exact_target_check_equals_the_per_sample_loop(name):
    g, _ = get_scenario(name).build_game()
    for seed in range(4):
        for eta in (0.05, 0.5, 3.0):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            assert gd.exact_target_check(eta, g, rng=got) == \
                exact_target_check_per_sample(eta, g, want)
            # a shared rng reaches the checks after this one in the same state
            assert got.bit_generator.state == want.bit_generator.state


def test_monotonicity_check_logit_ok(rng):
    g, _ = get_scenario("pigou").build_game()
    ok, violations = gd.monotonicity_check(0.5, g, rng=rng)
    assert ok and violations == []


def test_monotonicity_check_flags_anti_logit(rng, monkeypatch):
    # deliberately broken kernel: weight grows with cost
    monkeypatch.setattr(dynamics, "softmax_target",
                        lambda gm, c, eta: softmax_target(gm, -c, eta))
    g, _ = get_scenario("pigou").build_game()
    ok, violations = gd.monotonicity_check(0.5, g, rng=rng)
    assert not ok
    kinds = {v[0] for v in violations}
    assert "own_cost_increasing" in kinds


# ---------------------------------------------------------------------------
# Integration


def test_integrate_validates_grid():
    g, _ = get_scenario("pigou").build_game()
    eta = 0.25
    x0 = gd.uniform_configuration(g)
    with pytest.raises(ValueError, match="dt"):
        gd.integrate(g, eta, x0, 1.0, 0.0)
    with pytest.raises(ValueError, match="horizon"):
        gd.integrate(g, eta, x0, 0.001, 0.01)


@pytest.mark.parametrize("horizon, dt, name", [
    (np.nan, 0.1, "horizon"), (np.inf, 0.1, "horizon"),
    (1.0, np.nan, "dt"), (1.0, np.inf, "dt")])
def test_integrate_names_a_non_finite_grid(horizon, dt, name):
    g, _ = get_scenario("pigou").build_game()
    with pytest.raises(ValueError, match=f"^{name} must"):
        gd.integrate(g, 0.25, gd.uniform_configuration(g), horizon, dt)


def test_rk4_stage_is_one_cost_and_one_softmax_call(monkeypatch):
    # a tracer counts the layers by wrapping these module attributes; a stage
    # that stopped looking them up would drop out of its counts
    calls = {"evaluate_costs": 0, "softmax_target": 0}

    def counted(name):
        original = getattr(dynamics, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name))
    g, _ = get_scenario("pigou").build_game()
    traj = gd.integrate(g, 0.25, gd.uniform_configuration(g), 1.0, 0.1)
    assert len(traj.times) - 1 == 10
    assert calls == {"evaluate_costs": 40, "softmax_target": 40}


def test_integrate_warns_on_ragged_horizon(caplog):
    g, _ = get_scenario("pigou").build_game()
    with caplog.at_level(logging.WARNING, logger="gamedyn.dynamics"):
        traj = gd.integrate(g, 0.25, gd.uniform_configuration(g), 0.25, 0.1)
    assert any("not a multiple" in m for m in caplog.messages)
    assert len(traj.times) == 3 or len(traj.times) == 4


def test_integrate_keeps_mass_and_positivity():
    g, _ = get_scenario("coordination").build_game()
    traj = gd.integrate(g, 0.25, gd.vertex_configuration(g, "a1"), 5.0, 0.01)
    assert traj.mass_drift <= 1e-12
    assert traj.min_entry >= -1e-9
    assert traj.eta == 0.25
    assert traj.states.shape == (501, 2, 1)
    np.testing.assert_array_equal(traj.terminal, traj.states[-1])


def test_trajectory_flow_views():
    g, rgame = get_scenario("pigou").build_game()
    traj = gd.integrate(g, 0.25, gd.vertex_configuration(g, "r2"), 1.0, 0.1)
    w = traj.aggregate_flows()
    assert w.shape == (11, 2)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    y = gd.link_flow(rgame.route_set, traj.states)
    np.testing.assert_array_equal(y, w @ rgame.route_set.incidence.T)


def test_rk4_step_halving_is_fourth_order():
    g, _ = get_scenario("pigou").build_game()
    eta = 0.25
    x0 = gd.vertex_configuration(g, "r2")
    terms = [gd.integrate(g, eta, x0, 2.0, dt).terminal
             for dt in (0.02, 0.01, 0.005)]
    e1 = float(np.abs(terms[0] - terms[1]).sum())
    e2 = float(np.abs(terms[1] - terms[2]).sum())
    assert 12.0 <= e1 / e2 <= 20.0


def assert_stack_equals_lone_runs(game, eta, X, horizon, dt):
    trajs = gd.integrate(game, eta, X, horizon, dt)
    assert isinstance(trajs, list) and len(trajs) == len(X)
    for x, traj in zip(X, trajs):
        lone = gd.integrate(game, eta, x, horizon, dt)
        assert np.array_equal(traj.times, lone.times)
        assert np.array_equal(traj.states, lone.states)
        assert (traj.mass_drift, traj.min_entry) == (lone.mass_drift, lone.min_entry)
        assert np.array_equal(traj.aggregate_flows(), lone.aggregate_flows())


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_integrate_splits_a_stack_into_its_lone_runs(name, caplog):
    # a start's drift sums its own actions, never across the stack, so no
    # start of a stack trips the drift monitor that its lone run passes
    scn = get_scenario(name)
    game, _ = scn.build_game()
    X = gd.sample_configurations(game, np.random.default_rng(8), 8)
    with caplog.at_level(logging.WARNING, logger="gamedyn.dynamics"):
        assert_stack_equals_lone_runs(game, scn.eta(), X, 2.0, 0.01)
    assert not any("mass drift" in m for m in caplog.messages)


def test_integrate_warns_of_drift_once_per_start_in_order(monkeypatch, caplog):
    # a target that adds 0.1% of mass to the first start and 0.2% to the second
    leak = np.array([1.001, 1.002])[:, None, None]
    monkeypatch.setattr(dynamics, "softmax_target",
                        lambda game, c, eta: leak * softmax_target(game, c, eta))
    game, _ = get_scenario("pigou").build_game()
    X = gd.sample_configurations(game, np.random.default_rng(8), 2)
    with caplog.at_level(logging.WARNING, logger="gamedyn.dynamics"):
        trajs = gd.integrate(game, 0.25, X, 1.0, 0.01)
    assert 1e-7 < trajs[0].mass_drift < trajs[1].mass_drift
    assert caplog.messages == [f"mass drift {t.mass_drift:.3e} exceeds the 1e-7 monitor bound"
                               for t in trajs]


def test_integrate_rejects_extra_stack_axes():
    g, _ = get_scenario("pigou").build_game()
    X = gd.sample_configurations(g, np.random.default_rng(0), 4).reshape(2, 2, 2, 1)
    with pytest.raises(gd.ConfigurationError, match=r"shape \(2, 2, 2, 1\)"):
        gd.integrate(g, 0.25, X, 1.0, 0.1)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_potential_game(), st.just(wide_game())), st.sampled_from([1, 2, 5]),
       st.floats(0.05, 2.0), st.integers(0, 2 ** 32 - 1))
@example(wide_game(), 5, 0.3, 0)
def test_stacked_integration_equals_lone_runs_on_generated_games(game, n, eta, seed):
    # zero-mass populations and masked entries included: wide_game has both
    note_game(game)
    X = gd.sample_configurations(game, np.random.default_rng(seed), n)
    assert_stack_equals_lone_runs(game, eta, X, 1.0, 0.05)


# ---------------------------------------------------------------------------
# Aggregate (reduced) dynamics


def test_reduced_system_capability_gates():
    g, _ = get_scenario("wheatstone").build_game()    # costs couple the links
    with pytest.raises(gd.CapabilityError, match="per-action aggregate"):
        gd.ReducedSystem(g, 0.2)


@pytest.mark.parametrize("name", ["constant", "coordination", "pigou", "parallel3",
                                  "homogeneous", "tolls"])
def test_reduced_target_is_the_softmax_of_the_aggregate_costs(name):
    # the aggregate costs by their own formula, A^T tau(A w) over links (one
    # link per action in an explicit game), against the logit map at the lifted w
    g, _ = get_scenario(name).build_game()
    A = g.costs.A
    rng = np.random.default_rng(3)
    for eta in (0.05, 0.5, 3.0):
        sys = gd.ReducedSystem(g, eta)
        for _ in range(100):
            w = rng.uniform(0.0, 1.5 * g.total_mass(), g.n_actions)
            c = A.T @ g.costs.curves(A @ w)
            assert np.array_equal(sys.target(w), softmax_target(g, c, eta))


def test_reduced_solves_name_an_infinite_cost():
    # the reduction evaluates the game's own costs, so it stops on a
    # non-finite entry as the full-state solver does
    g = gd.PopulationGame(populations=("p1",), masses=np.array([2.0]), actions=("a1", "a2"),
                          mask=np.ones((2, 1), dtype=bool),
                          costs=explicit_costs([[gd.ScalarFn.affine(1e308, 0.0)],
                                                [gd.ScalarFn.affine(1.0, 0.0)]]))
    w0 = np.array([2.0, 0.0])
    for run in (lambda: gd.ReducedSystem(g, 0.5).fixed_point(w0),
                lambda: gd.recover_configuration_limit(g, 0.5, w0),
                lambda: gd.fixed_point(g, 0.5, w0[:, None])):
        with np.errstate(over="ignore"), pytest.raises(
                gd.CostEvalError, match="non-finite cost for action 'a1', population 'p1'"):
            run()


def test_reduced_fixed_point_matches_scalar_oracle():
    g, _ = get_scenario("pigou").build_game()
    sys = gd.ReducedSystem(g, 0.25)
    fp = sys.fixed_point(np.array([0.5, 0.5]))
    assert fp.converged
    w_star = brentq(lambda w: 1.0 / (1.0 + np.exp((w - 1.0) / 0.25)) - w,
                    0.0, 1.0, xtol=1e-15)
    assert abs(fp.w[0] - w_star) <= 1e-9
    assert fp.w.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name, eta, w0, cap, iterations, converged", [
    ("parallel3", 0.5, None, 100, 5, True),
    ("pigou", 0.25, (0.5, 0.5), 100, 4, True),
    ("pigou", 0.25, (0.5, 0.5), 2, 2, False),
])
def test_reduced_fixed_point_iteration_counts(name, eta, w0, cap, iterations,
                                              converged, monkeypatch):
    # exact corrector steps of the one fixed_points solve; a cap of 2 steps
    # stops pigou, which needs 4
    g, _ = get_scenario(name).build_game()
    sys = gd.ReducedSystem(g, eta)
    w0 = gd.uniform_configuration(g).sum(axis=1) if w0 is None else np.array(w0)
    monkeypatch.setattr(logit, "NEWTON_STEPS", cap)
    fp = sys.fixed_point(w0)
    assert fp.iterations == iterations and fp.converged is converged


def test_recover_configuration_limit_roundtrip():
    g, _ = get_scenario("parallel3").build_game()
    eta = 0.5
    sys = gd.ReducedSystem(g, eta)
    fp = sys.fixed_point(gd.uniform_configuration(g).sum(axis=1))
    x_star = gd.recover_configuration_limit(g, eta, fp.w)
    gd.validate_configuration(g, x_star)
    np.testing.assert_allclose(x_star.sum(axis=1), fp.w, atol=1e-9)
    # x_star is a fixed point of the full map as well
    assert float(np.abs(gd.logit_map(g, x_star, 0.5) - x_star).sum()) <= 1e-9


def test_recover_configuration_limit_rejects_non_fixed_flow():
    g, _ = get_scenario("pigou").build_game()
    with pytest.raises(ValueError, match="not a reduced fixed point"):
        gd.recover_configuration_limit(g, 0.25,
                                       np.array([0.9, 0.1]))


def test_reduced_start_is_checked():
    g, _ = get_scenario("pigou").build_game()
    run = gd.ReducedSystem(g, 0.25).fixed_point
    with pytest.raises(ValueError, match=r"w0 must have shape \(2,\), got \(3,\)"):
        run(np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        run([np.nan, 0.5])


@pytest.mark.parametrize("w, cause", [
    ([0.5], r"must have shape \(2,\), got \(1,\)"),
    ([0.5, 0.5, 0.0], r"must have shape \(2,\), got \(3,\)"),
    ([np.nan, 0.5], r"has a non-finite entry: \[nan, 0\.5\]"),
], ids=["short", "long", "nan"])
def test_reduced_target_and_limit_name_a_bad_w(w, cause):
    # a short w was broadcast to every action, a long one hit numpy's
    # broadcast error, and a NaN was blamed on the costs
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match=f"^w {cause}"):
        gd.ReducedSystem(g, 0.25).target(w)
    with pytest.raises(ValueError, match=f"^w_star {cause}"):
        gd.recover_configuration_limit(g, 0.25, w)


# ---------------------------------------------------------------------------
# Contraction-rate fits


def test_l1_contraction_constant_costs_rate_is_one():
    # with a flow-independent target, differences obey d' = -d exactly
    g, _ = get_scenario("constant").build_game()
    eta = 1.0
    ta = gd.integrate(g, eta, gd.vertex_configuration(g, "a1"), 10.0, 0.01)
    tb = gd.integrate(g, eta, gd.vertex_configuration(g, "a2"), 10.0, 0.01)
    fit = gd.l1_contraction_test(ta, tb)
    assert fit.defined and not fit.non_monotone
    assert fit.rate == pytest.approx(1.0, abs=0.01)
    assert fit.residual_rms <= 1e-6


def test_l1_contraction_identical_starts_is_undefined():
    g, _ = get_scenario("constant").build_game()
    eta = 1.0
    x0 = gd.uniform_configuration(g)
    ta = gd.integrate(g, eta, x0, 1.0, 0.1)
    tb = gd.integrate(g, eta, x0, 1.0, 0.1)
    fit = gd.l1_contraction_test(ta, tb)
    assert not fit.defined
    assert fit.rate is None and fit.n_points == 0


def test_l1_contraction_requires_shared_grid():
    g, _ = get_scenario("constant").build_game()
    eta = 1.0
    ta = gd.integrate(g, eta, gd.vertex_configuration(g, "a1"), 1.0, 0.1)
    tb = gd.integrate(g, eta, gd.vertex_configuration(g, "a2"), 1.0, 0.05)
    with pytest.raises(ValueError, match="time grid"):
        gd.l1_contraction_test(ta, tb)


def test_l1_contraction_aggregate_mode():
    g, _ = get_scenario("pigou").build_game()
    eta = 0.25
    ta = gd.integrate(g, eta, gd.vertex_configuration(g, "r1"), 8.0, 0.01)
    tb = gd.integrate(g, eta, gd.vertex_configuration(g, "r2"), 8.0, 0.01)
    fit = gd.l1_contraction_test(ta, tb, aggregate=True)
    assert fit.defined and fit.rate is not None and fit.rate >= 0.9
