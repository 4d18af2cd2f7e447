"""Acceptance gate: one test per release criterion, in order. Each test
prints the measured numbers it gates on, so a `pytest -v` run reads as a
pass/fail checklist with evidence.
"""

import time

import numpy as np
from scipy.optimize import brentq

import gamedyn as gd

from conftest import ALL_SCENARIOS, get_scenario


def route_vertex(game, rgame, links):
    rs = rgame.route_set
    return gd.vertex_configuration(game, rs.names[rs.index_of(links)])


def test_criterion_1_wheatstone_two_starts_one_limit():
    scn = get_scenario("wheatstone")
    game, rgame = scn.build_game()
    eta = 0.2
    t0 = time.perf_counter()
    ta, tb = gd.integrate(game, eta, [route_vertex(game, rgame, links)
                                      for links in (("e1", "e4"), ("e2", "e5"))],
                          horizon=50.0, dt=0.01)
    elapsed = time.perf_counter() - t0
    gap = float(np.abs(ta.terminal - tb.terminal).sum())
    print(f"[criterion 1] terminal l1 gap {gap:.3e}  runtime {elapsed:.2f}s")
    assert gap <= 1e-4
    assert elapsed <= 5.0


def test_criterion_2_wheatstone_limit_flow_and_costs():
    scn = get_scenario("wheatstone")
    game, rgame = scn.build_game()
    rs = rgame.route_set
    seeds = [route_vertex(game, rgame, ("e1", "e4")),
             route_vertex(game, rgame, ("e2", "e5")),
             gd.uniform_configuration(game)]
    t0 = time.perf_counter()
    curves = gd.continuation_sweep(game, np.geomspace(2.0, 1e-3, 60), seeds)
    elapsed = time.perf_counter() - t0

    y_star = np.array([2.0, 2.0, 1.0, 1.0, 3.0])
    worst_y = max(float(np.abs(gd.link_flow(rs, c.terminal_limit) - y_star).max())
                  for c in curves)
    c_lim = gd.evaluate_costs(game, curves[0].terminal_limit)
    c_direct = float(c_lim[rs.index_of(("e1", "e4")), 0])
    c_zigzag = float(c_lim[rs.index_of(("e1", "e3", "e5")), 0])
    c_flat = float(c_lim[rs.index_of(("e2", "e5")), 0])
    print(f"[criterion 2] link flow err {worst_y:.3e}  p1 costs "
          f"(e1,e4)={c_direct:.3f} (e1,e3,e5)={c_zigzag:.3f} "
          f"(e2,e5)={c_flat:.3f}  runtime {elapsed:.2f}s")
    assert worst_y <= 5e-2
    assert abs(c_direct - 7.0) <= 0.2
    assert abs(c_zigzag - 7.0) <= 0.2
    assert c_flat >= 22.0
    assert elapsed <= 30.0


def test_criterion_3_coordination_strict_limits_on_stable_branches():
    game, _ = get_scenario("coordination").build_game()
    seeds = [gd.vertex_configuration(game, "a1"),
             gd.vertex_configuration(game, "a2"),
             gd.uniform_configuration(game)]
    curves = gd.continuation_sweep(game, np.geomspace(2.0, 1e-3, 60), seeds)

    branches, gaps = [], []
    for name in ("a1", "a2"):
        x_star = gd.vertex_configuration(game, name)
        best = min(curves, key=lambda c: float(np.abs(c.terminal_limit - x_star).sum()))
        gaps.append(float(np.abs(best.terminal_limit - x_star).sum()))
        branches.append(best)
    b1, b2 = branches
    assert b1 is not b2
    np.testing.assert_array_equal(b1.etas, b2.etas)

    # largest grid eta at which the two strict branches have separated
    diff = np.abs(b1.points - b2.points).sum(axis=(1, 2))
    split = np.nonzero(diff > 1e-6)[0]
    assert split.size, "vertex-seeded branches never separate"
    k_tilde = split[0]                      # grid runs from eta_hi down
    eta_tilde = float(b1.etas[k_tilde])
    print(f"[criterion 3] eta_tilde {eta_tilde:.4f}  limit gaps "
          f"{gaps[0]:.3e} {gaps[1]:.3e}")
    assert max(gaps) <= 1e-3
    assert 0.4 < eta_tilde < 0.6
    for b in branches:
        assert b.stable[k_tilde:].all()     # stable at every eta <= eta_tilde


def test_criterion_4_contraction_at_certified_noise():
    lines = []
    for idx, name in enumerate(ALL_SCENARIOS):
        game, _ = get_scenario(name).build_game()
        eta_hat = gd.high_noise_threshold(game)
        c_hat = -gd.contraction_margin(game, eta_hat)

        rng = np.random.default_rng(911 + idx)
        ta, tb = gd.integrate(game, eta_hat, gd.sample_configurations(game, rng, 2),
                              horizon=5.0, dt=0.01)
        d = np.abs(ta.states - tb.states).sum(axis=(1, 2))
        bound = d[0] * np.exp(-(c_hat - 0.05) * ta.times)
        excess = float((d - bound).max())
        m_inf = gd.contraction_margin(game, 1e6)
        lines.append(f"[criterion 4] {name}: eta_hat {eta_hat:.4f} "
                     f"c_hat {c_hat:+.4f} envelope excess {excess:.3e} "
                     f"margin(1e6) {m_inf:+.6f}")
        assert (d <= bound + 1e-12).all(), \
            f"{name}: contraction envelope violated by {excess:.3e}"
        assert abs(m_inf + 1.0) <= 1e-3, f"{name}: margin at 1e6 is {m_inf}"
    print("\n".join(lines))


def test_criterion_5_parallel_aggregate_reduction():
    for name in ("pigou", "parallel3"):
        scn = get_scenario(name)
        game, _ = scn.build_game()
        eta = scn.eta()

        rng = np.random.default_rng(5150)
        xa = gd.sample_configuration(game, rng)
        xb = gd.sample_configuration(game, rng)
        ta, tb = gd.integrate(game, eta, [xa, xb], horizon=10.0, dt=0.01)
        fit = gd.l1_contraction_test(ta, tb, aggregate=True)
        assert fit.defined

        sys = gd.ReducedSystem(game, eta)
        fp = sys.fixed_point(gd.uniform_configuration(game).sum(axis=1))
        assert fp.converged
        x_star = gd.recover_configuration_limit(game, eta, fp.w)
        t_long = gd.integrate(game, eta, xa, horizon=30.0, dt=0.01)
        err = float(np.abs(t_long.terminal - x_star).sum())
        print(f"[criterion 5] {name}: fitted rate {fit.rate:.4f}  "
              f"terminal vs lifted fixed point {err:.3e}")
        assert fit.rate >= 0.9
        assert err <= 1e-4


def test_criterion_6_series_stage_equivalence():
    scn = get_scenario("series2")
    game, rgame = scn.build_game()
    worst = gd.series_restriction_equivalence(
        rgame, scn.eta(), gd.uniform_configuration(game),
        horizon=30.0, dt=0.01)
    print(f"[criterion 6] max stage flow discrepancy {worst:.3e}")
    assert worst <= 1e-6


def fd_jacobian(game, x, eta, h=1e-6):
    pairs = game.valid_pairs
    J = np.empty((len(pairs), len(pairs)))
    for j, (a, p) in enumerate(pairs):
        xp = x.copy()
        xp[a, p] += h
        xm = x.copy()
        xm[a, p] -= h
        diff = (gd.logit_map(game, xp, eta) - gd.logit_map(game, xm, eta)) / (2 * h)
        J[:, j] = [diff[b, q] for b, q in pairs]
    return J


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(20260825)
    worst_rel = 0.0
    for k in range(100):
        game, _ = get_scenario(ALL_SCENARIOS[k % len(ALL_SCENARIOS)]).build_game()
        x = gd.sample_configuration(game, rng)
        eta = float(10.0 ** rng.uniform(np.log10(0.05), 1.0))
        J = gd.logit_jacobian(game, x, eta)
        rel = np.abs(J - fd_jacobian(game, x, eta)).max() / max(1.0, np.abs(J).max())
        worst_rel = max(worst_rel, float(rel))
    assert worst_rel <= 1e-5

    game_p, _ = get_scenario("pigou").build_game()
    eta = 0.25
    w_star = brentq(lambda w: 1.0 / (1.0 + np.exp((w - 1.0) / eta)) - w,
                    0.0, 1.0, xtol=1e-15)
    fp = gd.fixed_point(game_p, eta, gd.uniform_configuration(game_p))
    err_fp = abs(float(fp.x[0, 0]) - w_star)

    game_w, _ = get_scenario("wheatstone").build_game()
    eta_w = 0.2
    x0 = gd.uniform_configuration(game_w)
    t1, t2, t3 = (gd.integrate(game_w, eta_w, x0, horizon=2.0, dt=dt).terminal
                  for dt in (0.01, 0.005, 0.0025))
    ratio = float(np.abs(t1 - t2).sum() / np.abs(t2 - t3).sum())
    print(f"[criterion 7] jacobian max rel err {worst_rel:.3e}  "
          f"pigou fp vs bisection {err_fp:.3e}  halving ratio {ratio:.1f}")
    assert err_fp <= 1e-9
    assert 12.0 <= ratio <= 20.0


def test_criterion_8_potential_lyapunov_suite():
    rng = np.random.default_rng(77)
    asyms = {}
    for name, expect in (("homogeneous", True), ("tolls", True),
                         ("wheatstone", False)):
        game, _ = get_scenario(name).build_game()
        ok, asym = gd.potential_symmetry_check(game, rng=rng)
        asyms[name] = asym
        assert bool(ok) is expect, f"{name}: symmetry check returned {ok}"
    assert asyms["wheatstone"] > 0.1

    cases = (("homogeneous", "routing"), ("tolls", "routing"),
             ("pigou", "routing"), ("coordination", "explicit"),
             ("constant", "explicit"))
    uphills = []
    for name, kind in cases:
        scn = get_scenario(name)
        game, rgame = scn.build_game()
        eta = scn.eta()
        V = gd.potential(game)
        x0 = scn.initial_configuration(game, np.random.default_rng(3))
        traj = gd.integrate(game, eta, x0,
                            horizon=10.0, dt=0.01)
        rep = gd.lyapunov_check(game, traj, eta, V, tol=1e-8)
        uphills.append(f"{name} {rep.max_uphill:.2e}")
        assert rep.ok, f"{name}: uphill step {rep.max_uphill:.3e}"
    print(f"[criterion 8] wheatstone asymmetry {asyms['wheatstone']:.3f}  "
          f"max uphill steps: {', '.join(uphills)}")
