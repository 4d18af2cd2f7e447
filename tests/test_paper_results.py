"""The paper's results as oracles on generated games: the high-noise
contraction bound on affine and table curves, the parallel-route uniqueness
result, the aggregate contraction of the dynamics on parallel routes, the
one stable logit equilibrium of a stable game at every noise level and the
stable logit equilibrium near each strict Nash vertex at low noise.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import root

import gamedyn as gd
from gamedyn import analysis, logit

from conftest import ALL_SCENARIOS, CallableCostField, explicit_costs, get_scenario


@st.composite
def parallel_route_game(draw):
    """Heterogeneous routing games on 2-5 parallel links o -> d with 1-3
    populations: one affine curve per (link, population), slope 10^U(-1, 1)
    and intercept U(0, 3), and masses U(0.2, 2)."""
    E, P = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    links = [f"e{k + 1}" for k in range(E)]
    pops = [f"p{p + 1}" for p in range(P)]
    grid = [[gd.ScalarFn.affine(10.0 ** draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 3.0)))
             for _ in pops] for _ in links]
    masses = draw(st.lists(st.floats(0.2, 2.0), min_size=P, max_size=P))
    graph = gd.Multigraph(["o", "d"], [(e, "o", "d") for e in links])
    return gd.build_routing_game(graph, "o", "d", gd.LinkCostMatrix(links, pops, grid),
                                 pops, np.array(masses)).game


ETAS = st.floats(-2.5, np.log10(2.0)).map(lambda t: 10.0 ** t)


@settings(max_examples=40, deadline=None)
@given(parallel_route_game(), ETAS, st.integers(0, 2 ** 32 - 1))
def test_parallel_routes_have_one_equilibrium_that_every_start_reaches(game, eta, seed):
    # the heterogeneous game on parallel routes has one equilibrium, and it
    # is globally stable: every start of one solve converges to one stable
    # point, the one the aggregate reduction lifts back to
    starts = [*gd.sample_configurations(game, np.random.default_rng(seed), 6),
              *gd.monomorphic_vertices(game)[:8], gd.uniform_configuration(game)]
    results = gd.fixed_points(game, eta, starts)
    assert all(r.converged and r.stability.locally_stable for r in results)
    x = results[-1].x
    assert max(float(np.abs(r.x - x).sum()) for r in results) <= 1e-8
    fp = gd.ReducedSystem(game, eta).fixed_point(gd.uniform_configuration(game).sum(axis=1))
    assert fp.converged
    assert float(np.abs(gd.recover_configuration_limit(game, eta, fp.w) - x).sum()) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(parallel_route_game(), st.floats(np.log10(0.05), np.log10(2.0)).map(lambda t: 10.0 ** t),
       st.integers(0, 2 ** 32 - 1))
def test_parallel_route_aggregate_flows_approach_each_other(game, eta, seed):
    """The l1 distance between the aggregate flows of two RK4 runs never
    grows on parallel routes: 6 samples and 2 vertices, one integrate call,
    each paired with start 0.

    eta is held to [0.05, 2]. Below it, at eta = 3.4e-3, one drawn game grew
    by 4.1e-4 in 2 of 420 pairs at dt = 0.01, and not at dt = 1e-3: RK4 at a
    stiff step, not the flow."""
    starts = [*gd.sample_configurations(game, np.random.default_rng(seed), 6),
              *gd.monomorphic_vertices(game)[:2]]
    first, *rest = gd.integrate(game, eta, starts, horizon=5.0, dt=0.01)
    assert not any(gd.l1_contraction_test(first, t, aggregate=True).non_monotone
                   for t in rest)


def assert_contraction_bound(game):
    """high_noise_threshold <= max(eta_lo, 1.01 * 2VL): each column of |J|
    sums to at most 2VL/eta, with V the total mass and L the largest
    |dc_ip/dx_jq|, so the l1 log-norm of J - I is negative past 2VL.
    Affine curves have a constant cost Jacobian, so L is exact."""
    points = np.array([gd.uniform_configuration(game), *gd.monomorphic_vertices(game)[:8]])
    D = gd.cost_jacobian(game, points)
    assert np.array_equal(D, np.broadcast_to(D[0], D.shape))
    bound = 2.0 * game.total_mass() * float(np.abs(D[0]).max())
    assert gd.high_noise_threshold(game) <= max(0.05, 1.01 * bound)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_high_noise_threshold_is_within_the_closed_form_bound(name):
    assert_contraction_bound(get_scenario(name).build_game()[0])


@settings(max_examples=40, deadline=None)
@given(parallel_route_game())
def test_high_noise_threshold_is_within_the_bound_on_parallel_routes(game):
    assert_contraction_bound(game)


@st.composite
def table_curve_game(draw):
    """Explicit games with 2-4 actions and 1-2 populations, masses U(0.2, 2),
    and one table curve per entry: 2-5 breakpoints U(0.2, 1.5) apart from a
    start U(-0.5, 0.5), values U(-3, 3). Each slope is at most 30 in
    magnitude and V <= 4, so 2VL <= 240, well under the eta_hi = 1000 of
    high_noise_threshold. Over 100 drawn games the threshold read at most
    0.25 of the bound."""
    S, P = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    masses = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=P, max_size=P)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = []
    for _ in range(S):
        row = []
        for _ in range(P):
            k = rng.integers(2, 6)
            xs = rng.uniform(-0.5, 0.5) + np.cumsum(rng.uniform(0.2, 1.5, k))
            row.append(gd.ScalarFn.table(list(zip(xs, rng.uniform(-3.0, 3.0, k)))))
        grid.append(row)
    return gd.PopulationGame(
        populations=[f"p{p}" for p in range(P)], masses=masses,
        actions=[f"a{i}" for i in range(S)], mask=np.ones((S, P), dtype=bool),
        costs=explicit_costs(grid))


@settings(max_examples=40, deadline=None)
@given(table_curve_game())
def test_high_noise_threshold_is_within_the_bound_on_table_curves(game):
    # |dc_ip/dx_iq| is at most the steepest |segment slope| L of any curve,
    # the extrapolating edge segments included, so each column of |J| sums
    # to at most 2VL/eta and the l1 log-norm of J - I is negative past 2VL
    L = max(float(np.abs(np.diff(f.ys) / np.diff(f.xs)).max())
            for row in game.costs.curves.fns for f in row)
    bound = 2.0 * game.total_mass() * L
    assert gd.high_noise_threshold(game) <= max(0.05, 1.01 * bound)


@st.composite
def stable_game(draw):
    """Stable (monotone) games that are not potential games: on n = S * P
    entries, 2-4 actions and 1-2 populations with masses U(0.2, 2), the
    costs are c(x) = M x + b with M = s A A^T / n + K - K^T, so that
    (x - y) . (c(x) - c(y)) = s |A^T (x - y)|^2 / n >= 0. A and K are
    standard normal, s = 10^U(-1, 1) and b is U(0, 3). The skew part K - K^T
    is not scaled down, so it often outweighs the symmetric one and the map
    spirals round its fixed point."""
    S, P = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    masses = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=P, max_size=P)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = S * P
    A, K = rng.standard_normal((2, n, n))
    M = 10.0 ** rng.uniform(-1.0, 1.0) * A @ A.T / n + K - K.T
    return affine_game(masses, M, rng.uniform(0.0, 3.0, n))


def affine_game(masses, M, b):
    """The explicit game with costs c(x) = M x + b on the flattened (S, P)
    configuration, every entry available, and finite-difference partials."""
    S, P = len(b) // len(masses), len(masses)
    return gd.PopulationGame(
        populations=[f"p{p}" for p in range(P)], masses=masses,
        actions=[f"a{i}" for i in range(S)], mask=np.ones((S, P), dtype=bool),
        costs=CallableCostField(lambda x: (M @ x.reshape(-1) + b).reshape(S, P),
                                masses=masses))


def census_with_stack(game, etas, rng):
    """bifurcation_scan(game, etas, multistart=4, rng=rng), and the fixed_points
    stack it counted on."""
    stacks, real = [], analysis.fixed_points

    def recorded(*args):
        stacks.append(real(*args))
        return stacks[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(analysis, "fixed_points", recorded)
        sweep = gd.bifurcation_scan(game, etas, multistart=4, rng=rng)
    return sweep, stacks[0]


@settings(max_examples=40, deadline=None)
@given(stable_game(), st.integers(0, 2 ** 32 - 1))
def test_stable_games_have_one_stable_equilibrium_at_every_noise_level(game, seed):
    """The logit equilibrium of a stable game is unique and globally stable
    at every eta (Hofbauer and Sandholm 2009): at 14 etas from 2 down to
    1e-4 every start of the census lands, and the census counts one fixed
    point, which is stable."""
    sweep, stack = census_with_stack(game, np.geomspace(2.0, 1e-4, 14),
                                     np.random.default_rng(seed))
    assert stack.converged.all()
    assert sweep.n_fixed_points.tolist() == [1] * 14
    assert sweep.n_stable.tolist() == [1] * 14


def drawn_stable_game(k: int):
    """Stable game k, drawn as stable_game draws one, from one
    numpy.random.default_rng([2026, k]): S = integers(2, 5), P = integers(1, 3),
    the P masses U(0.2, 2), A and K as one standard normal (2, n, n) draw,
    s = 10^U(-1, 1) and b U(0, 3). Returns the game and the generator, which
    its census goes on with."""
    rng = np.random.default_rng([2026, k])
    S, P = rng.integers(2, 5), rng.integers(1, 3)
    masses = rng.uniform(0.2, 2.0, P)
    A, K = rng.standard_normal((2, S * P, S * P))
    M = 10.0 ** rng.uniform(-1.0, 1.0) * A @ A.T / (S * P) + K - K.T
    return affine_game(masses, M, rng.uniform(0.0, 3.0, S * P)), rng


@pytest.mark.parametrize("k", [23, 156, 199, 223, 319, 321, 356])
def test_census_lands_every_start_on_the_stall_games(k):
    """The seven drawn stable games (of k = 0...399) on which a corrector that
    stepped in x, clipped at x/100, stopped 106 census starts at its 1000-step
    cap, all at eta <= 0.0317: every start of the census down to 1e-3 lands,
    and each eta counts one stable point."""
    game, rng = drawn_stable_game(k)
    sweep, stack = census_with_stack(game, np.geomspace(2.0, 1e-3, 12), rng)
    assert stack.converged.all()
    assert sweep.n_fixed_points.tolist() == sweep.n_stable.tolist() == [1] * 12


@pytest.mark.parametrize("k", [0, 3, 4, 7])
def test_corrector_points_are_scipy_roots(k):
    """An independent oracle: scipy's hybr root of the log-weight equations
    z_ip + c_ip(x)/eta = z_0p + c_0p(x)/eta, with z_0p = 0 and
    x = m softmax(z), from z = 0 at eta = 0.1 and warm down to 1e-3, lies
    within 1e-8 (l1) of the corrector's point from the uniform start."""
    game, _ = drawn_stable_game(k)
    S, P = game.mask.shape

    def point(u):
        z = np.vstack([np.zeros((1, P)), u.reshape(S - 1, P)])
        e = np.exp(z - z.max(axis=0))
        return game.masses * e / e.sum(axis=0), z

    u = np.zeros((S - 1) * P)
    for eta in (0.1, 0.01, 1e-3):
        def equations(u):
            x, z = point(u)
            w = z + gd.evaluate_costs(game, x) / eta
            return (w[1:] - w[0]).ravel()

        u = root(equations, u, method="hybr", options={"xtol": 1e-13}).x
        x = point(u)[0]
        assert float(np.abs(gd.logit_map(game, x, eta) - x).sum()) <= 1e-9
        r = gd.fixed_points(game, eta, [gd.uniform_configuration(game)])[0]
        assert r.converged and float(np.abs(r.x - x).sum()) <= 1e-8


@st.composite
def affine_cost_game(draw):
    """Explicit games with 2-4 actions and 1-2 populations, masses U(0.2, 2),
    and costs c(x) = M x + b with M standard normal, neither monotone nor
    potential, and b U(0, 3)."""
    S, P = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    masses = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=P, max_size=P)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.standard_normal((S * P, S * P))
    return affine_game(masses, M, rng.uniform(0.0, 3.0, S * P)), M


@settings(max_examples=100, deadline=None)
@given(affine_cost_game())
def test_strict_nash_vertices_are_stable_logit_equilibria_at_low_noise(drawn):
    """Near each strict Nash vertex e, with cost gap alpha, the logit map has
    a locally stable fixed point at eta = alpha/10, alpha/20 and alpha/50
    wherever 2 L B <= alpha/2, with L = max|M| and
    B = 2 V (S - 1) exp(-alpha / (2 eta)), and the corrector from e finds
    it, within B of e in l1.

    Why the ball holds a fixed point: take x in the polytope with
    |x - e|_1 <= B. Each cost moves by |M (x - e)|_i <= L B from its value
    at e, so every action j other than population p's action i_p still
    costs at least alpha - 2 L B >= alpha/2 more than i_p. Its logit share
    is then at most exp(-alpha / (2 eta)), so F_jp(x) <= m_p exp(-alpha /
    (2 eta)), and F_{i_p p}(x) = m_p - sum_j F_jp(x). Hence
    |F(x) - e|_1 = 2 sum_p sum_{j != i_p} F_jp(x) <= 2 V (S - 1)
    exp(-alpha / (2 eta)) = B: F maps the ball (a compact convex set, cut
    by the polytope) into itself, and so has a fixed point in it (Brouwer).

    Past the condition the result need not hold at these etas: where the
    gap closes at rate k per unit of mass moved off i_p, the mass d that
    moves solves about d = a exp(k d) with a = m_p exp(-alpha / eta), which has
    no root once a k > 1/e, so the point near e is gone (a fold). Over 3,000
    games drawn this way, 8,401 of 9,234 (vertex, eta) cases met the
    condition; all passed, and the corrector's point lay within 0.7% of B.
    """
    game, M = drawn
    S, V, L = game.n_actions, game.total_mass(), float(np.abs(M).max())
    for e in gd.monomorphic_vertices(game):
        alpha = gd.classify_equilibrium(game, e).cost_gap_alpha
        if alpha is None:
            continue
        for eta in (alpha / 10, alpha / 20, alpha / 50):
            bound = 2.0 * V * (S - 1) * np.exp(-alpha / (2.0 * eta))
            if 2.0 * L * bound <= alpha / 2:
                r = gd.fixed_points(game, eta, [e])[0]
                assert r.converged and r.stability.locally_stable
                assert float(np.abs(r.x - e).sum()) <= bound


def drawn_general_game(k: int):
    """General game k, drawn as affine_cost_game draws one, from one
    numpy.random.default_rng([2026, k]): S = integers(2, 5), P = integers(1, 3),
    the P masses U(0.2, 2), M standard normal (n, n) and b U(0, 3). Returns the
    game and the generator, which its census goes on with."""
    rng = np.random.default_rng([2026, k])
    S, P = rng.integers(2, 5), rng.integers(1, 3)
    masses = rng.uniform(0.2, 2.0, P)
    M = rng.standard_normal((S * P, S * P))
    return affine_game(masses, M, rng.uniform(0.0, 3.0, S * P)), rng


def test_corrector_stops_past_a_fold_with_one_warning(caplog):
    """Game drawn_general_game(1241): the vertex with both populations on a3
    is strict with gap alpha = 0.00255, and at eta = alpha/10 a fold has
    removed the fixed point near it (see
    test_strict_nash_vertices_are_stable_logit_equilibria_at_low_noise). From
    that vertex the corrector does not land: where its line search finds no
    step it steps to the map image, and it stops at the step cap, unconverged,
    with one warning."""
    game, _ = drawn_general_game(1241)
    e = gd.vertex_configuration(game, ["a3"] * 2)
    alpha = gd.classify_equilibrium(game, e).cost_gap_alpha
    assert game.mask.shape == (4, 2) and alpha == pytest.approx(0.00255, abs=1e-5)
    with caplog.at_level(logging.WARNING, logger="gamedyn.logit"):
        r = gd.fixed_points(game, alpha / 10, [e])[0]
    assert not r.converged and r.iterations == logit.NEWTON_STEPS == 1000
    assert [m.split(" (")[0] for m in caplog.messages] == [
        "fixed_points: start 0, no convergence after 1000 steps"]
