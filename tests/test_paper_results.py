"""The paper's results as oracles on generated games: the high-noise
contraction bound, the parallel-route uniqueness result and the aggregate
contraction of the dynamics on parallel routes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gamedyn as gd

from conftest import ALL_SCENARIOS, get_scenario


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
