"""Multigraphs, route enumeration, topology classes, link cost grids and
series decoupling.
"""

import sys

import numpy as np
import pytest

import gamedyn as gd
import gamedyn.routing as routing
from gamedyn.routing import LinkCostMatrix, marginal_stage_configuration

from conftest import get_scenario

AFF = gd.ScalarFn.affine
CONST = gd.ScalarFn.constant


def diamond_graph():
    return gd.Multigraph(
        ["o", "a", "b", "d"],
        [("e1", "o", "a"), ("e2", "o", "b"), ("e3", "a", "b"),
         ("e4", "a", "d"), ("e5", "b", "d")])


def single_exit_series_game():
    """Two parallel links o->m feeding one mandatory link m->d."""
    graph = gd.Multigraph(["o", "m", "d"],
                          [("e1", "o", "m"), ("e2", "o", "m"), ("e3", "m", "d")])
    costs = LinkCostMatrix(("e1", "e2", "e3"), ("p1", "p2"),
                           [[AFF(1, 0), AFF(1, 0)],
                            [CONST(2), CONST(2)],
                            [AFF(1, 1), AFF(1, 1)]])
    return gd.build_routing_game(graph, "o", "d", costs,
                                 ("p1", "p2"), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Graphs and route enumeration


def test_multigraph_validation():
    with pytest.raises(ValueError, match="duplicate node"):
        gd.Multigraph(["o", "o"], [])
    with pytest.raises(ValueError, match="duplicate link"):
        gd.Multigraph(["o", "d"], [("e1", "o", "d"), ("e1", "o", "d")])
    with pytest.raises(ValueError, match="unknown node"):
        gd.Multigraph(["o", "d"], [("e1", "o", "z")])
    with pytest.raises(ValueError, match="self-loop"):
        gd.Multigraph(["o", "d"], [("e1", "o", "o")])


def test_out_links_sorted_by_id():
    g = gd.Multigraph(["o", "d"], [("e9", "o", "d"), ("e1", "o", "d")])
    assert [l.id for l in g.out_links("o")] == ["e1", "e9"]


def test_enumerate_routes_diamond_lexicographic():
    rs = gd.enumerate_routes(diamond_graph(), "o", "d")
    assert rs.routes == (("e1", "e3", "e5"), ("e1", "e4"), ("e2", "e5"))
    assert rs.names == ("r1", "r2", "r3")
    assert rs.node_seqs[0] == ("o", "a", "b", "d")
    assert rs.index_of(("e1", "e4")) == 1
    with pytest.raises(KeyError):
        rs.index_of(("e1", "e5"))
    expected_incidence = np.array([[1, 1, 0],
                                   [0, 0, 1],
                                   [1, 0, 0],
                                   [0, 1, 0],
                                   [1, 0, 1]], dtype=float)
    np.testing.assert_array_equal(rs.incidence, expected_incidence)


def test_enumerate_routes_errors():
    g = diamond_graph()
    with pytest.raises(gd.RouteError, match="unknown origin"):
        gd.enumerate_routes(g, "z", "d")
    with pytest.raises(gd.RouteError, match="unknown destination"):
        gd.enumerate_routes(g, "o", "z")
    with pytest.raises(gd.RouteError, match="moves|equals"):
        gd.enumerate_routes(g, "o", "o")
    g2 = gd.Multigraph(["o", "d", "island"], [("e1", "o", "d")])
    with pytest.raises(gd.RouteError, match="not reachable"):
        gd.enumerate_routes(g2, "o", "island")


def test_route_guard_aborts_explosion(monkeypatch):
    monkeypatch.setattr(routing, "ROUTE_GUARD", 2)
    with pytest.raises(gd.RouteError, match="more than 2 routes"):
        gd.enumerate_routes(diamond_graph(), "o", "d")


# ---------------------------------------------------------------------------
# Link costs


def test_link_cost_matrix_rejects_decreasing_curve():
    with pytest.raises(ValueError, match=r"e1.*p2"):
        LinkCostMatrix(("e1",), ("p1", "p2"), [[AFF(1, 0), AFF(-1, 5)]])


def test_link_cost_matrix_shape_check():
    with pytest.raises(ValueError, match="grid"):
        LinkCostMatrix(("e1", "e2"), ("p1",), [[AFF(1, 0)]])


def test_tolls_scenario_shifts_by_population_sensitivity():
    # tolls.scn: common curves y on e1 and e2, omega = (0, 1), alpha = (1, 2)
    _, rg = get_scenario("tolls").build_game()
    lc = rg.game.costs.curves
    assert lc.fns[1][0](0.5) == pytest.approx(1.5)     # tau + 1 * 1
    assert lc.fns[1][1](0.5) == pytest.approx(2.5)     # tau + 2 * 1
    assert lc.fns[0][0](0.5) == pytest.approx(0.5)     # no toll on e1
    np.testing.assert_array_equal(lc.offsets(np.ones((2, 2), dtype=bool)),
                                  [[0.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# Topology classification


@pytest.mark.parametrize("name,kind,n_stages", [
    ("pigou", "parallel", 1),
    ("parallel3", "parallel", 1),
    ("homogeneous", "parallel", 1),
    ("series2", "series_of_parallel", 2),
    ("wheatstone", "other", 0),
    ("tolls", "parallel", 1),
    ("constant", None, None),
    ("coordination", None, None),
])
def test_classify_topology_bundled(name, kind, n_stages):
    game, rg = get_scenario(name).build_game()
    if rg is None:
        # explicit costs are per-action curves: aggregate by construction
        assert kind is None and game.costs.per_action_aggregate
        return
    assert rg.topology.kind == kind
    assert rg.topology.n_stages == n_stages
    # the aggregate capability is derived from the incidence, and agrees
    assert game.costs.per_action_aggregate == (kind == "parallel")
    if kind == "series_of_parallel":
        for sg in gd.stage_games(rg):
            assert sg.game.costs.per_action_aggregate == (sg.topology.kind == "parallel")


def test_series2_stage_structure():
    _, rg = get_scenario("series2").build_game()
    stages = rg.topology.stages
    assert [st.link_ids for st in stages] == [("e1", "e2"), ("e3", "e4")]
    assert stages[0].origin == "o" and stages[1].destination == "d"
    # all four combinations of stage segments appear as composite routes
    assert rg.route_set.n_routes == 4


def test_incomplete_route_set_is_not_series():
    _, rg = get_scenario("series2").build_game()
    rs = rg.route_set
    partial = gd.RouteSet(origin=rs.origin, destination=rs.destination,
                          routes=rs.routes[:3], names=rs.names[:3],
                          link_ids=rs.link_ids,
                          incidence=rs.incidence[:, :3],
                          node_seqs=rs.node_seqs[:3])
    topo = gd.classify_topology(partial)
    assert topo.kind == "other"


def test_a_link_shared_by_two_segments_is_not_series():
    # cut at m, the route set is the full product {(e1,e2), (e1,e3,e4), (e5)}
    # x {(e6), (e7)}, but e1 lies on two first-stage segments
    graph = gd.Multigraph(
        ["o", "a", "b", "m", "d"],
        [("e1", "o", "a"), ("e2", "a", "m"), ("e3", "a", "b"), ("e4", "b", "m"),
         ("e5", "o", "m"), ("e6", "m", "d"), ("e7", "m", "d")])
    rs = gd.enumerate_routes(graph, "o", "d")
    assert rs.n_routes == 6
    assert gd.classify_topology(rs).kind == "other"


# ---------------------------------------------------------------------------
# Routing games


def test_build_routing_game_checks_id_order():
    graph = gd.Multigraph(["o", "d"], [("e1", "o", "d"), ("e2", "o", "d")])
    costs = LinkCostMatrix(("e2", "e1"), ("p1",), [[AFF(1, 0)], [AFF(1, 0)]])
    with pytest.raises(ValueError):
        gd.build_routing_game(graph, "o", "d", costs, ("p1",), np.array([1.0]))


def test_link_flow():
    _, rg = get_scenario("wheatstone").build_game()
    x = gd.uniform_configuration(rg.game)
    w = x.sum(axis=1)
    y = gd.link_flow(rg.route_set, x)
    np.testing.assert_allclose(y, rg.route_set.incidence @ w, atol=1e-12)
    # a stack of configurations maps slice by slice, bit for bit
    X = gd.integrate(rg.game, 0.5, x, 1.0, 0.1).states
    np.testing.assert_array_equal(gd.link_flow(rg.route_set, X),
                                  [gd.link_flow(rg.route_set, s) for s in X])


def test_equilibrium_flow_witness_pigou():
    _, rg = get_scenario("pigou").build_game()
    x = np.array([[1.0], [0.0]])
    assert gd.classify_equilibrium(rg.game, x).is_nash
    np.testing.assert_allclose(gd.link_flow(rg.route_set, x), [1.0, 0.0])
    assert not gd.classify_equilibrium(rg.game, np.array([[0.5], [0.5]])).is_nash


# ---------------------------------------------------------------------------
# Series compositions


def test_stage_games_and_marginals():
    _, rg = get_scenario("series2").build_game()
    stages = gd.stage_games(rg)
    assert len(stages) == 2
    assert stages[0].route_set.routes == (("e1",), ("e2",))
    x = gd.uniform_configuration(rg.game)
    x1 = marginal_stage_configuration(rg, 0, x)
    np.testing.assert_allclose(x1, 0.5 * np.ones((2, 2)), atol=1e-12)


def test_stage_games_needs_series():
    _, rg = get_scenario("pigou").build_game()
    with pytest.raises(gd.CapabilityError, match="series"):
        gd.stage_games(rg)


def test_decoupled_check_logit_factorizes(rng):
    _, rg = get_scenario("series2").build_game()
    ok, max_error = gd.decoupled_check(0.5, rg, rng=rng)
    assert ok
    assert max_error <= 1e-10


def test_decoupled_check_flags_coupled_kernel(rng, monkeypatch):
    # inverse-cost weights do not factor over stage sums
    def inverse_cost(game, x, eta):
        c = gd.evaluate_costs(game, x)
        wts = np.where(game.mask, 1.0 / (1.0 + np.maximum(c, 0.0)), 0.0)
        return game.masses * wts / wts.sum(axis=-2, keepdims=True)

    monkeypatch.setattr(routing, "logit_map", inverse_cost)
    _, rg = get_scenario("series2").build_game()
    ok, max_error = gd.decoupled_check(0.5, rg, rng=rng)
    assert not ok
    assert max_error > 1e-3


def decoupled_check_per_sample(eta, rgame, rng):
    """The check one sample at a time, an oracle for its stacked form."""
    stages = gd.stage_games(rgame)
    game = rgame.game
    worst = 0.0
    for _ in range(20):
        x = gd.sample_configuration(game, rng)
        H = gd.logit_map(game, x, eta)
        stage_targets = [gd.logit_map(sg.game, marginal_stage_configuration(rgame, k, x), eta)
                         for k, sg in enumerate(stages)]
        for r, idxs in enumerate(rgame.topology.route_stage_segments):
            for p in game.active_populations:
                pred = 1.0
                for k in range(len(stages)):
                    pred *= stage_targets[k][idxs[k], p]
                pred /= game.masses[p] ** (len(stages) - 1)
                worst = max(worst, abs(H[r, p] - pred))
    return bool(worst <= 1e-10), float(worst)


def test_decoupled_check_equals_the_per_sample_loop():
    # series2, and generated series of 2-4 stages whose masses (one of them
    # zero) are not powers of two
    gen = np.random.default_rng(8)
    games = [get_scenario("series2").build_game()[1]]
    games += [random_series_game(gen, masses) for masses in [(0.7, 1.3), (0.0, 2.9)] * 5]
    for rg in games:
        for seed in range(3):
            for eta in (0.05, 0.5, 3.0):
                got, want = np.random.default_rng(seed), np.random.default_rng(seed)
                assert gd.decoupled_check(eta, rg, rng=got) == \
                    decoupled_check_per_sample(eta, rg, want)
                assert got.bit_generator.state == want.bit_generator.state


def test_marginal_stage_configuration_of_a_stack_is_per_slice(rng):
    _, rg = get_scenario("series2").build_game()
    X = gd.sample_configurations(rg.game, rng, 5)
    for k in range(rg.topology.n_stages):
        assert np.array_equal(marginal_stage_configuration(rg, k, X),
                              [marginal_stage_configuration(rg, k, x) for x in X])


def test_series_restriction_equivalence_small_horizon():
    _, rg = get_scenario("series2").build_game()
    x0 = gd.uniform_configuration(rg.game)
    gap = gd.series_restriction_equivalence(rg, 0.5, x0, 5.0, 0.01)
    assert gap <= 1e-9


def test_single_route_stage_flow_is_constant():
    rg = single_exit_series_game()
    assert rg.topology.kind == "series_of_parallel"
    x0 = gd.uniform_configuration(rg.game)
    traj = gd.integrate(rg.game, 0.5, x0, 5.0, 0.01)
    y = gd.link_flow(rg.route_set, traj.states)
    e3 = rg.route_set.link_ids.index("e3")
    # every unit of mass crosses the mandatory link at all times
    np.testing.assert_allclose(y[:, e3], 2.0, atol=1e-12)
    gap = gd.series_restriction_equivalence(rg, 0.5, x0, 5.0, 0.01)
    assert gap <= 1e-9


def random_series_game(rng, masses=(1.0, 2.0)):
    """A series of 2-4 parallel stages of 1-3 segments of 1-3 links each,
    with at least two routes, for populations p1, p2 of the given masses;
    link ids are shuffled, so their lexicographic order is not the order of
    construction."""
    while True:
        shapes = [rng.integers(1, 4, size=rng.integers(1, 4))
                  for _ in range(rng.integers(2, 5))]
        if any(len(s) > 1 for s in shapes):
            break
    ids = iter(f"L{k}" for k in rng.permutation(sum(int(s.sum()) for s in shapes)))
    cuts = [f"c{k}" for k in range(len(shapes) + 1)]
    nodes, links = list(cuts), []
    for k, segs in enumerate(shapes):
        for length in segs:
            inner = [f"m{len(nodes) + j}" for j in range(length - 1)]
            nodes += inner
            path = [cuts[k], *inner, cuts[k + 1]]
            links += [(next(ids), a, b) for a, b in zip(path, path[1:])]
    graph = gd.Multigraph(nodes, links)
    costs = LinkCostMatrix(graph.link_ids, ("p1", "p2"),
                           [[AFF(1, 0), AFF(2, 1)]] * len(links))
    return gd.build_routing_game(graph, cuts[0], cuts[-1], costs, ("p1", "p2"),
                                 np.array(masses))


def test_stage_order_and_marginals_on_generated_series_networks():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        rg = random_series_game(rng)
        assert rg.topology.kind == "series_of_parallel"
        x = gd.sample_configuration(rg.game, rng)
        for k, (sg, st) in enumerate(zip(gd.stage_games(rg), rg.topology.stages)):
            assert sg.route_set.routes == st.segments
            # the marginal by route lookup, as it was summed before the
            # decomposition fixed the stage order
            want = np.zeros((sg.game.n_actions, sg.game.n_pops))
            for r, idxs in enumerate(rg.topology.route_stage_segments):
                want[sg.route_set.index_of(st.segments[idxs[k]])] += x[r]
            assert np.array_equal(marginal_stage_configuration(rg, k, x), want)


def recursive_routes(graph, origin, destination):
    """Node-simple routes by plain recursion, as an oracle for enumerate_routes."""
    out = []

    def walk(node, links, seen):
        for l in graph.out_links(node):
            if l.head == destination:
                out.append((links + (l.id,), seen + (destination,)))
            elif l.head not in seen:
                walk(l.head, links + (l.id,), seen + (l.head,))

    walk(origin, (), (origin,))
    return out


def test_enumerate_routes_matches_recursion_on_random_multigraphs():
    rng = np.random.default_rng(7)
    for _ in range(150):
        nodes = [f"n{k}" for k in range(rng.integers(2, 7))]
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        picks = rng.integers(0, len(pairs), size=rng.integers(1, 14))
        graph = gd.Multigraph(nodes, [(f"e{j}", *pairs[p]) for j, p in enumerate(picks)])
        want = recursive_routes(graph, nodes[0], nodes[-1])
        if not want:
            with pytest.raises(gd.RouteError, match="not reachable"):
                gd.enumerate_routes(graph, nodes[0], nodes[-1])
            continue
        rs = gd.enumerate_routes(graph, nodes[0], nodes[-1])
        assert list(zip(rs.routes, rs.node_seqs)) == want


def test_enumerate_routes_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    nodes = [f"n{k}" for k in range(n)]
    graph = gd.Multigraph(nodes, [(f"e{k}", a, b) for k, (a, b)
                                  in enumerate(zip(nodes, nodes[1:]))])
    rs = gd.enumerate_routes(graph, nodes[0], nodes[-1])
    assert rs.node_seqs == (tuple(nodes),)
