"""Cost curves, configuration handling, and equilibrium classification."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import gamedyn as gd
from gamedyn.game import central_difference

from conftest import ALL_SCENARIOS, get_scenario


def make_game(fns, masses=(1.0,), mask=None, actions=None):
    """Small helper: aggregate-cost game with one curve per (action, pop)."""
    S = len(fns)
    P = len(masses)
    if actions is None:
        actions = tuple(f"a{i + 1}" for i in range(S))
    if mask is None:
        mask = np.ones((S, P), dtype=bool)
    return gd.PopulationGame(populations=tuple(f"p{q + 1}" for q in range(P)),
                             masses=np.asarray(masses, dtype=float),
                             actions=actions, mask=np.asarray(mask, dtype=bool),
                             costs=gd.AggregateCostField(fns))


# ---------------------------------------------------------------------------
# ScalarFn


def test_affine_eval_deriv_integral():
    f = gd.ScalarFn.affine(2.0, 1.0)
    assert f(0.5) == 2.0
    assert f.deriv(10.0) == 2.0
    assert f.integral(3.0) == pytest.approx(0.5 * 2.0 * 9 + 3.0)
    assert f.is_nondecreasing()
    g = f.shifted(0.25)
    assert g(0.5) == 2.25
    assert not gd.ScalarFn.affine(-1.0, 5.0).is_nondecreasing()


def test_constant_curve():
    f = gd.ScalarFn.constant(4.0)
    assert f(123.0) == 4.0
    assert f.deriv(0.0) == 0.0
    assert f.integral(2.0) == 8.0


def test_table_interpolation_and_edge_extrapolation():
    f = gd.ScalarFn.table([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    assert f(0.25) == pytest.approx(0.25)
    assert f(1.5) == pytest.approx(1.0)
    # beyond the last knot the edge slope (here zero) extends the curve
    assert f(5.0) == pytest.approx(1.0)
    # below the first knot the first segment's slope extends it
    assert f(-1.0) == pytest.approx(-1.0)
    assert f.deriv(0.5) == pytest.approx(1.0)
    assert f.deriv(1.5) == pytest.approx(0.0)
    assert f.is_nondecreasing()
    assert not gd.ScalarFn.table([(0.0, 1.0), (1.0, 0.0)]).is_nondecreasing()


@pytest.mark.parametrize("y", [0.7, 1.5, 2.0, 3.2])
def test_table_integral_matches_quadrature(y):
    f = gd.ScalarFn.table([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)])
    ref, _ = quad(f, 0.0, y)
    assert f.integral(y) == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# PopulationGame construction


def test_game_shape_validation():
    aff = gd.ScalarFn.affine(1.0, 0.0)
    with pytest.raises(ValueError, match="masses"):
        gd.PopulationGame(populations=("p1",), masses=np.array([1.0, 2.0]),
                          actions=("a", "b"), mask=np.ones((2, 1), dtype=bool),
                          costs=gd.AggregateCostField([[aff], [aff]]))
    with pytest.raises(ValueError, match="mask"):
        make_game([[aff], [aff]], mask=np.ones((3, 1), dtype=bool))
    with pytest.raises(ValueError, match="nonnegative"):
        make_game([[aff], [aff]], masses=(-1.0,))
    with pytest.raises(ValueError, match="unique"):
        make_game([[aff], [aff]], actions=("a", "a"))
    # a population with an all-False mask column has no actions
    with pytest.raises(ValueError, match="action set"):
        make_game([[aff, aff], [aff, aff]], masses=(1.0, 1.0),
                  mask=[[True, False], [True, False]])


def test_game_index_helpers():
    g, _ = get_scenario("parallel3").build_game()
    assert g.n_actions == 3 and g.n_pops == 2
    assert g.action_index("r2") == 1
    assert g.population_index("p2") == 1
    assert g.total_mass() == pytest.approx(3.0)
    np.testing.assert_array_equal(g.action_set(0), [0, 1, 2])
    # pairs are population-major
    assert g.valid_pairs[:3] == ((0, 0), (1, 0), (2, 0))


def test_mask_restricts_action_sets():
    aff = gd.ScalarFn.affine(1.0, 0.0)
    g = make_game([[aff, aff], [aff, aff]], masses=(1.0, 2.0),
                  mask=[[True, False], [True, True]])
    np.testing.assert_array_equal(g.action_set(1), [1])
    x = gd.uniform_configuration(g)
    assert x[0, 1] == 0.0 and x[1, 1] == 2.0


# ---------------------------------------------------------------------------
# Cost evaluation


def test_evaluate_costs_matches_curves():
    g, _ = get_scenario("parallel3").build_game()
    x = gd.uniform_configuration(g)
    w = x.sum(axis=1)
    c = gd.evaluate_costs(g, x)
    assert c[0, 0] == pytest.approx(1.0 * w[0])
    assert c[0, 1] == pytest.approx(2.0 * w[0])
    assert c[2, 0] == 3.0 and c[2, 1] == 3.0


def test_evaluate_costs_flags_nonfinite():
    bad = gd.CallableCostField(lambda x: np.array([[np.nan], [1.0]]))
    g = gd.PopulationGame(populations=("p1",), masses=np.array([1.0]),
                          actions=("a1", "a2"), mask=np.ones((2, 1), dtype=bool),
                          costs=bad)
    with pytest.raises(gd.CostEvalError, match=r"a1.*p1"):
        gd.evaluate_costs(g, gd.uniform_configuration(g))


TAB = gd.ScalarFn.table([(0.2, 1.0), (0.5, 3.0), (0.8, 3.5)])


def table_routing_game():
    graph = gd.Multigraph(["o", "a", "b", "d"],
                          [("e1", "o", "a"), ("e2", "o", "b"), ("e3", "a", "b"),
                           ("e4", "a", "d"), ("e5", "b", "d")])
    aff = gd.ScalarFn.affine(1.0, 0.5)
    costs = gd.LinkCostMatrix(("e1", "e2", "e3", "e4", "e5"), ("p1", "p2"),
                              [[TAB, aff], [aff, TAB], [TAB, TAB], [aff, aff], [TAB, aff]])
    return gd.build_routing_game(graph, "o", "d", costs, ("p1", "p2"),
                                 np.array([1.0, 0.5])).game


def callable_copy(g):
    return dataclasses.replace(g, costs=gd.CallableCostField(g.costs))


STACK_GAMES = {
    "affine": lambda: get_scenario("parallel3").build_game()[0],
    # flows fall below, inside and above the table's breakpoints
    "table": lambda: make_game([[TAB, gd.ScalarFn.affine(2.0, 0.1)], [TAB, TAB],
                                [gd.ScalarFn.constant(1.5), TAB]], masses=(1.0, 0.5)),
    "pigou": lambda: get_scenario("pigou").build_game()[0],
    "wheatstone": lambda: get_scenario("wheatstone").build_game()[0],
    "table-routing": table_routing_game,
    "callable": lambda: callable_copy(get_scenario("wheatstone").build_game()[0]),
}


@pytest.mark.parametrize("kind", STACK_GAMES)
def test_evaluate_costs_on_a_stack_equals_each_slice(kind):
    g = STACK_GAMES[kind]()
    rng = np.random.default_rng(4)
    X = np.stack([gd.sample_configuration(g, rng) for _ in range(6)]
                 + [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g))
    C = gd.evaluate_costs(g, X)
    assert C.shape == X.shape
    for x, c in zip(X, C):
        assert np.array_equal(c, gd.evaluate_costs(g, x))
    assert np.array_equal(gd.evaluate_costs(g, X.reshape((1,) + X.shape))[0], C)


def test_evaluate_costs_on_a_stack_names_a_bad_entry_of_one_slice():
    def costs(x):
        c = np.array([[1.0, 2.0], [3.0, 4.0]]) * x.sum()
        if x[0, 0] > 0.9:
            c[1, 0] = np.inf
        return c

    g = gd.PopulationGame(populations=("p1", "p2"), masses=np.array([1.0, 1.0]),
                          actions=("a1", "a2"), mask=np.ones((2, 2), dtype=bool),
                          costs=gd.CallableCostField(costs))
    X = np.stack([gd.uniform_configuration(g), gd.vertex_configuration(g, "a2"),
                  gd.vertex_configuration(g, "a1")])
    assert np.all(np.isfinite(gd.evaluate_costs(g, X[:2])))
    with pytest.raises(gd.CostEvalError, match="action 'a2', population 'p1'"):
        gd.evaluate_costs(g, X)
    # the affine fast path overflows in one slice only
    big = make_game([[gd.ScalarFn.affine(1e308, 0.0)], [gd.ScalarFn.affine(1.0, 0.0)]],
                    masses=(10.0,))
    X = np.stack([gd.vertex_configuration(big, "a2"), gd.uniform_configuration(big)])
    with np.errstate(over="ignore"), pytest.raises(
            gd.CostEvalError, match="action 'a1', population 'p1'"):
        gd.evaluate_costs(big, X)


def test_evaluate_costs_flags_bad_shape():
    bad = gd.CallableCostField(lambda x: np.zeros(3))
    g = gd.PopulationGame(populations=("p1",), masses=np.array([1.0]),
                          actions=("a1", "a2"), mask=np.ones((2, 1), dtype=bool),
                          costs=bad)
    with pytest.raises(gd.CostEvalError, match="shape"):
        gd.evaluate_costs(g, gd.uniform_configuration(g))


def test_aggregate_cost_capability_gate():
    field = gd.CallableCostField(lambda x: x.sum(axis=1, keepdims=True))
    with pytest.raises(gd.CapabilityError):
        field.aggregate_cost(np.array([1.0]))


# ---------------------------------------------------------------------------
# Configurations


def test_validate_configuration_errors_name_entries():
    g, _ = get_scenario("pigou").build_game()
    with pytest.raises(gd.ConfigurationError, match="shape"):
        gd.validate_configuration(g, np.zeros(2))
    with pytest.raises(gd.ConfigurationError, match=r"negative.*r1.*p1"):
        gd.validate_configuration(g, np.array([[-0.2], [1.2]]))
    with pytest.raises(gd.ConfigurationError, match="column sum"):
        gd.validate_configuration(g, np.array([[0.6], [0.6]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_configuration_rejects_non_finite_entries(bad):
    g, _ = get_scenario("pigou").build_game()
    with pytest.raises(gd.ConfigurationError, match=r"non-finite.*r1.*p1"):
        gd.validate_configuration(g, np.array([[bad], [1.0]]))


def test_validate_configuration_support_check():
    aff = gd.ScalarFn.affine(1.0, 0.0)
    g = make_game([[aff, aff], [aff, aff]], masses=(1.0, 1.0),
                  mask=[[True, False], [True, True]])
    x = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(gd.ConfigurationError, match="unavailable"):
        gd.validate_configuration(g, x)


def test_validate_configuration_tolerance_scales_with_mass():
    g, _ = get_scenario("wheatstone").build_game()   # masses 1 and 3
    x = gd.uniform_configuration(g)
    x[0, 1] += 2e-9    # within 1e-9 * max(1, 3)
    gd.validate_configuration(g, x)
    x[0, 1] += 1e-7
    with pytest.raises(gd.ConfigurationError):
        gd.validate_configuration(g, x)


def test_sample_configuration_is_feasible(rng):
    g, _ = get_scenario("wheatstone").build_game()
    for _ in range(25):
        x = gd.sample_configuration(g, rng)
        gd.validate_configuration(g, x)
        assert x.min() >= 0.0


def test_vertex_and_monomorphic_enumeration():
    g, _ = get_scenario("parallel3").build_game()
    x = gd.vertex_configuration(g, ["r1", "r3"])
    assert x[0, 0] == 1.0 and x[2, 1] == 2.0 and x.sum() == 3.0
    verts = gd.monomorphic_vertices(g)
    assert len(verts) == 9
    uniq = {tuple(np.argmax(v, axis=0)) for v in verts}
    assert len(uniq) == 9


def test_vertex_configuration_respects_mask():
    aff = gd.ScalarFn.affine(1.0, 0.0)
    g = make_game([[aff, aff], [aff, aff]], masses=(1.0, 1.0),
                  mask=[[True, False], [True, True]])
    with pytest.raises(ValueError):
        gd.vertex_configuration(g, ["a1", "a1"])


# ---------------------------------------------------------------------------
# Equilibrium classification


def test_coordination_vertices_are_strict():
    g, _ = get_scenario("coordination").build_game()
    rep = gd.classify_equilibrium(g, gd.vertex_configuration(g, "a1"))
    assert rep.is_nash and rep.is_strict and rep.is_monomorphic
    assert rep.cost_gap_alpha == pytest.approx(1.0)
    assert rep.max_violation == 0.0


def test_coordination_mixed_point_is_nash_not_strict():
    g, _ = get_scenario("coordination").build_game()
    rep = gd.classify_equilibrium(g, np.array([[0.5], [0.5]]))
    assert rep.is_nash and not rep.is_strict


def test_pigou_vertex_ties_are_not_strict():
    g, _ = get_scenario("pigou").build_game()
    rep = gd.classify_equilibrium(g, gd.vertex_configuration(g, "r1"))
    assert rep.is_nash and not rep.is_strict       # c_r1 = c_r2 = 1 at w1 = 1


def test_nonequilibrium_reports_violation():
    g, _ = get_scenario("pigou").build_game()
    rep = gd.classify_equilibrium(g, np.array([[0.25], [0.75]]))
    assert not rep.is_nash
    assert rep.max_violation == pytest.approx(0.75)   # r2 costs 1, r1 costs 0.25
    assert any(v[0] == "p1" for v in rep.violations)


def test_best_response_sets():
    g, _ = get_scenario("pigou").build_game()
    br = gd.best_response_sets(g, np.array([[0.25], [0.75]]))
    assert br == {"p1": ["r1"]}
    br = gd.best_response_sets(g, gd.vertex_configuration(g, "r1"), tol=1e-12)
    assert br == {"p1": ["r1", "r2"]}


def test_isolation_probe_isolated_vertex(rng):
    g, _ = get_scenario("coordination").build_game()
    assert gd.isolation_probe(g, gd.vertex_configuration(g, "a1"), 0.2, rng=rng)


def test_isolation_probe_detects_continuum(rng):
    # equal constant costs: every configuration is Nash
    k = gd.ScalarFn.constant(1.0)
    g = make_game([[k], [k]])
    assert not gd.isolation_probe(g, gd.uniform_configuration(g), 0.2, rng=rng)


def test_isolation_probe_input_checks(rng):
    g, _ = get_scenario("coordination").build_game()
    with pytest.raises(ValueError, match="radius"):
        gd.isolation_probe(g, gd.vertex_configuration(g, "a1"), -1.0, rng=rng)
    with pytest.raises(ValueError, match="Nash"):
        gd.isolation_probe(g, np.array([[0.7], [0.3]]), 0.1, rng=rng)


# ---------------------------------------------------------------------------
# Cost-field differentiation


def test_cost_jacobian_analytic_matches_fd(rng):
    for name in ALL_SCENARIOS:
        g, _ = get_scenario(name).build_game()
        x = gd.sample_configuration(g, rng)
        D = gd.cost_jacobian(g, x)
        # the same costs behind a callable field, whose partials are differences
        D_fd = gd.cost_jacobian(dataclasses.replace(g, costs=gd.CallableCostField(g.costs)), x)
        np.testing.assert_allclose(D, D_fd, atol=1e-6, err_msg=name)


def test_callable_cost_field_partials_are_finite_differences(rng):
    # the wrapped field is pigou's: c = (w1, 1), so dc_1/dx_1 = 1, all else 0
    field = gd.CallableCostField(
        lambda x: np.array([[x.sum(axis=1)[0]], [1.0]]))
    g = gd.PopulationGame(populations=("p1",), masses=np.array([1.0]),
                          actions=("a1", "a2"), mask=np.ones((2, 1), dtype=bool),
                          costs=field)
    D = gd.cost_jacobian(g, gd.sample_configuration(g, rng))
    np.testing.assert_allclose(D.reshape(2, 2), [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)


def test_curve_grid_table_path_matches_curves():
    tab = gd.ScalarFn.table([(0.0, 1.0), (1.0, 3.0), (2.0, 4.0)])
    aff = gd.ScalarFn.affine(2.0, 0.5)
    grid = gd.CurveGrid([[tab, aff], [aff, tab]])
    y = np.array([0.5, 1.5])
    np.testing.assert_array_equal(grid(y), [[tab(0.5), aff(0.5)], [aff(1.5), tab(1.5)]])
    np.testing.assert_array_equal(grid.slopes(y), [[2.0, 2.0], [2.0, 1.0]])
    full = np.ones((2, 2), dtype=bool)
    assert grid.shared_integral(y, full) == tab.integral(0.5) + aff.integral(1.5)
    assert grid.offsets(full) is None
    np.testing.assert_array_equal(
        gd.CurveGrid([[tab, tab.shifted(2.0)], [aff, aff]]).offsets(full), [[0.0, 2.0], [0.0, 0.0]])
    # rows compare and integrate only the curves of populations that reach them
    one_each = np.array([[False, True], [True, False]])
    np.testing.assert_array_equal(grid.offsets(one_each), np.zeros((2, 2)))
    assert grid.shared_integral(y, one_each) == aff.integral(0.5) + aff.integral(1.5)


def test_potential_symmetry_check_symmetric_and_not(rng):
    g, _ = get_scenario("coordination").build_game()
    ok, worst = gd.potential_symmetry_check(g, rng=rng)
    assert ok and worst <= 1e-6

    # c_a1 depends on the a2 flow but not vice versa: asymmetric by one unit
    field = gd.CallableCostField(
        lambda x: np.array([[x.sum(axis=1)[1]], [0.0]]))
    g2 = gd.PopulationGame(populations=("p1",), masses=np.array([1.0]),
                           actions=("a1", "a2"), mask=np.ones((2, 1), dtype=bool),
                           costs=field)
    ok2, worst2 = gd.potential_symmetry_check(g2, rng=rng)
    assert not ok2
    assert worst2 == pytest.approx(1.0, rel=1e-4)


def test_central_difference_shape_and_zero_steps():
    calls = []

    def f(x):
        calls.append(x.copy())
        return np.array([x[0, 0] ** 2, x[0, 0] * x[1, 1], 3.0 * x[1, 0]])

    x = np.array([[1.5, 2.0], [0.5, -1.0]])
    D = central_difference(f, x, np.array([[1e-4, 0.0], [1e-4, 1e-4]]))
    assert D.shape == (3, 2, 2)
    want = np.zeros((3, 2, 2))
    want[0, 0, 0] = 3.0
    want[1, 0, 0], want[1, 1, 1] = -1.0, 1.5
    want[2, 1, 0] = 3.0
    np.testing.assert_allclose(D, want, atol=1e-8)
    assert len(calls) == 6                     # two per nonzero step, none for (0, 1)
    np.testing.assert_array_equal(central_difference(f, x, 0.0), np.zeros((3, 2, 2)))
