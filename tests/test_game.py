"""Cost curves, configuration handling, and equilibrium classification."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import gamedyn as gd
from gamedyn.game import NASH_TOL, central_difference

from conftest import ALL_SCENARIOS, CallableCostField, explicit_costs, get_scenario, wide_game


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
                             costs=explicit_costs(fns))


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
                          costs=explicit_costs([[aff], [aff]]))
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


def test_rescale_to_masses_scales_each_column_of_a_stack(rng):
    # wide_game's p2 has zero mass, so its column comes out zero whatever it
    # held; an all-zero column of a population with mass stays zero too
    g = wide_game()
    X = rng.uniform(0.0, 1.0, (4, 6, 3)) * g.mask
    X[1, :, 0] = 0.0
    Y = gd.rescale_to_masses(g, X)
    for x, y in zip(X, Y):
        np.testing.assert_array_equal(gd.rescale_to_masses(g, x), y)
    assert not Y[:, :, 1].any() and not Y[1, :, 0].any()
    np.testing.assert_allclose(Y[[0, 2, 3]].sum(axis=1)[:, [0, 2]],
                               np.broadcast_to(g.masses[[0, 2]], (3, 2)), rtol=1e-14)
    # the uniform configuration, the rescale of the mask, splits each mass evenly
    x = gd.uniform_configuration(g)
    for p in range(g.n_pops):
        expect = np.where(g.mask[:, p], g.masses[p] / len(g.action_set(p)), 0.0)
        np.testing.assert_array_equal(x[:, p], expect)


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
    bad = CallableCostField(lambda x: np.array([[np.nan], [1.0]]))
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
    return dataclasses.replace(g, costs=CallableCostField(g.costs, g.mask, g.masses))


STACK_GAMES = {
    "affine": lambda: get_scenario("parallel3").build_game()[0],
    "affine-aggregate": lambda: make_game(
        [[gd.ScalarFn.affine(1.0, 0.0), gd.ScalarFn.affine(2.0, 0.5)],
         [gd.ScalarFn.affine(0.5, 1.0), gd.ScalarFn.constant(0.0)],
         [gd.ScalarFn.constant(1.5)] * 2],
        masses=(1.0, 2.0), mask=[[True, True], [True, False], [True, True]]),
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
    X = stack_of_starts(g)
    C = gd.evaluate_costs(g, X)
    assert C.shape == X.shape
    for x, c in zip(X, C):
        assert np.array_equal(c, gd.evaluate_costs(g, x))
    assert np.array_equal(gd.evaluate_costs(g, X.reshape((1,) + X.shape))[0], C)


@pytest.mark.parametrize("kind", STACK_GAMES)
def test_costs_take_nested_lists_and_int_arrays(kind):
    # evaluate_costs and a direct call of the field alike
    g = STACK_GAMES[kind]()
    ints = np.random.default_rng(5).integers(0, 3, size=(4,) + g.mask.shape)
    for evaluate in (lambda x: gd.evaluate_costs(g, x), g.costs):
        want = evaluate(ints.astype(float))
        for X in (ints, ints.tolist(), ints.astype(float).tolist()):
            assert np.array_equal(evaluate(X), want)
        for x, c in zip(ints, want):
            assert np.array_equal(evaluate(x), c)
            assert np.array_equal(evaluate(x.tolist()), c)


def stack_of_starts(g):
    rng = np.random.default_rng(4)
    return np.stack([gd.sample_configuration(g, rng) for _ in range(6)]
                    + [gd.uniform_configuration(g)] + gd.monomorphic_vertices(g))


@pytest.mark.parametrize("kind", STACK_GAMES)
def test_cost_jacobian_on_a_stack_equals_each_slice(kind):
    g = STACK_GAMES[kind]()
    X = stack_of_starts(g)
    D = gd.cost_jacobian(g, X)
    assert D.shape == X.shape + g.mask.shape
    for x, d in zip(X, D):
        assert np.array_equal(d, gd.cost_jacobian(g, x))
    assert np.array_equal(gd.cost_jacobian(g, X[:6].reshape((2, 3) + g.mask.shape)),
                          D[:6].reshape((2, 3) + D.shape[1:]))


@pytest.mark.parametrize("kind", ["table", "table-routing"])
def test_curve_grid_slopes_on_a_stack_equal_each_slice(kind):
    # flows below, inside, on and above the breakpoints of TAB
    grid = STACK_GAMES[kind]().costs.curves
    rows = len(grid.fns)
    Y = np.stack([np.full(rows, v) for v in (-0.3, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2)]
                 + [np.linspace(0.0, 1.0, rows)])
    T = grid.slopes(Y)
    assert T.shape == Y.shape + (len(grid.fns[0]),)
    for y, t in zip(Y, T):
        assert np.array_equal(t, grid.slopes(y))
    first, last = 2.0 / (0.5 - 0.2), 0.5 / (0.8 - 0.5)     # extrapolated edge slopes
    np.testing.assert_array_equal(T[[0, 1, -2], 0, 0], [first, first, last])


def test_evaluate_costs_on_a_stack_names_a_bad_entry_of_one_slice():
    def costs(x):
        c = np.array([[1.0, 2.0], [3.0, 4.0]]) * x.sum()
        if x[0, 0] > 0.9:
            c[1, 0] = np.inf
        return c

    g = gd.PopulationGame(populations=("p1", "p2"), masses=np.array([1.0, 1.0]),
                          actions=("a1", "a2"), mask=np.ones((2, 2), dtype=bool),
                          costs=CallableCostField(costs))
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
    bad = CallableCostField(lambda x: np.zeros(3))
    g = gd.PopulationGame(populations=("p1",), masses=np.array([1.0]),
                          actions=("a1", "a2"), mask=np.ones((2, 1), dtype=bool),
                          costs=bad)
    with pytest.raises(gd.CostEvalError, match="shape"):
        gd.evaluate_costs(g, gd.uniform_configuration(g))


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


@pytest.mark.parametrize("bad, message", [
    (np.array([[-0.2], [1.2]]), r"negative mass .* at \(r1, p1\) in start 3$"),
    (np.array([[np.inf], [1.0]]), r"non-finite mass inf at \(r1, p1\) in start 3$"),
    (np.array([[0.6], [0.6]]), r"column sum .* for p1 in start 3$")])
def test_validate_configuration_names_the_first_bad_start_of_a_stack(bad, message):
    g, _ = get_scenario("pigou").build_game()
    X = np.stack([gd.uniform_configuration(g)] * 7)
    assert gd.validate_configuration(g, X) is X
    X[3], X[5] = bad, [[np.nan], [1.0]]
    with pytest.raises(gd.ConfigurationError, match=message):
        gd.validate_configuration(g, X)
    with pytest.raises(gd.ConfigurationError, match=r"in start \(1, 0\)$"):
        gd.validate_configuration(g, X[1:].reshape((3, 2) + g.mask.shape))
    with pytest.raises(gd.ConfigurationError, match="shape"):
        gd.validate_configuration(g, np.zeros((4, 3, 1)))


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


def one_draw_per_population(g, rng):
    """Uniform configuration from one exponential draw per population."""
    x = np.zeros(g.mask.shape)
    for p in range(g.n_pops):
        s = g.action_set(p)
        e = rng.exponential(size=len(s))
        x[s, p] = g.masses[p] * e / e.sum()
    return x


@pytest.mark.parametrize("name", ALL_SCENARIOS + ("wide",))
def test_sample_configurations_equal_single_draws(name):
    # one call for n draws uses the rng as n single draws do, and as one
    # exponential draw per population does, and leaves it in the same state
    g = wide_game() if name == "wide" else get_scenario(name).build_game()[0]
    many_rng, one_rng, oracle_rng = (np.random.default_rng(17) for _ in range(3))
    many = gd.sample_configurations(g, many_rng, 9)
    assert many.shape == (9,) + g.mask.shape
    assert np.array_equal(many, [gd.sample_configuration(g, one_rng) for _ in range(9)])
    assert np.array_equal(many, [one_draw_per_population(g, oracle_rng) for _ in range(9)])
    assert many_rng.random() == one_rng.random() == oracle_rng.random()


RNG_CALLERS = {
    "sample_configurations": lambda g, rg, rng: gd.sample_configurations(g, rng, 3),
    "bifurcation_scan": lambda g, rg, rng: gd.bifurcation_scan(g, [1.0, 0.5], rng=rng),
    "contraction_margin": lambda g, rg, rng: gd.contraction_margin(g, 1.0, rng=rng),
    "high_noise_threshold": lambda g, rg, rng: gd.high_noise_threshold(g, rng=rng),
    "exact_target_check": lambda g, rg, rng: gd.exact_target_check(0.5, g, rng=rng),
    "monotonicity_check": lambda g, rg, rng: gd.monotonicity_check(0.5, g, rng=rng),
    "potential_symmetry_check": lambda g, rg, rng: gd.potential_symmetry_check(g, rng=rng),
    "decoupled_check": lambda g, rg, rng: gd.decoupled_check(0.5, rg, rng=rng),
}


@pytest.mark.parametrize("call", RNG_CALLERS.values(), ids=RNG_CALLERS)
@pytest.mark.parametrize("rng", [5, np.random.RandomState(0)], ids=["int", "RandomState"])
def test_sampling_callers_name_an_rng_that_is_no_generator(call, rng):
    # before any draw; an int used to die as "'int' object has no attribute
    # 'exponential'", and a legacy RandomState drew other starts
    g, rg = get_scenario("series2").build_game()
    with pytest.raises(TypeError, match=f"^rng must be a numpy.random.Generator, "
                                        f"got {type(rng).__name__}$"):
        call(g, rg, rng)


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


def test_vertex_configuration_needs_one_action_per_population():
    g, _ = get_scenario("parallel3").build_game()
    for ids in (["r1"], ["r1", "r2", "r3"]):
        with pytest.raises(gd.ConfigurationError,
                           match=rf"one action per population \(2\), got {len(ids)}"):
            gd.vertex_configuration(g, ids)


# ---------------------------------------------------------------------------
# Equilibrium classification


def test_coordination_vertices_are_strict():
    g, _ = get_scenario("coordination").build_game()
    rep = gd.classify_equilibrium(g, gd.vertex_configuration(g, "a1"))
    assert rep.is_nash and rep.is_strict and rep.is_monomorphic
    assert rep.cost_gap_alpha == pytest.approx(1.0)
    assert rep.violations == ()


def test_coordination_mixed_point_is_nash_not_strict():
    g, _ = get_scenario("coordination").build_game()
    rep = gd.classify_equilibrium(g, np.array([[0.5], [0.5]]))
    assert rep.is_nash and not rep.is_strict


def test_pigou_vertex_ties_are_not_strict():
    g, _ = get_scenario("pigou").build_game()
    rep = gd.classify_equilibrium(g, gd.vertex_configuration(g, "r1"))
    assert rep.is_nash and not rep.is_strict       # c_r1 = c_r2 = 1 at w1 = 1


def test_classification_tolerance_edge():
    # pigou at (1 - d, d): r1 costs 1 - d and r2 costs 1, so r2 counts as used,
    # d above the best, once d > NASH_TOL; the strict gap is d
    assert NASH_TOL == 1e-8
    g, _ = get_scenario("pigou").build_game()
    rep = gd.classify_equilibrium(g, np.array([[1 - 2e-8], [2e-8]]))
    assert not rep.is_nash
    (_, worse, _, gap), = rep.violations
    assert worse == "r2" and gap == pytest.approx(2e-8, rel=1e-6)
    rep = gd.classify_equilibrium(g, np.array([[1 - 5e-9], [5e-9]]))
    assert rep.is_nash and rep.is_monomorphic and not rep.is_strict


def test_nonequilibrium_reports_violation():
    g, _ = get_scenario("pigou").build_game()
    rep = gd.classify_equilibrium(g, np.array([[0.25], [0.75]]))
    assert not rep.is_nash
    (pop, worse, better, gap), = rep.violations
    assert (pop, worse, better) == ("p1", "r2", "r1")
    assert gap == pytest.approx(0.75)               # r2 costs 1, r1 costs 0.25


# ---------------------------------------------------------------------------
# Cost-field differentiation


def test_cost_jacobian_analytic_matches_fd(rng):
    for name in ALL_SCENARIOS:
        g, _ = get_scenario(name).build_game()
        x = gd.sample_configuration(g, rng)
        D = gd.cost_jacobian(g, x)
        # the same costs behind a callable field, whose partials are differences
        D_fd = gd.cost_jacobian(callable_copy(g), x)
        np.testing.assert_allclose(D, D_fd, atol=1e-6, err_msg=name)


def test_callable_cost_field_partials_are_finite_differences(rng):
    # the wrapped field is pigou's: c = (w1, 1), so dc_1/dx_1 = 1, all else 0
    field = CallableCostField(
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
    field = CallableCostField(
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
