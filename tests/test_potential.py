"""The one potential of curve games: f_kp = f_kr + kappa_kp in every row k,
with r the row's first population that can reach it.

Oracles: central differences of V along within-population transfers must
equal the cost differences, and V must exist exactly where the finite-
difference symmetry test passes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gamedyn as gd

from conftest import ALL_SCENARIOS, CallableCostField, get_scenario

AFF = gd.ScalarFn.affine

POTENTIAL_SCENARIOS = ("homogeneous", "tolls", "pigou", "coordination", "constant")

INTERCEPTS_ONLY = """\
[actions]
a1, a2, a3

[costs]
a1, p1, affine, 1, 0
a1, p2, affine, 1, 0.5
a2, p1, table, 0, 1, 1, 1.5, 3, 4
a2, p2, table, 0, 0.25, 1, 0.75, 3, 3.25
a3, all, constant, 1.2

[populations]
p1, 1
p2, 2

[dynamics]
protocol = logit
eta = 0.5
"""


def assert_gradient_is_costs(game, V, x, h=1e-6):
    """dV along every transfer i -> j inside an active population is c_jp - c_ip."""
    c = gd.evaluate_costs(game, x)
    for p in game.active_populations:
        s = game.action_set(p)
        for i in s:
            for j in s:
                if i == j:
                    continue
                d = np.zeros_like(x)
                d[i, p], d[j, p] = -1.0, 1.0
                got = (V(x + h * d) - V(x - h * d)) / (2 * h)
                assert got == pytest.approx(c[j, p] - c[i, p], abs=1e-6), (i, j, p)


@pytest.mark.parametrize("name", POTENTIAL_SCENARIOS)
def test_potential_gradient_matches_costs(name, rng):
    game, _ = get_scenario(name).build_game()
    V = gd.potential(game)
    for _ in range(3):
        assert_gradient_is_costs(game, V, gd.sample_configuration(game, rng))


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_potential_exists_exactly_where_symmetric(name):
    game, _ = get_scenario(name).build_game()
    symmetric, _ = gd.potential_symmetry_check(game, rng=np.random.default_rng(5))
    assert bool(symmetric) == (name in POTENTIAL_SCENARIOS)
    if symmetric:
        gd.potential(game)
    else:
        with pytest.raises(gd.CapabilityError, match="more than a constant"):
            gd.potential(game)


def test_potential_value_on_coordination():
    g, _ = get_scenario("coordination").build_game()
    V = gd.potential(g)
    x = np.array([[0.3], [0.7]])
    # sum_i (2 w_i - w_i^2 / 2) for the affine curve 2 - w
    expected = (2 * 0.3 - 0.3 ** 2 / 2) + (2 * 0.7 - 0.7 ** 2 / 2)
    assert V(x) == pytest.approx(expected, rel=1e-12)


def test_potential_value_on_tolls():
    g, _ = get_scenario("tolls").build_game()
    x = np.array([[0.25, 0.5], [0.75, 0.5]])
    # y = (0.75, 1.25) on curves y; tolls 1 * 0.75 (p1) + 2 * 0.5 (p2) on e2
    expected = 0.75 ** 2 / 2 + 1.25 ** 2 / 2 + 0.75 + 2 * 0.5
    assert gd.potential(g)(x) == pytest.approx(expected, rel=1e-12)


def test_intercepts_only_explicit_game_has_potential(tmp_path, rng):
    p = tmp_path / "intercepts.scn"
    p.write_text(INTERCEPTS_ONLY)
    game, _ = gd.load_scenario(p).build_game()
    np.testing.assert_allclose(game.costs.curves.offsets(game.mask),
                               [[0.0, 0.5], [0.0, -0.75], [0.0, 0.0]], rtol=1e-12)
    assert gd.potential_symmetry_check(game, rng=rng)[0]
    V = gd.potential(game)
    for _ in range(3):
        assert_gradient_is_costs(game, V, gd.sample_configuration(game, rng))


def masked_game(curves):
    """Explicit game on actions a1, a2 with None for an action a population lacks."""
    mask = np.array([[f is not None for f in row] for row in curves])
    return gd.PopulationGame(populations=("p1", "p2"), masses=np.array([1.0, 1.5]),
                             actions=("a1", "a2"), mask=mask,
                             costs=gd.AggregateCostField(curves))


@pytest.mark.parametrize("curves", [
    [[AFF(1, 0), AFF(1, 0)], [AFF(2, 0), None]],         # p2 lacks a2
    [[AFF(1, 0), AFF(1, 0.5)], [None, AFF(2, -0.25)]],   # p1, the first, lacks a2
], ids=["second-lacks", "first-lacks"])
def test_masked_explicit_game_has_potential(curves, rng):
    game = masked_game(curves)
    assert gd.potential_symmetry_check(game, rng=rng)[0]
    V = gd.potential(game)
    for _ in range(3):
        assert_gradient_is_costs(game, V, gd.sample_configuration(game, rng))


def test_potential_capability_gates():
    slopes_differ = gd.PopulationGame(
        populations=("p1", "p2"), masses=np.array([1.0, 1.0]),
        actions=("a1", "a2"), mask=np.ones((2, 2), dtype=bool),
        costs=gd.AggregateCostField([
            [gd.ScalarFn.affine(1.0, 0.0), gd.ScalarFn.affine(2.0, 0.0)],
            [gd.ScalarFn.constant(1.0), gd.ScalarFn.constant(1.0)],
        ]))
    with pytest.raises(gd.CapabilityError, match="more than a constant"):
        gd.potential(slopes_differ)
    callable_field = gd.PopulationGame(
        populations=("p1",), masses=np.array([1.0]), actions=("a1", "a2"),
        mask=np.ones((2, 1), dtype=bool),
        costs=CallableCostField(lambda x: x.sum(axis=1)[:, None]))
    with pytest.raises(gd.CapabilityError, match="grid of curves"):
        gd.potential(callable_field)


def test_offset_from_rules():
    aff, tab = gd.ScalarFn.affine(2.0, 1.0), gd.ScalarFn.table([(0, 1), (1, 3), (2, 4)])
    assert gd.ScalarFn.affine(2.0, -0.5).offset_from(aff) == -1.5
    assert gd.ScalarFn.affine(2.0 + 1e-9, 1.0).offset_from(aff) is None
    assert tab.shifted(0.1).offset_from(tab) == pytest.approx(0.1, rel=1e-12)
    assert gd.ScalarFn.table([(0, 1), (1, 3), (2.5, 4)]).offset_from(tab) is None
    assert gd.ScalarFn.table([(0, 1), (1, 3), (2, 4.5)]).offset_from(tab) is None
    assert gd.ScalarFn.table([(0, 1), (1, 3)]).offset_from(aff) is None


# ---------------------------------------------------------------------------
# Random explicit games built as f_k0 + kappa


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def base_curve(draw):
    if draw(st.booleans()):
        return gd.ScalarFn.affine(draw(st.floats(0, 3, **finite)),
                                  draw(st.floats(-2, 2, **finite)))
    n = draw(st.integers(2, 4))
    steps = draw(st.lists(st.floats(0.2, 2, **finite), min_size=n - 1, max_size=n - 1))
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    ys = draw(st.lists(st.floats(-2, 3, **finite), min_size=n, max_size=n))
    return gd.ScalarFn.table(list(zip(xs, ys)))


@st.composite
def offset_game(draw, min_pops=1):
    P = draw(st.integers(min_pops, 3))
    S = draw(st.integers(2, 4))
    # each entry available with probability 3/4, then every action and every
    # population gets at least one entry
    mask = np.array(draw(st.lists(st.lists(st.integers(0, 3).map(bool), min_size=P, max_size=P),
                                  min_size=S, max_size=S)))
    for p in np.flatnonzero(~mask.any(axis=0)):
        mask[draw(st.integers(0, S - 1)), p] = True
    for k in np.flatnonzero(~mask.any(axis=1)):
        mask[k, draw(st.integers(0, P - 1))] = True
    grid = []
    for k in range(S):
        f0 = draw(base_curve())
        kappas = [0.0] + draw(st.lists(st.floats(-2, 2, **finite),
                                       min_size=P - 1, max_size=P - 1))
        grid.append([f0.shifted(kappa) if mask[k, p] else None
                     for p, kappa in enumerate(kappas)])
    masses = draw(st.lists(st.floats(0.2, 2, **finite), min_size=P, max_size=P))
    game = gd.PopulationGame(populations=tuple(f"p{p}" for p in range(P)),
                             masses=np.array(masses), actions=tuple(f"a{i}" for i in range(S)),
                             mask=mask, costs=gd.AggregateCostField(grid))
    return game, grid


@settings(max_examples=100, deadline=None)
@given(offset_game(), st.integers(0, 2 ** 32 - 1))
def test_random_offset_games_have_potential(drawn, seed):
    game, _ = drawn
    x = gd.sample_configuration(game, np.random.default_rng(seed))
    assert_gradient_is_costs(game, gd.potential(game), x)


@settings(max_examples=50, deadline=None)
@given(offset_game(min_pops=2), st.data())
def test_perturbed_slope_breaks_potential(drawn, data):
    game, grid = drawn[0], [row[:] for row in drawn[1]]
    # a curve shared by two populations of the same row
    shared = [(k, p) for k, p in zip(*np.nonzero(game.mask)) if game.mask[k].sum() >= 2]
    assume(shared)
    k, p = data.draw(st.sampled_from(shared))
    delta = data.draw(st.floats(0.1, 1, **finite))
    f = grid[k][p]
    # add delta * y: every slope of that one curve moves by delta
    grid[k][p] = (gd.ScalarFn.affine(f.a + delta, f.b) if f.kind == "affine" else
                  gd.ScalarFn("table", xs=f.xs, ys=f.ys + delta * f.xs))
    game = gd.PopulationGame(populations=game.populations, masses=game.masses,
                             actions=game.actions, mask=game.mask,
                             costs=gd.AggregateCostField(grid))
    with pytest.raises(gd.CapabilityError):
        gd.potential(game)
    symmetric, worst = gd.potential_symmetry_check(game)
    assert not symmetric and worst >= 0.09
