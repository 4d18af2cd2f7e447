"""Shared fixtures and generated games. Bundled scenarios are parsed once per
session; games and routing views are rebuilt per use (they are cheap and the
builders are pure).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, note, strategies as st

import gamedyn as gd
from gamedyn import logit
from gamedyn.analysis import SAME_POINT_L1
from gamedyn.game import central_difference

SCENARIO_DIR = Path(gd.__file__).resolve().parent / "scenarios"

ALL_SCENARIOS = ("constant", "coordination", "pigou", "parallel3",
                 "homogeneous", "tolls", "series2", "wheatstone")

_cache: dict[str, gd.Scenario] = {}


def get_scenario(name: str) -> gd.Scenario:
    if name not in _cache:
        _cache[name] = gd.load_scenario(SCENARIO_DIR / f"{name}.scn")
    return _cache[name]


def census_rule(results):
    """The census's same-point rule as a generator over starts: a converged
    start, whatever its residual, is a new point unless within SAME_POINT_L1
    of a point already found."""
    found = []
    for r in results:
        if r.converged and all(np.abs(r.x - f.x).sum() > SAME_POINT_L1 for f in found):
            found.append(r)
    return found


def count_picard(monkeypatch):
    """Count, from here on, the calls to damped Picard: logit.fixed_point and
    logit.damped_iteration, each wrapped by name."""
    calls = []
    for name in ("fixed_point", "damped_iteration"):
        def counted(*args, real=getattr(logit, name)):
            calls.append(1)
            return real(*args)
        monkeypatch.setattr(logit, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def explicit_costs(grid) -> gd.RoutingCostField:
    """An explicit game's cost field as the scenario loader builds it: the
    curve grid on the identity incidence, one link per action."""
    return gd.RoutingCostField(np.eye(len(grid)), gd.CurveGrid(grid))


def wide_game() -> gd.PopulationGame:
    """A generated game wider than any bundled one: 6 actions and 3
    populations, the second of zero mass, with entry (a6, p3) masked. A
    configuration holds 18 entries, 11 of them nonzero, and numpy sums a row
    of more than 8 pairwise. Affine curves, slopes and intercepts drawn from
    a fixed seed."""
    rng = np.random.default_rng(2027)
    mask = np.ones((6, 3), dtype=bool)
    mask[5, 2] = False
    grid = [[gd.ScalarFn.affine(*rng.uniform(0.2, 2.0, 2)) if mask[i, p]
             else gd.ScalarFn.constant(0.0) for p in range(3)] for i in range(6)]
    return gd.PopulationGame(populations=("p1", "p2", "p3"), masses=np.array([1.0, 0.0, 2.0]),
                             actions=tuple(f"a{i + 1}" for i in range(6)), mask=mask,
                             costs=explicit_costs(grid))


@st.composite
def small_potential_game(draw):
    """Explicit games of up to 3 populations (one may have zero mass) and 3
    actions: per action one nondecreasing affine curve, shifted per
    population. The potential is convex, so each eta has one logit
    equilibrium and every start must reach it."""
    P, S = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    mask = np.array(draw(st.lists(st.lists(st.booleans(), min_size=P, max_size=P),
                                  min_size=S, max_size=S)))
    mask[0], mask[:, 0] = True, True     # no empty action set, no unused action
    masses = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=P, max_size=P))
    assume(max(masses) > 0)
    number = dict(allow_nan=False, allow_infinity=False)
    grid = []
    for i in range(S):
        f = gd.ScalarFn.affine(draw(st.floats(0.0, 3.0, **number)),
                               draw(st.floats(-1.0, 2.0, **number)))
        grid.append([f.shifted(draw(st.floats(-1.0, 1.0, **number))) if mask[i, p]
                     else gd.ScalarFn.constant(0.0) for p in range(P)])
    return gd.PopulationGame(populations=[f"p{p}" for p in range(P)], masses=np.array(masses),
                             actions=[f"a{i}" for i in range(S)], mask=mask,
                             costs=explicit_costs(grid))


def note_game(game):
    """Report a drawn explicit game with a failing example, in a form that
    rebuilds it (the game's own repr names no curve)."""
    note(f"curves={game.costs.curves.fns!r}")
    note(f"mask={game.mask.tolist()!r}")
    note(f"masses={game.masses.tolist()!r}")


class CallableCostField(gd.CostField):
    """Wraps an evaluator of one configuration; a finite-difference oracle.

    Its partials are central differences (game.central_difference) of the
    costs on ``mask``, step 1e-6 * max(1, m_q) on the entries of ``mask``,
    with ``masses`` the population masses m_q; by default every entry is
    available and every mass is 1.
    """

    def __init__(self, func, mask=None, masses=None):
        self._func = func
        self.mask, self.masses = mask, masses

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 2:
            return np.array([self(y) for y in x])
        return np.asarray(self._func(x), dtype=float)

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        shape = x.shape[-2:]
        mask = np.ones(shape, dtype=bool) if self.mask is None else self.mask
        masses = np.ones(shape[1]) if self.masses is None else self.masses
        steps = np.where(mask, 1e-6 * np.maximum(1.0, masses), 0.0)
        D = [central_difference(lambda y: np.where(mask, self(y), 0.0), y, steps)
             for y in x.reshape((-1,) + shape)]
        return np.reshape(D, x.shape + shape)
