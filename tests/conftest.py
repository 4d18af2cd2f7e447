"""Shared fixtures. Bundled scenarios are parsed once per session; games and
routing views are rebuilt per use (they are cheap and the builders are pure).
"""

from pathlib import Path

import numpy as np
import pytest

import gamedyn as gd
from gamedyn.game import central_difference

SCENARIO_DIR = Path(gd.__file__).resolve().parent / "scenarios"

ALL_SCENARIOS = ("constant", "coordination", "pigou", "parallel3",
                 "homogeneous", "tolls", "series2", "wheatstone")

_cache: dict[str, gd.Scenario] = {}


def get_scenario(name: str) -> gd.Scenario:
    if name not in _cache:
        _cache[name] = gd.load_scenario(SCENARIO_DIR / f"{name}.scn")
    return _cache[name]


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def wide_game() -> gd.PopulationGame:
    """A generated game wider than any bundled one: 6 actions and 3
    populations, the second of zero mass, with entry (a6, p3) masked. A
    configuration holds 18 entries, 11 of them nonzero, and numpy sums a row
    of more than 8 pairwise. Affine curves, slopes and intercepts drawn from
    a fixed seed."""
    rng = np.random.default_rng(2027)
    mask = np.ones((6, 3), dtype=bool)
    mask[5, 2] = False
    grid = [[gd.ScalarFn.affine(*rng.uniform(0.2, 2.0, 2)) if mask[i, p] else None
             for p in range(3)] for i in range(6)]
    return gd.PopulationGame(populations=("p1", "p2", "p3"), masses=np.array([1.0, 0.0, 2.0]),
                             actions=tuple(f"a{i + 1}" for i in range(6)), mask=mask,
                             costs=gd.AggregateCostField(grid))


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
