"""Population games: configurations, cost fields, and equilibrium tests.

A game couples a finite action set, per-population action subsets, player
masses, and a cost field mapping configurations (mass matrices on a product
of scaled simplices) to per-action, per-population costs. Everything here is
a pure function of immutable inputs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ConfigurationError(ValueError):
    """A matrix violates the configuration polytope constraints."""


class CapabilityError(ValueError):
    """An operation needs a capability the cost field lacks."""


class CostEvalError(RuntimeError):
    """Cost evaluation produced a non-finite entry."""


# ---------------------------------------------------------------------------
# Scalar cost curves


class ScalarFn:
    """Scalar cost curve c(y) with derivative and running integral.

    Two shapes: affine ``a*y + b`` (constants are ``a = 0``) and piecewise
    linear tables. Tables extrapolate with their edge slopes so central
    finite differences stay well-defined just below y = 0.
    """

    __slots__ = ("kind", "a", "b", "xs", "ys", "_slopes", "_cum")

    def __init__(self, kind, a=0.0, b=0.0, xs=None, ys=None):
        self.kind = kind
        self.a = float(a)
        self.b = float(b)
        if kind == "table":
            xs = np.asarray(xs, dtype=float)
            ys = np.asarray(ys, dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
                raise ValueError("table needs >= 2 breakpoints with matching values")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("table breakpoints must be strictly increasing")
            self.xs = xs
            self.ys = ys
            self._slopes = np.diff(ys) / np.diff(xs)
            # cumulative trapezoid areas at the breakpoints, from xs[0]
            seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
            self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        elif kind == "affine":
            self.xs = None
            self.ys = None
            self._slopes = None
            self._cum = None
        else:
            raise ValueError(f"unknown scalar-fn kind {kind!r}")

    @staticmethod
    def affine(a: float, b: float) -> "ScalarFn":
        return ScalarFn("affine", a=a, b=b)

    @staticmethod
    def constant(k: float) -> "ScalarFn":
        return ScalarFn("affine", a=0.0, b=k)

    @staticmethod
    def table(points: Sequence[tuple[float, float]]) -> "ScalarFn":
        pts = sorted(points)
        return ScalarFn("table", xs=[p[0] for p in pts], ys=[p[1] for p in pts])

    def __call__(self, y):
        if self.kind == "affine":
            return self.a * y + self.b
        y_arr = np.asarray(y, dtype=float)
        out = np.interp(y_arr, self.xs, self.ys)
        lo = y_arr < self.xs[0]
        hi = y_arr > self.xs[-1]
        if np.any(lo):
            out = np.where(lo, self.ys[0] + self._slopes[0] * (y_arr - self.xs[0]), out)
        if np.any(hi):
            out = np.where(hi, self.ys[-1] + self._slopes[-1] * (y_arr - self.xs[-1]), out)
        return float(out) if np.isscalar(y) else out

    def deriv(self, y):
        if self.kind == "affine":
            return self.a * np.ones_like(np.asarray(y, dtype=float)) if not np.isscalar(y) else self.a
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        idx = np.clip(np.searchsorted(self.xs, y_arr, side="right") - 1, 0,
                      len(self._slopes) - 1)
        out = self._slopes[idx]
        return float(out[0]) if np.isscalar(y) else out.reshape(np.shape(y))

    def integral(self, y):
        """Integral of the curve from 0 to y (signed)."""
        if self.kind == "affine":
            return 0.5 * self.a * y * y + self.b * y
        return self._antideriv(y) - self._antideriv(0.0)

    def _antideriv(self, t):
        # signed area from xs[0] to t, with edge-slope extrapolation
        t = float(t)
        k = int(np.clip(np.searchsorted(self.xs, t, side="right") - 1, 0, len(self.xs) - 1))
        return self._cum[k] + 0.5 * (self(t) + self.ys[k]) * (t - self.xs[k])

    def shifted(self, delta: float) -> "ScalarFn":
        """The same curve plus a constant offset."""
        if self.kind == "affine":
            return ScalarFn.affine(self.a, self.b + delta)
        return ScalarFn("table", xs=self.xs, ys=self.ys + delta)

    def is_nondecreasing(self) -> bool:
        if self.kind == "affine":
            return self.a >= 0.0
        return bool(np.all(np.diff(self.ys) >= -1e-12))

    def offset_from(self, other: "ScalarFn") -> float | None:
        """The constant k with self = other + k everywhere, or None.

        Affine curves need equal slopes; tables need equal breakpoints and a
        constant gap in values, both within a relative 1e-12.
        """
        if self.kind != other.kind:
            return None
        if self.kind == "affine":
            same = abs(self.a - other.a) <= 1e-12 * max(abs(self.a), abs(other.a))
            return self.b - other.b if same else None
        if not np.array_equal(self.xs, other.xs):
            return None
        gap = self.ys - other.ys
        scale = max(np.abs(self.ys).max(), np.abs(other.ys).max())
        return float(gap[0]) if np.ptp(gap) <= 1e-12 * scale else None

    def __repr__(self):
        if self.kind == "affine":
            return f"ScalarFn.affine({self.a}, {self.b})"
        return f"ScalarFn.table({list(zip(self.xs, self.ys))})"


# ---------------------------------------------------------------------------
# Curve grids


class CurveGrid:
    """Grid of scalar curves f_kp, one per (row, population).

    Row k is evaluated at the k-th entry of a flow vector: per-action totals
    for explicit games, link flows for routing games. All-affine grids take
    a vectorized fast path.
    """

    def __init__(self, fns):
        self.fns = [list(row) for row in fns]
        self._affine = all(f.kind == "affine" for row in self.fns for f in row)
        if self._affine:
            self._a = np.array([[f.a for f in row] for row in self.fns])
            self._b = np.array([[f.b for f in row] for row in self.fns])
            self._a.setflags(write=False)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """(..., rows, populations) curve values at flows y, an array (..., rows)."""
        if self._affine:
            return self._a * y[..., None] + self._b
        y = np.asarray(y, dtype=float)
        return np.stack([np.stack([f(y[..., k]) for f in row], axis=-1)
                         for k, row in enumerate(self.fns)], axis=-2)

    def slopes(self, y: np.ndarray) -> np.ndarray:
        """(..., rows, populations) curve derivatives at flows y (..., rows)."""
        y = np.asarray(y, dtype=float)
        if self._affine:
            return np.broadcast_to(self._a, y.shape[:-1] + self._a.shape)
        return np.stack([np.stack([f.deriv(y[..., k]) for f in row], axis=-1)
                         for k, row in enumerate(self.fns)], axis=-2)

    def offsets(self, reach: np.ndarray) -> np.ndarray | None:
        """(rows, populations) kappa with f_kp = f_kr + kappa_kp, or None.

        Only entries with ``reach[k, p]`` (population p can put flow on row
        k) are compared, against row k's first such population r; kappa is
        0 on the other entries, whose curves never see flow.
        """
        kappa = np.zeros(reach.shape)
        for k, r in enumerate(reach.argmax(axis=1)):
            for p in np.flatnonzero(reach[k]):
                offset = self.fns[k][p].offset_from(self.fns[k][r])
                if offset is None:
                    return None
                kappa[k, p] = offset
        return kappa

    def shared_integral(self, y: np.ndarray, reach: np.ndarray) -> float:
        """sum_k integral_0^{y_k} of row k's curve for its first reaching population."""
        return float(sum(row[r].integral(float(v))
                         for row, r, v in zip(self.fns, reach.argmax(axis=1), y)))


# ---------------------------------------------------------------------------
# Cost fields


class CostField:
    """Maps a configuration to the (actions x populations) cost matrix.

    A field is called on a configuration, and ``jacobian(x)`` gives its
    partials d c_ip / d x_jq, (..., S,P,S,P) at x (..., S,P). A stack
    (..., S, P) of configurations maps to the stack of matrices (and of
    partials), each equal bit for bit to its own evaluation.

    The contract is ``__call__``, ``jacobian`` and ``per_action_aggregate``.
    The last marks fields whose costs depend on the configuration only
    through the per-action total mass w, entrywise (cost of action i is a
    function of w_i alone).
    """

    per_action_aggregate = False


class AggregateCostField(CostField):
    """Costs c_ip = f_ip(w_i) given by one scalar curve per valid entry."""

    per_action_aggregate = True

    def __init__(self, fns):
        self.curves = CurveGrid([[f if f is not None else ScalarFn.constant(0.0)
                                  for f in row] for row in fns])

    def __call__(self, x):
        return self.curves(np.add.reduce(x, -1))

    def flows(self, x):
        """(actions, populations) flow of each population through each curve row."""
        return np.asarray(x, dtype=float)

    def jacobian(self, x):
        slopes = self.curves.slopes(np.asarray(x, dtype=float).sum(axis=-1))
        D = np.zeros(slopes.shape + slopes.shape[-2:])
        for i in range(slopes.shape[-2]):
            D[..., i, :, i, :] = slopes[..., i, :, None]  # d c_ip / d x_iq for every q
        return D


# ---------------------------------------------------------------------------
# The game


@dataclass(frozen=True, eq=False)
class PopulationGame:
    """Finite populations with masses, per-population action sets, and costs.

    ``mask[i, p]`` is True when action i is available to population p. Every
    action must be available to at least one population and every population
    must have a nonempty action set. Zero-mass populations are allowed; they
    are skipped by equilibrium tests.
    """

    populations: tuple[str, ...]
    masses: np.ndarray
    actions: tuple[str, ...]
    mask: np.ndarray
    costs: CostField

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        object.__setattr__(self, "actions", tuple(self.actions))
        v = np.asarray(self.masses, dtype=float).copy()
        mask = np.asarray(self.mask, dtype=bool).copy()
        S, P = len(self.actions), len(self.populations)
        if v.shape != (P,):
            raise ValueError(f"masses must have shape ({P},)")
        if mask.shape != (S, P):
            raise ValueError(f"mask must have shape ({S}, {P})")
        if np.any(v < 0):
            raise ValueError("population masses must be nonnegative")
        if not np.any(v > 0):
            raise ValueError("at least one population must have positive mass")
        if not np.all(mask.any(axis=0)):
            raise ValueError("every population needs a nonempty action set")
        if not np.all(mask.any(axis=1)):
            raise ValueError("every action must belong to some population's action set")
        if len(set(self.actions)) != S or len(set(self.populations)) != P:
            raise ValueError("action and population ids must be unique")
        v.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "masses", v)
        object.__setattr__(self, "mask", mask)
        pairs = [(i, p) for p in range(P) for i in range(S) if mask[i, p]]
        object.__setattr__(self, "_pairs", tuple(pairs))
        object.__setattr__(self, "_full_mask", bool(mask.all()))

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_pops(self) -> int:
        return len(self.populations)

    @property
    def valid_pairs(self) -> tuple[tuple[int, int], ...]:
        """(action, population) index pairs with the action available, population-major."""
        return self._pairs

    def action_set(self, p: int) -> np.ndarray:
        return np.flatnonzero(self.mask[:, p])

    def action_index(self, action_id: str) -> int:
        if action_id not in self.actions:
            raise ConfigurationError(f"unknown action {action_id!r}")
        return self.actions.index(action_id)

    @property
    def active_populations(self) -> np.ndarray:
        return np.flatnonzero(self.masses > 0)

    def total_mass(self) -> float:
        return float(self.masses.sum())


def evaluate_costs(game: PopulationGame, x: np.ndarray) -> np.ndarray:
    """Cost matrix at x, or the stack (..., S, P) of them at a stack of
    configurations; raises CostEvalError naming the first infinite entry, or
    else the first NaN (an infinite link cost times a zero incidence leaves
    NaN on every route of its population)."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(game.costs(x), dtype=float)
    shape = x.shape[:-2] + game.mask.shape
    if c.shape != shape:
        raise CostEvalError(f"cost field returned shape {c.shape}, "
                            f"expected {shape}")
    if np.logical_and.reduce(np.isfinite(c), None):
        return c
    bad = ~np.isfinite(c) & game.mask
    if np.any(bad):
        inf = np.isinf(c) & game.mask
        i, p = np.argwhere(inf if np.any(inf) else bad)[0][-2:]
        raise CostEvalError(f"non-finite cost for action {game.actions[i]!r}, "
                            f"population {game.populations[p]!r}")
    return c


# ---------------------------------------------------------------------------
# Configurations


def validate_configuration(game: PopulationGame, x, *, tol: float = 1e-9) -> np.ndarray:
    """Check finiteness, signs, support and column sums of x (..., S, P), naming a bad start."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-2:] != game.mask.shape:
        raise ConfigurationError(f"configuration has shape {x.shape}, "
                                 f"expected {(game.n_actions, game.n_pops)}")
    scale = np.maximum(1.0, game.masses)
    finite = np.isfinite(x)
    off = np.abs(np.where(game.mask, 0.0, x))
    bad = (~finite | (x < -tol * scale) | (off > tol * scale)).any(axis=-2)
    bad |= np.abs(np.where(finite, x, 0.0).sum(axis=-2) - game.masses) > tol * scale
    if not bad.any():
        return x
    *k, _ = map(int, np.argwhere(bad)[0])
    start = f" in start {k[0] if len(k) == 1 else tuple(k)}" if k else ""
    x, off = x[tuple(k)], off[tuple(k)]
    if not np.all(np.isfinite(x)):
        i, p = np.argwhere(~np.isfinite(x))[0]
        raise ConfigurationError(f"non-finite mass {float(x[i, p])} at "
                                 f"({game.actions[i]}, {game.populations[p]}){start}")
    if np.any(x < -tol * scale):
        i, p = np.argwhere(x < -tol * scale)[0]
        raise ConfigurationError(f"negative mass {x[i, p]!r} at "
                                 f"({game.actions[i]}, {game.populations[p]}){start}")
    if np.any(off > tol * scale):
        i, p = np.argwhere(off > tol * scale)[0]
        raise ConfigurationError(f"mass {x[i, p]!r} on unavailable action "
                                 f"({game.actions[i]}, {game.populations[p]}){start}")
    p = int(np.argmax(np.abs(x.sum(axis=0) - game.masses) / scale))
    raise ConfigurationError(f"column sum {x[:, p].sum()!r} != mass "
                             f"{game.masses[p]!r} for {game.populations[p]}{start}")


def rescale_to_masses(game: PopulationGame, x: np.ndarray) -> np.ndarray:
    """x (..., S, P) with each column scaled to its population's mass; a zero column stays 0."""
    s = x.sum(axis=-2, keepdims=True)
    return x * (game.masses / np.where(s > 0, s, 1.0))


def uniform_configuration(game: PopulationGame) -> np.ndarray:
    return rescale_to_masses(game, game.mask.astype(float))


def vertex_configuration(game: PopulationGame, action_by_pop) -> np.ndarray:
    """Monomorphic configuration; accepts one action id or one per population."""
    if isinstance(action_by_pop, str):
        action_by_pop = [action_by_pop] * game.n_pops
    if len(action_by_pop) != game.n_pops:
        raise ConfigurationError(f"need one action per population ({game.n_pops}), "
                                 f"got {len(action_by_pop)}")
    x = np.zeros((game.n_actions, game.n_pops))
    for p, aid in enumerate(action_by_pop):
        i = game.action_index(aid)
        if not game.mask[i, p]:
            raise ConfigurationError(f"action {aid!r} not available to "
                                     f"population {game.populations[p]!r}")
        x[i, p] = game.masses[p]
    return x


def sample_configurations(game: PopulationGame, rng: np.random.Generator,
                          n: int) -> np.ndarray:
    """n uniform draws (n,S,P) on the product of scaled simplices (exponential
    spacings), from one rng call in the order of n sample_configuration calls."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    sets = [game.action_set(p) for p in range(game.n_pops)]
    g = rng.exponential(size=(n, sum(map(len, sets))))
    x = np.zeros((n, game.n_actions, game.n_pops))
    for p, s in enumerate(sets):
        gp, g = g[:, :len(s)], g[:, len(s):]
        x[:, s, p] = game.masses[p] * gp / gp.sum(axis=1, keepdims=True)
    return x


def sample_configuration(game: PopulationGame, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the product of scaled simplices (exponential spacings)."""
    return sample_configurations(game, rng, 1)[0]


def monomorphic_vertices(game: PopulationGame) -> list[np.ndarray]:
    """All configurations with each population massed on a single action.

    Truncated (deterministically) at 4096 vertices for large products.
    """
    per_pop = [game.action_set(p) for p in range(game.n_pops)]
    out = []
    for combo in itertools.islice(itertools.product(*per_pop), 4096):
        x = np.zeros((game.n_actions, game.n_pops))
        x[list(combo), range(game.n_pops)] = game.masses
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Equilibrium tests

# relative mass tolerance of classify_equilibrium, also its absolute cost tolerance
NASH_TOL = 1e-8


@dataclass(frozen=True)
class EquilibriumReport:
    is_nash: bool
    is_strict: bool
    is_monomorphic: bool
    violations: tuple
    cost_gap_alpha: float | None


def classify_equilibrium(game: PopulationGame, x) -> EquilibriumReport:
    """Nash / strict / monomorphic test at relative mass tolerance NASH_TOL.

    An action counts as used when x_ip > NASH_TOL * v_p; cost comparisons
    carry the same absolute tolerance. Zero-mass populations are skipped.
    """
    x = validate_configuration(game, x, tol=NASH_TOL)
    c = evaluate_costs(game, x)
    violations, gaps = [], []
    monomorphic = True
    for p in game.active_populations:
        s = game.action_set(p)
        used = s[x[s, p] > NASH_TOL * game.masses[p]]
        if len(used) != 1:
            monomorphic = False
        best = float(c[s, p].min())
        for i in used:
            if c[i, p] > best + NASH_TOL:
                j = int(s[np.argmin(c[s, p])])
                violations.append((game.populations[p], game.actions[i],
                                   game.actions[j], float(c[i, p] - best)))
        others = s[s != used[0]] if len(used) == 1 else []
        if len(others):
            gaps.append(float((c[others, p] - c[used[0], p]).min()))
    is_nash = not violations
    is_strict = bool(is_nash and monomorphic and not any(g <= NASH_TOL for g in gaps))
    alpha = min(gaps) if (is_strict and gaps) else None
    return EquilibriumReport(is_nash=is_nash, is_strict=is_strict,
                             is_monomorphic=monomorphic,
                             violations=tuple(violations), cost_gap_alpha=alpha)


# ---------------------------------------------------------------------------
# Cost-field differentiation, the potential-game symmetry test, the potential


def central_difference(f, x, steps) -> np.ndarray:
    """Central-difference partials of f at x, shaped f(x).shape + x.shape.

    Entry k of x moves by +-steps[k] (``steps`` broadcasts to x's shape); a
    zero step gives a zero partial and costs no evaluation of f.
    """
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(np.asarray(steps, dtype=float), x.shape)
    D = None
    for k in zip(*np.nonzero(steps)):
        h = steps[k]
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        d = (f(xp) - f(xm)) / (2 * h)
        if D is None:
            D = np.zeros(d.shape + x.shape)
        D[(...,) + k] = d
    return np.zeros(np.shape(f(x)) + x.shape) if D is None else D


def cost_jacobian(game: PopulationGame, x) -> np.ndarray:
    """Partials d c_ip / d x_jq, (..., S,P,S,P) at x (..., S,P), each slice bit for bit its own.

    The partials are the field's own ``jacobian(x)``.
    """
    x = np.asarray(x, dtype=float)
    return np.reshape(np.asarray(game.costs.jacobian(x), dtype=float), x.shape + game.mask.shape)


def potential_symmetry_check(game: PopulationGame,
                             rng: np.random.Generator | None = None) -> tuple[bool, float]:
    """Test d c_ip / d x_jq == d c_jq / d x_ip at 10 sampled interior points.

    Returns (symmetric within 1e-6 everywhere, max observed asymmetry). The
    partials are the field's own, read in one cost_jacobian call on the
    stack of samples; zero-mass populations are skipped.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    ii, pp = np.nonzero(game.mask & (game.masses > 0))
    M = cost_jacobian(game, sample_configurations(game, rng, 10))[:, ii, pp][:, :, ii, pp]
    worst = float(np.abs(M - M.swapaxes(1, 2)).max())
    return worst <= 1e-6, worst


def potential(game: PopulationGame) -> Callable[[np.ndarray], float]:
    """Potential V of a curve game whose populations differ by constants.

    In every row k (an action, or a link) each population whose flow can
    reach the row must have the curve of the first such population r plus a
    constant, f_kp = f_kr + kappa_kp. Then V(x) = sum_k integral_0^{y_k} f_kr
    + sum_kp kappa_kp * y_kp, with y_kp population p's flow through row k and
    y_k the row total, has partial c_ip in x_ip. Homogeneous costs (kappa = 0)
    and population-weighted tolls are the two common cases.
    """
    field = game.costs
    curves = getattr(field, "curves", None)
    if curves is None:
        raise CapabilityError("need costs given as a grid of curves")
    reach = field.flows(game.mask) > 0
    kappa = curves.offsets(reach)
    if kappa is None:
        raise CapabilityError("curves differ across populations by more than a "
                              "constant; no potential")

    def V(x) -> float:
        y = field.flows(x)
        return curves.shared_integral(y.sum(axis=1), reach) + float(np.sum(kappa * y))

    return V

