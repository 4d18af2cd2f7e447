"""Noise continuation, bifurcation scans, Lyapunov checks.

Fixed-point curves eta -> x^eta are traced by natural-parameter continuation
(warm starts down a geometric grid, no arclength); a branch's point at the
smallest eta is its terminal limit.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .game import (
    PopulationGame,
    monomorphic_vertices,
    potential,
    rescale_to_masses,
    sample_configurations,
    validate_configuration,
)
from .logit import fixed_point, fixed_points, FixedPointResult
from .dynamics import Trajectory

log = logging.getLogger(__name__)

# l1 at or below which two fixed points (or branches, pointwise) are one, in every caller
SAME_POINT_L1 = 1e-5
# uphill step of V + eta * entropy that lyapunov_check forgives, per unit of 1 + |V|
LYAPUNOV_TOL = 1e-8


@dataclass(frozen=True)
class EquilibriumCurve:
    """One continuation branch: fixed points down a decreasing eta grid."""

    etas: np.ndarray               # (K,)
    points: np.ndarray             # (K, S, P)
    stable: np.ndarray             # (K,) bool
    residuals: np.ndarray          # (K,)
    l1_margins: np.ndarray         # (K,) l1 log-norm of J - I at each point
    terminated: bool               # solver failed before reaching the grid end

    @property
    def terminal_limit(self) -> np.ndarray:
        return self.points[-1]


def _check_grid(eta_grid) -> np.ndarray:
    """eta_grid as floats; ValueError unless 1-D, non-empty, strictly decreasing and finite > 0."""
    etas = np.asarray(eta_grid, dtype=float)
    if etas.ndim != 1 or len(etas) < 1:
        raise ValueError("eta_grid must be 1-D and non-empty")
    if np.any(np.diff(etas) >= 0):
        raise ValueError("eta_grid must be strictly decreasing")
    if not np.all((etas > 0) & (etas < np.inf)):
        raise ValueError(f"eta_grid: each eta must be positive and finite, got {etas}")
    return etas


def continuation_sweep(game: PopulationGame, eta_grid, seeds) -> list[EquilibriumCurve]:
    """Warm-started fixed-point curves down a strictly decreasing eta grid.

    Each grid point is one fixed_point solve from a warm start, the secant
    prediction from the last two points. When the solver lands on a locally
    unstable point, a retry pulled 1e-3 of the way toward the seed is taken
    where it converges more than SAME_POINT_L1 away: the branch forks off there
    (pitchforks leave the symmetric point unstable; an exactly symmetric
    iterate would never leave it). Branches identical along the whole grid
    (within SAME_POINT_L1 pointwise) are merged. A seed that fails at the
    first eta gives no branch, so the list is empty when every seed fails there.
    """
    grid = _check_grid(eta_grid)
    curves = [_trace_branch(game, grid, seed, si) for si, seed in enumerate(seeds)]
    return dedup_curves([c for c in curves if c is not None])


def _project_configuration(game: PopulationGame, x) -> np.ndarray:
    """x or a stack (..., S, P) clipped to the mask and nonnegativity, rescaled to the masses."""
    return rescale_to_masses(game, np.where(game.mask, np.maximum(x, 0.0), 0.0))


def _trace_branch(game: PopulationGame, grid, seed,
                  seed_index: int) -> EquilibriumCurve | None:
    """Accepted fixed points of one seed down the grid, until a solve stalls."""
    seed = validate_configuration(game, seed)
    accepted: list[FixedPointResult] = []
    for eta in grid:
        eta = float(eta)
        if len(accepted) < 2:
            x_init = accepted[-1].x if accepted else seed
        else:
            a, b = accepted[-2:]
            gain = (eta - b.eta) / (b.eta - a.eta)
            x_init = _project_configuration(game, b.x + gain * (b.x - a.x))
        r = fixed_point(game, eta, x_init)
        if r.converged and not r.stability.locally_stable:
            # possible pitchfork: an exactly symmetric warm start cannot leave
            # the symmetric point, so probe once from 1e-3 of the way to the seed
            x_n = _project_configuration(game, 0.999 * x_init + 1e-3 * seed)
            r2 = fixed_point(game, eta, x_n)
            if r2.converged and float(np.abs(r2.x - r.x).sum()) > SAME_POINT_L1:
                r = r2
        if not r.converged:
            log.warning("continuation seed %d: solver stalled at eta=%g "
                        "(residual %.3e); branch terminated",
                        seed_index, eta, r.residual)
            break
        accepted.append(r)
    if not accepted:
        return None
    return EquilibriumCurve(
        etas=np.array([r.eta for r in accepted]),
        points=np.array([r.x for r in accepted]),
        stable=np.array([r.stability.locally_stable for r in accepted], dtype=bool),
        residuals=np.array([r.residual for r in accepted]),
        l1_margins=np.array([r.stability.l1_log_norm for r in accepted]),
        terminated=len(accepted) < len(grid))


def dedup_curves(curves) -> list[EquilibriumCurve]:
    """Drop branches within SAME_POINT_L1 pointwise of an earlier one on the grid."""
    out: list[EquilibriumCurve] = []
    for c in curves:
        if not any(len(c.etas) == len(kept.etas)
                   and np.abs(c.points - kept.points).sum(axis=(1, 2)).max() <= SAME_POINT_L1
                   for kept in out):
            out.append(c)
    return out


@dataclass(frozen=True)
class NoiseSweep:
    """Multistart fixed-point census per eta: distinct and stable points counted."""

    etas: np.ndarray
    n_fixed_points: np.ndarray
    n_stable: np.ndarray


def bifurcation_scan(game: PopulationGame, eta_grid, multistart: int = 8,
                     rng: np.random.Generator | None = None) -> NoiseSweep:
    """Count distinct (stable) fixed points at each eta on a decreasing grid.

    A start counts where fixed_points converged it; per eta, the first counted
    start not yet matched is a new point and matches every start within
    SAME_POINT_L1 of it. All starts, drawn eta by eta, are one fixed_points
    call (Newton in log-weights, restarting unstable landings; a start that
    finds no step goes on from its map image), one eta per start; the count
    reads its arrays and builds no FixedPointResult."""
    etas = _check_grid(eta_grid)
    if not isinstance(multistart, (int, np.integer)) or multistart < 4:
        raise ValueError(f"multistart must be an integer of at least 4, got {multistart!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    vertices = monomorphic_vertices(game)
    m, (S, P) = multistart + len(vertices), game.mask.shape
    draws = sample_configurations(game, rng, len(etas) * multistart).reshape(len(etas), -1, S, P)
    seeds = np.concatenate([draws, np.broadcast_to(vertices, (len(etas), len(vertices), S, P))], 1)
    stack = fixed_points(game, np.repeat(etas, m), seeds.reshape(-1, S, P))
    # all etas in lockstep: each round finds the next point of every eta that
    # has an unmatched counted start, with one l1 distance over its m starts
    X = stack.x.reshape(len(etas), m, -1)
    todo = stack.converged.reshape(len(etas), m).copy()
    counted = np.zeros_like(todo)
    while todo.any():
        ks = np.flatnonzero(todo.any(axis=1))
        first = todo[ks].argmax(axis=1)
        counted[ks, first] = True
        todo[ks] &= np.abs(X[ks] - X[ks, first][:, None]).sum(axis=2) > SAME_POINT_L1
    stable = counted & (stack.spectral_abscissa.reshape(counted.shape) < 0.0)
    return NoiseSweep(etas, counted.sum(axis=1), stable.sum(axis=1))


# ---------------------------------------------------------------------------
# Lyapunov machinery for potential instances


def entropy_term(game: PopulationGame, x) -> float:
    """sum over valid entries of x log(x / v_p), with 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for p in game.active_populations:
        s = game.action_set(p)
        xs = x[s, p]
        pos = xs > 0
        total += float(np.sum(xs[pos] * np.log(xs[pos] / game.masses[p])))
    return total


@dataclass(frozen=True)
class LyapunovReport:
    ok: bool
    max_uphill: float
    values: np.ndarray


def lyapunov_check(game: PopulationGame, trajectory: Trajectory) -> LyapunovReport:
    """Is V(x) + eta * entropy non-increasing along the recorded trajectory?

    V is potential(game) and eta the trajectory's own; uphill steps are
    tolerated up to LYAPUNOV_TOL * (1 + |V|) per step.
    """
    V, eta = potential(game), trajectory.eta
    vals = np.array([V(x) + eta * entropy_term(game, x) for x in trajectory.states])
    steps = np.diff(vals)
    allowed = LYAPUNOV_TOL * (1.0 + np.abs(vals[:-1]))
    ok = bool(np.all(steps <= allowed))
    max_uphill = float(max(0.0, steps.max())) if len(steps) else 0.0
    return LyapunovReport(ok=ok, max_uphill=max_uphill, values=vals)
