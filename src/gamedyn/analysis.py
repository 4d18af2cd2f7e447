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
    sample_configurations,
    validate_configuration,
)
from .logit import fixed_point, fixed_points, FixedPointResult
from .dynamics import Trajectory

log = logging.getLogger(__name__)

# l1 distance at or below which two fixed points (or branches, pointwise) are one
SAME_POINT_L1 = 1e-5


@dataclass(frozen=True)
class EquilibriumCurve:
    """One continuation branch: fixed points down a decreasing eta grid."""

    etas: np.ndarray               # (K,)
    points: np.ndarray             # (K, S, P)
    stable: np.ndarray             # (K,) bool
    residuals: np.ndarray          # (K,)
    l1_margins: np.ndarray         # (K,) l1 log-norm of J - I at each point
    seed_index: int
    terminated: bool               # solver failed before reaching the grid end

    @property
    def terminal_limit(self) -> np.ndarray:
        return self.points[-1]


def _check_grid(eta_grid) -> np.ndarray:
    """eta_grid as floats; ValueError unless 1-D, non-empty and strictly decreasing."""
    etas = np.asarray(eta_grid, dtype=float)
    if etas.ndim != 1 or len(etas) < 1 or np.any(np.diff(etas) >= 0):
        raise ValueError("eta_grid must be strictly decreasing")
    return etas


def continuation_sweep(game: PopulationGame, eta_grid, seeds) -> list[EquilibriumCurve]:
    """Warm-started fixed-point curves down a strictly decreasing eta grid.

    Each grid point is one fixed_point solve from a warm start, the secant
    prediction from the last two points. When the solver lands on a locally
    unstable point, a retry pulled 1e-3 of the way toward the seed decides
    whether this branch actually forks off (pitchforks leave the symmetric
    point unstable; an exactly symmetric iterate would never leave it).
    Branches identical along the whole grid (within SAME_POINT_L1 pointwise)
    are merged. A seed that fails at the first eta gives no branch, so the
    list is empty when every seed fails there.
    """
    grid = _check_grid(eta_grid)
    curves = [_trace_branch(game, grid, seed, si) for si, seed in enumerate(seeds)]
    return dedup_curves([c for c in curves if c is not None])


def _project_configuration(game: PopulationGame, x) -> np.ndarray:
    """Clip to the mask and nonnegativity, then rescale columns to the masses."""
    x = np.where(game.mask, np.maximum(np.asarray(x, dtype=float), 0.0), 0.0)
    for p in range(game.n_pops):
        s = float(x[:, p].sum())
        if game.masses[p] == 0.0:
            x[:, p] = 0.0
        elif s <= 0.0:
            idx = game.action_set(p)
            x[:, p] = 0.0
            x[idx, p] = game.masses[p] / len(idx)
        else:
            x[:, p] *= game.masses[p] / s
    return x


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
            if r2.converged and float(np.abs(r2.x - r.x).sum()) > 1e-6:
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
        seed_index=seed_index, terminated=len(accepted) < len(grid))


def dedup_curves(curves) -> list[EquilibriumCurve]:
    """Drop branches within SAME_POINT_L1 pointwise of an earlier one on the grid."""
    out: list[EquilibriumCurve] = []
    for c in curves:
        dup = False
        for kept in out:
            if (len(c.etas) == len(kept.etas)
                    and np.abs(c.points - kept.points).sum(axis=(1, 2)).max() <= SAME_POINT_L1):
                dup = True
                break
        if not dup:
            out.append(c)
    return out


@dataclass(frozen=True)
class NoiseSweep:
    """Multistart fixed-point census per eta."""

    etas: np.ndarray
    results: tuple                 # tuple per eta of FixedPointResult
    n_fixed_points: np.ndarray
    n_stable: np.ndarray


def bifurcation_scan(game: PopulationGame, eta_grid, multistart: int = 8,
                     rng: np.random.Generator | None = None) -> NoiseSweep:
    """Count distinct (stable) fixed points at each eta on a decreasing grid.

    A solve counts at an l1 residual <= 1e-8; solutions within SAME_POINT_L1
    are one point. All starts, drawn eta by eta, are one fixed_points call
    (Newton restarting unstable landings, then damped Picard as the last
    resort), one eta per start.
    """
    etas = _check_grid(eta_grid)
    if multistart < 4:
        raise ValueError("multistart must be at least 4")
    rng = rng if rng is not None else np.random.default_rng(0)
    vertices = monomorphic_vertices(game)
    m = multistart + len(vertices)
    draws = np.split(sample_configurations(game, rng, len(etas) * multistart), len(etas))
    seeds = [x for d in draws for x in [*d, *vertices]]
    results = fixed_points(game, np.repeat(etas, m), seeds)
    per_eta = []
    for k in range(len(etas)):
        found: list[FixedPointResult] = []
        for r in results[k * m:(k + 1) * m]:
            if (r.converged and r.residual <= 1e-8
                    and all(np.abs(r.x - f.x).sum() > SAME_POINT_L1 for f in found)):
                found.append(r)
        per_eta.append(tuple(found))
    return NoiseSweep(etas=etas, results=tuple(per_eta),
                      n_fixed_points=np.array([len(f) for f in per_eta]),
                      n_stable=np.array([sum(r.stability.locally_stable for r in f)
                                         for f in per_eta]))


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

    def __bool__(self) -> bool:
        return self.ok


def lyapunov_check(game: PopulationGame, trajectory: Trajectory, eta: float,
                   potential_evaluator, tol: float = 1e-8) -> LyapunovReport:
    """Is V(x) + eta * entropy non-increasing along the recorded trajectory?

    The trajectory must have been produced at the same eta; uphill steps are
    tolerated up to tol * (1 + |V|) per step.
    """
    if abs(trajectory.eta - eta) > 1e-12 * max(1.0, eta):
        raise ValueError(f"trajectory eta {trajectory.eta!r} does not match "
                         f"requested eta {eta!r}")
    vals = np.array([potential_evaluator(x) + eta * entropy_term(game, x)
                     for x in trajectory.states])
    steps = np.diff(vals)
    allowed = tol * (1.0 + np.abs(vals[:-1]))
    ok = bool(np.all(steps <= allowed))
    max_uphill = float(max(0.0, steps.max())) if len(steps) else 0.0
    return LyapunovReport(ok=ok, max_uphill=max_uphill, values=vals)
