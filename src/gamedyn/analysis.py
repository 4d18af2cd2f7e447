"""Noise continuation, bifurcation scans, limit equilibria, Lyapunov checks.

Fixed-point curves eta -> x^eta are traced by natural-parameter continuation
(warm starts down a geometric grid, no arclength). Limits at the smallest
eta estimate the accumulation set of fixed points as noise vanishes.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .game import (
    PopulationGame,
    classify_equilibrium,
    monomorphic_vertices,
    sample_configuration,
    validate_configuration,
)
from .logit import (
    fixed_point,
    fixed_points,
    FixedPointResult,
    contraction_points,
    _margin_of,
)
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

    @property
    def terminal_eta(self) -> float:
        return float(self.etas[-1])

    def max_consecutive_jump(self) -> float:
        if len(self.points) < 2:
            return 0.0
        d = np.abs(np.diff(self.points, axis=0)).sum(axis=(1, 2))
        return float(d.max())


def continuation_sweep(game: PopulationGame, eta_hi: float, eta_lo: float,
                       steps: int, seeds) -> list[EquilibriumCurve]:
    """Warm-started fixed-point curves down a geometric eta grid.

    Solves use fixed_point's defaults. Warm starts are secant predictions
    from the last two points. When the solver lands on a locally unstable
    point, a retry pulled 1e-3 of the way toward the seed decides whether
    this branch actually forks off (pitchforks leave the symmetric point
    unstable; an exactly symmetric iterate would never leave it). Branches
    identical along the whole grid (within SAME_POINT_L1 pointwise) are
    merged.
    """
    if not (eta_hi > eta_lo > 0):
        raise ValueError("need eta_hi > eta_lo > 0")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    grid = np.geomspace(eta_hi, eta_lo, steps)
    curves = [_trace_branch(game, grid, seed, si) for si, seed in enumerate(seeds)]
    curves = [c for c in curves if c is not None]
    if not curves:
        raise ValueError("every seed failed at eta_hi; raise eta_hi or fix seeds")
    return dedup_curves(curves)


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
class LimitPoint:
    x: np.ndarray
    eta: float
    nash_violation: float
    is_nash: bool
    is_strict: bool
    tail_shrinking: bool


def limit_equilibria_estimate(game: PopulationGame, curves) -> list[LimitPoint]:
    """Branch terminals as candidate limit equilibria, with Nash diagnostics.

    Requires every branch to reach eta <= 1e-3; the terminal configuration
    is then checked against the equilibrium inequalities at tolerance 1e-3.
    ``tail_shrinking`` records whether the violation decreased over the last
    stretch of the branch, the signature of a true vanishing-noise limit.
    """
    out = []
    for c in curves:
        if c.terminal_eta > 1e-3 * (1 + 1e-9):
            raise ValueError(f"branch (seed {c.seed_index}) stops at eta="
                             f"{c.terminal_eta:g}; continuation must reach 1e-3")
        k_back = min(8, len(c.etas) - 1)
        rep, rep_back = (classify_equilibrium(game, x, tol=1e-3)
                         for x in (c.terminal_limit, c.points[-1 - k_back]))
        shrinking = rep.max_violation <= rep_back.max_violation + 1e-12
        out.append(LimitPoint(x=c.terminal_limit, eta=c.terminal_eta,
                              nash_violation=rep.max_violation,
                              is_nash=rep.is_nash, is_strict=rep.is_strict,
                              tail_shrinking=shrinking))
    return out


@dataclass(frozen=True)
class NoiseSweep:
    """Multistart fixed-point census per eta, with contraction margins."""

    etas: np.ndarray
    results: tuple                 # tuple per eta of FixedPointResult
    margins: np.ndarray
    n_fixed_points: np.ndarray
    n_stable: np.ndarray


def bifurcation_scan(game: PopulationGame, eta_grid, multistart: int = 8,
                     rng: np.random.Generator | None = None) -> NoiseSweep:
    """Count distinct (stable) fixed points at each eta on a decreasing grid.

    A solve counts at an l1 residual <= 1e-8; solutions within SAME_POINT_L1
    are one point. Each eta's starts are solved in lockstep (fixed_points).
    Margins use one set of 100 sampled points plus the vertices, whose costs
    and cost partials are built once for all etas.
    """
    etas = np.asarray(eta_grid, dtype=float)
    if etas.ndim != 1 or len(etas) < 1 or np.any(np.diff(etas) >= 0):
        raise ValueError("eta_grid must be strictly decreasing")
    if multistart < 4:
        raise ValueError("multistart must be at least 4")
    rng = rng if rng is not None else np.random.default_rng(0)
    vertices = monomorphic_vertices(game)
    margin = _margin_of(game, contraction_points(game, 100, rng))
    per_eta = []
    margins = []
    for eta in etas:
        seeds = [sample_configuration(game, rng) for _ in range(multistart)] + vertices
        found: list[FixedPointResult] = []
        for r in fixed_points(game, float(eta), seeds):
            if (r.converged and r.residual <= 1e-8
                    and all(np.abs(r.x - f.x).sum() > SAME_POINT_L1 for f in found)):
                found.append(r)
        per_eta.append(tuple(found))
        margins.append(margin(float(eta)))
    n_fixed = np.array([len(f) for f in per_eta])
    n_stable = np.array([sum(1 for r in f if r.stability.locally_stable)
                         for f in per_eta])
    return NoiseSweep(etas=etas, results=tuple(per_eta),
                      margins=np.array(margins), n_fixed_points=n_fixed,
                      n_stable=n_stable)


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
    if trajectory.eta is None or abs(trajectory.eta - eta) > 1e-12 * max(1.0, eta):
        raise ValueError(f"trajectory eta {trajectory.eta!r} does not match "
                         f"requested eta {eta!r}")
    vals = np.array([potential_evaluator(x) + eta * entropy_term(game, x)
                     for x in trajectory.states])
    steps = np.diff(vals)
    allowed = tol * (1.0 + np.abs(vals[:-1]))
    ok = bool(np.all(steps <= allowed))
    max_uphill = float(max(0.0, steps.max())) if len(steps) else 0.0
    return LyapunovReport(ok=ok, max_uphill=max_uphill, values=vals)
