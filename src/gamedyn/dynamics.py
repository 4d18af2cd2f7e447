"""Logit dynamics x' = F(x, eta) - x: sampling checks, integration, aggregation.

Each entry point takes the noise level eta of the logit target F. The
target's properties (exact targets, monotone cost response, stage
decoupling) are tested by sampling checks, never declared. Integration is
classical fixed-step RK4 with no projection; mass conservation is a
property of exact targets, so drift is monitored rather than corrected.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .game import (
    PopulationGame,
    CapabilityError,
    ConfigurationError,
    central_difference,
    evaluate_costs,
    validate_configuration,
    sample_configurations,
)
from .logit import fixed_points, logit_map, softmax_target

log = logging.getLogger(__name__)


def _positive(eta) -> float:
    """eta as a float; NaN and eta <= 0 are refused."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    return float(eta)


# ---------------------------------------------------------------------------
# Sampling checks


def exact_target_check(eta: float, game: PopulationGame,
                       rng: np.random.Generator | None = None) -> tuple[bool, float]:
    """Mass and support test on 20 samples, one stack: (violation <= 1e-9, max violation)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    F = logit_map(game, sample_configurations(game, rng, 20), eta)
    worst = max(float(np.abs(F.sum(axis=-2) - game.masses).max()),
                float(np.abs(np.where(game.mask, 0.0, F)).max()),
                max(0.0, -float(F.min())))
    return worst <= 1e-9, worst


def monotonicity_check(eta: float, game: PopulationGame,
                       rng: np.random.Generator | None = None) -> tuple[bool, list]:
    """Finite-difference sign test of the target's cost sensitivities.

    On 5 sampled cost matrices, dG_ip/dc_ip must be <= 1e-7, dG_ip/dc_jp >= -1e-7
    for j != i within population p, and cross-population sensitivities must
    vanish (to 1e-7). Returns (ok, violations) with entries (kind, (i,p), (j,q), value).
    """
    eta = _positive(eta)
    rng = rng if rng is not None else np.random.default_rng(0)
    violations = []
    for c in evaluate_costs(game, sample_configurations(game, rng, 5)):
        dG = central_difference(lambda cc: softmax_target(game, cc, eta),
                                c, 1e-6 * game.mask)
        for (j, q) in game.valid_pairs:
            for (i, p) in game.valid_pairs:
                v = float(dG[i, p, j, q])
                if p == q and i == j:
                    kind, excess = "own_cost_increasing", v
                elif p == q:
                    kind, excess = "cross_cost_decreasing", -v
                else:
                    kind, excess = "cross_population_coupling", abs(v)
                if excess > 1e-7:
                    violations.append((kind, (i, p), (j, q), v))
    return not violations, violations


# ---------------------------------------------------------------------------
# Integration


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution of x' = F(x, eta) - x on a fixed time grid."""

    times: np.ndarray          # (T,)
    states: np.ndarray         # (T, S, P)
    eta: float                 # noise level
    mass_drift: float          # max |column sum - mass| over recorded states
    min_entry: float           # most negative recorded entry

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]

    def aggregate_flows(self) -> np.ndarray:
        """Per-action totals w(t) as a (T, S) array."""
        return self.states.sum(axis=2)


def integrate(game: PopulationGame, eta: float, x0,
              horizon: float, dt: float) -> Trajectory | list[Trajectory]:
    """Fixed-step RK4 integration with states recorded at every step.

    One start x0 (S, P) gives one Trajectory; a stack (N, S, P), stepped as one
    array, gives a list of N, each equal to its start's lone run (drift warnings
    in start order).
    """
    eta = _positive(eta)
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    if horizon < dt:
        raise ValueError("horizon must be at least one step")
    x = validate_configuration(game, x0)
    if x.ndim > 3:
        raise ConfigurationError(f"x0 has shape {x.shape}, expected one start "
                                 f"{game.mask.shape} or one stack of them")
    n = int(round(horizon / dt))
    if abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        log.warning("horizon %g is not a multiple of dt %g; integrating to %g",
                    horizon, dt, n * dt)

    # a stage calls both layers by name, which a tracer wraps; numpy applies a
    # 0-d array faster than a Python scalar, and the products round the same
    half, step, sixth, two, rate = map(np.array, (0.5 * dt, dt, dt / 6.0, 2.0, eta))
    states = np.empty((n + 1,) + x.shape)
    states[0] = x
    for k in range(n):
        k1 = softmax_target(game, evaluate_costs(game, x), rate) - x
        k2 = softmax_target(game, evaluate_costs(game, y := x + half * k1), rate) - y
        k3 = softmax_target(game, evaluate_costs(game, y := x + half * k2), rate) - y
        k4 = softmax_target(game, evaluate_costs(game, y := x + step * k3), rate) - y
        x = x + sixth * (k1 + two * k2 + two * k3 + k4)
        states[k + 1] = x
    times = dt * np.arange(n + 1)
    out = []
    # each start's states contiguous, so its column sums round as they do alone
    for s in [states] if x.ndim == 2 else states.swapaxes(0, 1).copy():
        drift = float(np.abs(s.sum(axis=1) - game.masses).max())
        if drift > 1e-7:
            log.warning("mass drift %.3e exceeds the 1e-7 monitor bound", drift)
        out.append(Trajectory(times=times, states=s, eta=eta,
                              mass_drift=drift, min_entry=float(s.min())))
    return out[0] if x.ndim == 2 else out


# ---------------------------------------------------------------------------
# Aggregate (per-action total mass) dynamics


@dataclass(frozen=True)
class ReducedFixedPoint:
    w: np.ndarray
    residual: float
    iterations: int
    converged: bool


class ReducedSystem:
    """Autonomous dynamics of the per-action totals, w' = sum_p G_p(cbar(w)) - w.

    Exists when every cost depends on the configuration only through its own
    action's total mass.
    """

    def __init__(self, game: PopulationGame, eta: float):
        self.eta = _positive(eta)
        if not game.costs.per_action_aggregate:
            raise CapabilityError("aggregate dynamics needs per-action aggregate "
                                  "costs (c_ip a function of w_i alone)")
        self.game = game

    def _checked(self, w, name: str) -> np.ndarray:
        """w as floats; a ValueError naming it unless finite with one entry per action."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.game.n_actions,):
            raise ValueError(f"{name} must have shape ({self.game.n_actions},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"{name} has a non-finite entry: {w.tolist()!r}")
        return w

    def target(self, w: np.ndarray) -> np.ndarray:
        """Target G(cbar(w)): logit_map where the costs see row sums w (w in column 0)."""
        x = np.zeros((self.game.n_actions, self.game.n_pops))
        x[:, 0] = self._checked(w, "w")
        return logit_map(self.game, x, self.eta)

    def fixed_point(self, w0) -> ReducedFixedPoint:
        """Aggregate fixed point w = sum_p G_p(cbar(w)): the row sums of
        fixed_points' solve of the full map from target(w0).

        The full map sees a configuration only through its row sums, so
        those of its fixed point are a fixed point here. The residual,
        iterations and tolerance are the full solve's.
        """
        w0 = self._checked(w0, "w0")
        r = fixed_points(self.game, self.eta, [self.target(w0)])[0]
        return ReducedFixedPoint(w=r.x.sum(axis=1), residual=r.residual,
                                 iterations=r.iterations, converged=r.converged)


def recover_configuration_limit(game: PopulationGame, eta: float, w_star) -> np.ndarray:
    """Configuration limit x* = G(cbar(w*)) at a reduced fixed point w*.

    w* must map to itself within an l1 residual of 1e-8.
    """
    sys = ReducedSystem(game, eta)
    w_star = sys._checked(w_star, "w_star")
    x_star = sys.target(w_star)
    residual = float(np.abs(x_star.sum(axis=1) - w_star).sum())
    if residual > 1e-8:
        raise ValueError(f"w_star is not a reduced fixed point: residual "
                         f"{residual:.3e} > 1e-08")
    return x_star


# ---------------------------------------------------------------------------
# Trajectory-pair contraction fit


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential decay rate of an l1 distance sequence."""

    rate: float | None
    residual_rms: float | None
    n_points: int
    non_monotone: bool
    defined: bool


def l1_contraction_test(traj_a: Trajectory, traj_b: Trajectory,
                        aggregate: bool = False) -> RateFit:
    """Fit log distance vs time between two trajectories on one time grid.

    ``aggregate`` fits the per-action total flows instead of full states.
    Points with distance at or below 1e-14 are dropped from the fit
    (they are dominated by roundoff); fewer than two distances above 1e-14
    yield an undefined rate, flagged via ``defined=False``.
    """
    if not np.array_equal(traj_a.times, traj_b.times):
        raise ValueError("trajectories must share one time grid")
    if aggregate:
        diff = traj_a.aggregate_flows() - traj_b.aggregate_flows()
        d = np.abs(diff).sum(axis=1)
    else:
        diff = traj_a.states - traj_b.states
        d = np.abs(diff).sum(axis=(1, 2))
    grow = d[1:] > d[:-1] * (1 + 1e-12) + 1e-14
    non_monotone = bool(np.any(grow))
    keep = d > 1e-14
    if keep.sum() < 2:
        return RateFit(rate=None, residual_rms=None,
                       n_points=int(keep.sum()), non_monotone=non_monotone,
                       defined=False)
    t = traj_a.times[keep]
    logd = np.log(d[keep])
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, logd, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - logd) ** 2)))
    return RateFit(rate=-float(coef[0]), residual_rms=resid,
                   n_points=int(keep.sum()), non_monotone=non_monotone,
                   defined=True)
