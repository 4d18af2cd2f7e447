"""Noisy best-response map: evaluation, Jacobian, fixed points, contraction.

The map sends a configuration x to per-population softmax distributions over
negative costs scaled by a noise level eta, times the population masses. Its
fixed points, local stability, and sampled l1 contraction certificates drive
everything downstream.
"""
from __future__ import annotations

import logging
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .game import (
    ConfigurationError,
    PopulationGame,
    evaluate_costs,
    validate_configuration,
    sample_configurations,
    monomorphic_vertices,
    cost_jacobian,
)

log = logging.getLogger(__name__)

# damped steps before damped_iteration gives up
MAX_ITER = 10 ** 5
# corrector steps before a fixed_points start stops unconverged
NEWTON_STEPS = 1000
# largest l1 residual tolerance a solve accepts, per unit of mass (at least 1)
TOL_BOUND = 1e-6
# the eta bracket high_noise_threshold bisects: its floor and its ceiling
THRESHOLD_FLOOR, THRESHOLD_CEILING = 0.05, 1000.0


def _shifted_exp(game: PopulationGame, c: np.ndarray, eta: float):
    """exp(-(c - cmin_p)/eta) on valid entries (0 elsewhere), and its column sums.

    Works over the last two axes, so c may be one (S,P) cost matrix or a
    stack of them, with one eta or one per slice (N,1,1). Off the mask c is
    read as +inf, whatever it holds (NaN and -inf too). The per-population
    minimum cost cmin_p keeps every exponent at or below zero, so nothing
    overflows for eta down to 1e-4 with costs of any magnitude.
    """
    z = c if game._full_mask else np.where(game.mask, c, np.inf)
    # ufunc reductions skip ndarray.min/sum's Python wrappers (once per RK4 stage)
    e = np.exp((np.minimum.reduce(z, -2, keepdims=True) - z) / eta)
    return e, np.add.reduce(e, -2, keepdims=True)


def softmax_target(game: PopulationGame, c: np.ndarray, eta: float) -> np.ndarray:
    """Mass-weighted per-population softmax of -c/eta.

    This sits in the innermost loop of every solver; keep it free of
    Python-level population loops.
    """
    e, total = _shifted_exp(game, c, eta)
    return game.masses * e / total


def logit_map(game: PopulationGame, x, eta: float) -> np.ndarray:
    """Target configuration F(x, eta) of the noisy best-response map (of each slice of a stack)."""
    if not eta > 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    return softmax_target(game, evaluate_costs(game, x), eta)


def _noise_free_parts(game: PopulationGame, points) -> tuple[np.ndarray, np.ndarray]:
    """Costs (N,S,P) and partials (N,P,S,n) at N points; neither depends on eta.

    The partials' [k, p, i, m] entry is d c_ip / d x at the m-th valid pair
    (population-major) at point k, zero off the mask.
    """
    X = np.asarray(points, dtype=float)
    qs, js = np.nonzero(game.mask.T)
    D = np.where(game.mask[:, :, None], cost_jacobian(game, X)[..., js, qs], 0.0)
    # C-contiguous (P,S,n) blocks, so the stacked product makes one BLAS call
    # per population and rounds like a per-population loop (strided operands
    # do not)
    return evaluate_costs(game, X), np.ascontiguousarray(D.transpose(0, 2, 1, 3))


def _jacobians(game: PopulationGame, c: np.ndarray, D: np.ndarray,
               eta: float) -> np.ndarray:
    """Logit Jacobians (N,n,n) from _noise_free_parts (N,S,P), (N,P,S,n) at eta or (N,1,1) etas."""
    if not np.all(eta > 0):
        raise ValueError("eta must be positive")
    e, total = _shifted_exp(game, c, eta)
    pi = np.ascontiguousarray((e / total).swapaxes(-1, -2))     # (..., P, S)
    avg = pi[..., None, :] @ D                                  # (..., P, 1, n)
    J = (game.masses[:, None] / eta * pi)[..., None] * (avg - D)
    qs, js = np.nonzero(game.mask.T)
    return J[..., qs, js, :]


def logit_jacobian(game: PopulationGame, x, eta: float) -> np.ndarray:
    """Analytic Jacobian of logit_map with respect to x.

    Rows and columns run over game.valid_pairs (population-major), with
    d F_ip / d x_jq = (v_p / eta) * pi_ip * (sum_s pi_sp dc_sp/dx_jq - dc_ip/dx_jq)
    and pi the softmax weights. Cost partials come from the field's own
    jacobian. Contraction margins run the same kernel on a stack of points.
    """
    return _jacobians(game, *_noise_free_parts(game, [x]), eta)[0]


@dataclass(frozen=True, slots=True)
class StabilityInfo:
    l1_log_norm: float
    spectral_abscissa: float
    locally_stable: bool


@dataclass(frozen=True, slots=True)
class FixedPointResult:
    """A solve's point: fixed_point's best iterate, or a FixedPointStack entry.
    iterations counts damped_iteration steps for fixed_point, and corrector
    steps for every fixed_points start."""

    x: np.ndarray
    residual: float
    iterations: int
    converged: bool
    eta: float
    stability: StabilityInfo | None


@dataclass(frozen=True, slots=True)
class FixedPointStack(Sequence):
    """fixed_points' fields as arrays over starts (stabilities NaN where not
    converged). stack[k], for an integer k, builds start k's FixedPointResult
    from row k of the arrays, with a copy of x[k]."""

    x: np.ndarray                       # (N, S, P)
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    eta: np.ndarray
    l1_log_norm: np.ndarray
    spectral_abscissa: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, k) -> FixedPointResult:
        k = range(len(self.x))[operator.index(k)]
        mu, a = self.l1_log_norm[k].item(), self.spectral_abscissa[k].item()
        return FixedPointResult(
            self.x[k].copy(), self.residual[k].item(), self.iterations[k].item(),
            self.converged[k].item(), self.eta[k].item(),
            StabilityInfo(mu, a, a < 0.0) if self.converged[k] else None)


def _column_measure(M: np.ndarray):
    """l1 log-norm: max over columns of diagonal plus off-diagonal abs sum.

    M may be a stack of square matrices; the result is then one per matrix.
    """
    d = np.diagonal(M, axis1=-2, axis2=-1)
    return np.max(d + np.abs(M).sum(axis=-2) - np.abs(d), axis=-1)


def _stabilities(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """l1 log-norms and spectral abscissas (N,) of x' = F - x from each logit
    Jacobian J_F of a stack (N,n,n); negative abscissa is local stability."""
    M = J - np.eye(J.shape[-1])
    return _column_measure(M), np.linalg.eigvals(M).real.max(axis=-1)


def local_stability(game: PopulationGame, x, eta: float) -> StabilityInfo:
    """Stability of the dynamics x' = F - x at a point, from J_F - I."""
    mu, a = (v.item() for v in _stabilities(logit_jacobian(game, x, eta)[None]))
    return StabilityInfo(mu, a, a < 0.0)


def residual_floor(game: PopulationGame, c: np.ndarray, eta: float) -> float:
    """Roundoff floor for the l1 fixed-point residual at eta (per slice of a stack).

    The softmax exponent carries the absolute error of the costs amplified
    by 1/eta, so requesting residuals below eps * mass * |c| / eta is asking
    for noise. The constant is empirical with margin.
    """
    cabs = np.abs(np.where(game.mask, c, 0.0)).max(axis=(-2, -1))
    return 256.0 * np.finfo(float).eps * max(1.0, game.total_mass()) * (1.0 + cabs / eta)


def _tolerance(game: PopulationGame, c: np.ndarray, eta):
    """l1 residual tolerance of a solve at eta (per slice of a stack): 1e-10,
    never below residual_floor. Where that passes TOL_BOUND * max(1, V), no
    residual means anything, so it is NaN: no residual meets it."""
    tol = np.maximum(1e-10, residual_floor(game, c, eta))
    return np.where(tol <= TOL_BOUND * max(1.0, game.total_mass()), tol, np.nan)


def damped_iteration(game: PopulationGame, eta: float, x):
    """Damped Picard x <- (1-lam)x + lam*logit_map(x) from x, to an l1
    residual of _tolerance, in at most MAX_ITER steps.

    The damped update has iteration matrix (1-lam)I + lam*J with J the logit
    Jacobian; with rho its l1 column norm, an upper bound on |eig(J)|, lam =
    1.5/(1+rho) keeps the stiffest mode inside the unit disk with factor
    <= 0.5 to spare. The cap has ceiling 0.5 at the start; every 250 steps it
    is re-sized at the current iterate with ceiling 1 (and the tolerance is
    re-read), since stiffness varies across the polytope at small eta. From
    the second re-size on, 250 steps without a better iterate halve the cap
    instead, as the local norm can miss the stiff mode of a 2-cycle. lam
    halves whenever a step still increases the residual, and creeps back
    toward the cap after a run of accepted steps. Returns (best x, its
    residual, iterations, converged).
    """
    def cap_at(x, ceiling):
        rho = float(np.abs(logit_jacobian(game, x, eta)).sum(axis=0).max())
        return min(ceiling, 1.5 / (1.0 + rho))

    def tol_at(x):
        return float(_tolerance(game, evaluate_costs(game, x), eta))

    F = logit_map(game, x, eta)
    cap = lam = cap_at(x, 0.5)
    r = float(np.abs(F - x).sum())
    tol = tol_at(x)
    best_x, best_r = x, r
    mark = np.inf  # best residual at the last re-size
    accepts = it = 0
    while it < MAX_ITER and best_r > tol:
        it += 1
        if it % 250 == 0:
            cap = lam = cap_at(x, 1.0) if best_r < mark else 0.5 * cap
            mark = best_r
            accepts = 0
            tol = tol_at(x)
        x_new = (1.0 - lam) * x + lam * F
        F_new = logit_map(game, x_new, eta)
        # ndarray.sum's reduction without its Python wrapper (~1.2M steps a sweep)
        r_new = float(np.add.reduce(np.abs(F_new - x_new), None))
        # 5% slack keeps roundoff jitter near the floor from collapsing lam;
        # a damped mode past -1 can still pass it in a steady 2-cycle, which
        # the halving at the re-size above breaks
        if r_new <= 1.05 * r or lam <= 1e-7:
            x, F, r = x_new, F_new, r_new
            if r < best_r:
                best_x, best_r = x, r
            accepts += 1
            if accepts >= 5:
                lam = min(cap, lam * 1.25)
                accepts = 0
        else:
            lam = max(1e-7, 0.5 * lam)
            accepts = 0
    return best_x, best_r, it, best_r <= tol


def fixed_point(game: PopulationGame, eta: float, x0) -> FixedPointResult:
    """Fixed point of logit_map by damped_iteration, to an l1 residual of 1e-10.

    The effective tolerance never goes below the roundoff residual_floor;
    where that floor passes TOL_BOUND the solve stops there, unconverged.
    The best iterate seen is always returned, in an array of its own (never
    x0 itself); non-convergence is logged with the floor and reported in the
    flags, never raised.
    """
    x, r, it, converged = damped_iteration(
        game, eta, validate_configuration(game, x0).copy())
    if not converged:
        log.warning("fixed_point: no convergence after %d iterations (eta=%g, "
                    "residual=%.3e, roundoff floor=%.3e, bound=%.3e)", it, eta, r,
                    residual_floor(game, evaluate_costs(game, x), eta),
                    TOL_BOUND * max(1.0, game.total_mass()))
    return FixedPointResult(x, r, it, converged, float(eta),
                            local_stability(game, x, eta) if converged else None)


def _points(game: PopulationGame, Z: np.ndarray):
    """Log-weights Z (N,S,P), -inf off the mask, in their gauge (each population's
    largest 0, so that exp keeps its digits), and the points m softmax(Z)."""
    Z = Z - np.maximum.reduce(Z, -2, keepdims=True)
    e = np.exp(Z)
    return Z, game.masses * e / np.add.reduce(e, -2, keepdims=True)


def _images(game: PopulationGame, C: np.ndarray, eta) -> tuple[np.ndarray, np.ndarray]:
    """_points of the map images at costs C (N,S,P) and etas (N,1,1): -C/eta, but no
    log-weight more than 36 (exp(-36) ~ eps) below its population's largest, since
    Newton in log-weights only halves the log-odds of one that lies deeper."""
    W = np.where(game.mask, C, np.inf) / eta
    W = np.minimum(W - np.minimum.reduce(W, -2, keepdims=True), 36.0)
    return _points(game, np.where(game.mask, -W, -np.inf))


def _armijo(game: PopulationGame, eta: np.ndarray, Z, C, A, qs, js):
    """Damped Newton steps Z + t d in log-weights, A d = -R, as _points; NaN where none is
    found. R is Z + C/eta (etas (N,1,1)) on the valid pairs centred per population, 0 at
    a fixed point; A leaves the centring out, which moves d by one constant per population.
    A slice takes the first t = 1, 1/2, ... down to 1e-8 that cuts |R|_2 by a factor
    1 - 1e-4 t (Armijo); all slices left try the same t, and a round over all of them
    (the first, if d is finite) reads a basic slice."""
    def residuals(Z, C, eta):
        W = Z + C / eta if game._full_mask else np.where(game.mask, Z + C / eta, 0.0)
        return (W - np.add.reduce(W, -2, keepdims=True) / np.add.reduce(game.mask, 0))[:, js, qs]

    R, d = residuals(Z, C, eta), np.zeros_like(Z)
    d[:, js, qs] = _solve(A, -R)
    r = np.sqrt(np.add.reduce(R * R, 1))
    out, X = np.full_like(Z, np.nan), np.full_like(Z, np.nan)
    t = 1.0
    todo = np.flatnonzero(np.isfinite(d).all(axis=(1, 2)))
    while len(todo):
        at = slice(None) if len(todo) == len(Z) else todo
        Y, Xt = _points(game, Z[at] + t * d[at])
        Rt = residuals(Y, evaluate_costs(game, Xt), eta[at])
        good = np.sqrt(np.add.reduce(Rt * Rt, 1)) <= (1.0 - 1e-4 * t) * r[at]
        out[todo[good]], X[todo[good]] = Y[good], Xt[good]
        t *= 0.5
        todo = todo[~good & (t >= 1e-8)]
    return out, X


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A x = b per slice of a stack (N,n,n), (N,n); NaN on the singular slices only."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return (np.full(b.shape, np.nan) if len(A) == 1 else
                np.concatenate([_solve(A[k:k + 1], b[k:k + 1]) for k in range(len(A))]))


def _restarts(game: PopulationGame, J: np.ndarray, X: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Unstable points X, moved in place halfway to the polytope boundary along v,
    the eigenvector of the logit Jacobian J with the largest real part of eigenvalue,
    signed by v.(x0 - x); NaN where that is 0 or NaN. Each population's rows of J
    sum to zero, so v keeps the masses; fixed_points goes on from their map images."""
    qs, js = np.nonzero(game.mask.T)
    x = X[:, js, qs]
    w, V = np.linalg.eig(J)
    v = np.take_along_axis(V, w.real.argmax(axis=1)[:, None, None], axis=2)[..., 0].real
    v *= np.sign((v * (X0[:, js, qs] - x)).sum(axis=1))[:, None]
    t = np.fmin.reduce(np.divide(x, -v, out=np.full_like(x, np.nan), where=v < 0), axis=1)
    X[:, js, qs] = x + 0.5 * t[:, None] * v
    return X


def fixed_points(game: PopulationGame, eta, x0s) -> FixedPointStack:
    """Fixed points from each start of a stack x0s (N, S, P), by one stacked Newton
    corrector in log-weights z = log(x/m), which have no boundary; eta is one value or
    one per start.

    Each start begins at its map image (_images). Each step makes one _noise_free_parts
    stack over the live starts and runs _jacobians and _stabilities on those that land
    (at _tolerance); the others take an _armijo step, or go to their map image where
    it finds none. A first unstable landing goes on from the map image of its _restarts
    point; one with no side to restart on, a second one or one at the last step is kept,
    converged. A start past TOL_BOUND, or out of NEWTON_STEPS, ends unconverged at its
    last point and warns once, in start order. No result depends on its stack-mates,
    not even in the last bit of its residual.
    """
    X0 = validate_configuration(game, np.array(x0s, dtype=float))
    if X0.ndim != 3:
        raise ConfigurationError(f"x0s has shape {X0.shape}, expected a stack (N, S, P) "
                                 f"of starts with (S, P) = {game.mask.shape}")
    eta = np.array(eta, dtype=float)   # a copy: the stack returned keeps it
    if eta.ndim > 1 or eta.size not in (1, len(X0)):
        raise ValueError(f"eta must be one value or one per start, got {eta.size} "
                         f"(shape {eta.shape}) for {len(X0)} starts")
    etas = np.broadcast_to(eta, len(X0))[:, None, None]
    if not np.all(etas > 0):
        raise ValueError("eta must be positive")
    qs, js = np.nonzero(game.mask.T)
    eye, block = np.eye(len(qs)), qs[:, None] == qs
    m = np.where(game.masses > 0, game.masses, 1.0)[qs]
    # per start, as of its last step; a start off the stack stays put in X
    converged, restarted = np.zeros((2, len(X0)), dtype=bool)
    residual, mu, abscissa = np.zeros((3, len(X0)))
    steps = np.zeros(len(X0), dtype=int)
    Z, X = _images(game, evaluate_costs(game, X0), etas)   # log-weights and points
    live = np.arange(len(X0))
    for step in range(NEWTON_STEPS + 1):
        if not len(live):
            break
        Xl, el = X[live], etas[live]   # gathered once for the whole step
        C, D = _noise_free_parts(game, Xl)
        # summed C-contiguous, so each row sums in the order it does alone
        r = np.abs(np.ascontiguousarray((softmax_target(game, C, el) - Xl)[:, js, qs])).sum(axis=1)
        tol = _tolerance(game, C, el[:, 0, 0])
        residual[live], steps[live] = r, step
        done = r <= tol
        converged[live[done]] = True
        if done.any():
            J = _jacobians(game, C[done], D[done], el[done])   # only where it lands
            mu[live[done]], abscissa[live[done]] = _stabilities(J)
        # first unstable landings restart, unless they have no side (NaN)
        u = done & ~(abscissa[live] < 0.0) & ~restarted[live] & (step < NEWTON_STEPS)
        ks = live[u]
        if len(ks):
            R = _restarts(game, J[u[done]], Xl[u], X0[ks])
            side = ~np.isnan(R).any(axis=(1, 2))
            ks = ks[side]
            Z[ks], X[ks] = _images(game, evaluate_costs(game, R[side]), etas[ks])
            restarted[ks], converged[ks] = True, False
        # a start past TOL_BOUND (NaN tol) neither lands nor goes on
        go = (r > tol) & (step < NEWTON_STEPS)
        if go.any():
            kg, eg = live[go], el[go]
            # Newton matrices I + D (dx/dz) / eta, dx/dz = x_a (delta_ab - x_b / m) per population
            x = Xl[go][:, js, qs]
            A = eye + D[go][:, qs, js] @ (x[:, :, None] * (eye - block * (x / m)[:, None, :])) / eg
            Z[kg], X[kg] = _armijo(game, eg, Z[kg], C[go], A, qs, js)
            no = np.isnan(X[kg, 0, 0])   # no step found, or a singular matrix
            if no.any():
                Z[kg[no]], X[kg[no]] = _images(game, C[go][no], eg[no])
        live = np.sort(np.concatenate([live[go], ks]))
    mu[~converged] = abscissa[~converged] = np.nan
    for k in np.flatnonzero(~converged).tolist():
        log.warning("fixed_points: start %d, no convergence after %d steps (eta=%g, residual="
                    "%.3e, roundoff floor=%.3e, bound=%.3e)", k, steps[k], etas[k, 0, 0],
                    residual[k], residual_floor(game, evaluate_costs(game, X[k]), etas[k, 0, 0]),
                    TOL_BOUND * max(1.0, game.total_mass()))
    return FixedPointStack(X, residual, steps, converged, etas[:, 0, 0], mu, abscissa)


def _margin_of(game: PopulationGame, rng: np.random.Generator | None):
    """eta -> sampled margin over 200 draws plus the vertices (see contraction_margin).

    Costs and cost partials do not depend on eta, so they are built once
    here; each eta then costs one stacked softmax, one stacked product and
    one column measure over all points.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    C, D = _noise_free_parts(game, [*sample_configurations(game, rng, 200),
                                    *monomorphic_vertices(game)])
    eye = np.eye(D.shape[-1])
    return lambda eta: float(np.max(_column_measure(_jacobians(game, C, D, eta) - eye)))


def contraction_margin(game: PopulationGame, eta: float,
                       rng: np.random.Generator | None = None) -> float:
    """Sampled column-dominance margin of J_F - I over the configuration set.

    The samples are 200 uniform draws from rng plus the vertices. margin < 0
    on every sample certifies an l1 contraction at rate -margin on the
    samples (evidence, not proof: the true condition quantifies over all of
    the polytope).
    """
    return _margin_of(game, rng)(eta)


def high_noise_threshold(game: PopulationGame, rng: np.random.Generator | None = None) -> float:
    """Smallest tested eta whose sampled contraction margin is negative.

    Bisects log(eta) from THRESHOLD_FLOOR to THRESHOLD_CEILING on the
    certification predicate down to a bracket ratio of 1.01, reusing one set
    of 200 sampled points (plus the vertices) across all margin evaluations,
    so the predicate is a fixed function of eta. Returns the floor outright
    when it certifies; raises ValueError when not even the ceiling does.
    """
    margin = _margin_of(game, rng)
    if margin(THRESHOLD_FLOOR) < 0.0:
        return THRESHOLD_FLOOR
    if not margin(THRESHOLD_CEILING) < 0.0:
        raise ValueError(f"margin not certified even at the ceiling eta = {THRESHOLD_CEILING:g}")
    lo, hi = THRESHOLD_FLOOR, THRESHOLD_CEILING
    while hi / lo > 1.01:
        mid = float(np.sqrt(lo * hi))
        if margin(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi
