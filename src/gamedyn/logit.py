"""Noisy best-response map: evaluation, Jacobian, fixed points, contraction.

The map sends a configuration x to per-population softmax distributions over
negative costs scaled by a noise level eta, times the population masses. Its
fixed points, local stability, and sampled l1 contraction certificates drive
everything downstream.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .game import (
    PopulationGame,
    evaluate_costs,
    validate_configuration,
    sample_configuration,
    monomorphic_vertices,
    classify_equilibrium,
    cost_jacobian,
)

log = logging.getLogger(__name__)

# damped steps before a fixed-point solve gives up
MAX_ITER = 10 ** 5


def _shifted_exp(game: PopulationGame, c: np.ndarray, eta: float):
    """exp(-(c - cmin_p)/eta) on valid entries (0 elsewhere), and its column sums.

    Works over the last two axes, so c may be one (S,P) cost matrix or a
    stack of them. Off the mask c is read as +inf, whatever it holds (NaN and
    -inf too). The per-population minimum cost cmin_p keeps every exponent at
    or below zero, so nothing overflows for eta down to 1e-4 with costs of
    any magnitude.
    """
    z = np.where(game.mask, c, np.inf)
    e = np.exp((z.min(axis=-2, keepdims=True) - z) / eta)
    return e, e.sum(axis=-2, keepdims=True)


def softmax_target(game: PopulationGame, c: np.ndarray, eta: float) -> np.ndarray:
    """Mass-weighted per-population softmax of -c/eta.

    This sits in the innermost loop of every solver; keep it free of
    Python-level population loops.
    """
    e, total = _shifted_exp(game, c, eta)
    return game.masses * e / total


def logit_map(game: PopulationGame, x, eta: float) -> np.ndarray:
    """Target configuration F(x, eta) of the noisy best-response map (of each slice of a stack)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    return softmax_target(game, evaluate_costs(game, x), eta)


def _noise_free_parts(game: PopulationGame, points) -> tuple[np.ndarray, np.ndarray]:
    """Costs (N,S,P) and partials (N,P,S,n) at N points; neither depends on eta.

    The partials' [k, p, i, m] entry is d c_ip / d x at the m-th valid pair
    (population-major) at point k, zero off the mask.
    """
    X = np.asarray(np.stack(points), dtype=float)
    qs, js = np.nonzero(game.mask.T)
    D = np.stack([cost_jacobian(game, x)[:, :, js, qs] for x in X])
    D = np.where(game.mask[:, :, None], D, 0.0)
    # C-contiguous (P,S,n) blocks, so the stacked product makes one BLAS call
    # per population and rounds like a per-population loop (strided operands
    # do not)
    return evaluate_costs(game, X), np.ascontiguousarray(D.transpose(0, 2, 1, 3))


def _jacobians(game: PopulationGame, c: np.ndarray, D: np.ndarray,
               eta: float) -> np.ndarray:
    """Logit Jacobians (N,n,n) from _noise_free_parts (N,S,P) and (N,P,S,n)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    e, total = _shifted_exp(game, c, eta)
    pi = np.ascontiguousarray((e / total).swapaxes(-1, -2))     # (..., P, S)
    avg = pi[..., None, :] @ D                                  # (..., P, 1, n)
    J = ((game.masses / eta)[:, None] * pi)[..., None] * (avg - D)
    qs, js = np.nonzero(game.mask.T)
    return J[..., qs, js, :]


def logit_jacobian(game: PopulationGame, x, eta: float) -> np.ndarray:
    """Analytic Jacobian of logit_map with respect to x.

    Rows and columns run over game.valid_pairs (population-major), with
    d F_ip / d x_jq = (v_p / eta) * pi_ip * (sum_s pi_sp dc_sp/dx_jq - dc_ip/dx_jq)
    and pi the softmax weights. Cost partials come from the field's analytic
    form when present, otherwise central finite differences. Contraction
    margins run the same kernel on a stack of points.
    """
    return _jacobians(game, *_noise_free_parts(game, [x]), eta)[0]


@dataclass(frozen=True)
class StabilityInfo:
    l1_log_norm: float
    spectral_abscissa: float
    locally_stable: bool


@dataclass(frozen=True)
class FixedPointResult:
    x: np.ndarray
    residual: float
    iterations: int
    converged: bool
    eta: float
    stability: StabilityInfo | None


def _column_measure(M: np.ndarray):
    """l1 log-norm: max over columns of diagonal plus off-diagonal abs sum.

    M may be a stack of square matrices; the result is then one per matrix.
    """
    d = np.diagonal(M, axis1=-2, axis2=-1)
    return np.max(d + np.abs(M).sum(axis=-2) - np.abs(d), axis=-1)


def _stabilities(J: np.ndarray) -> list[StabilityInfo]:
    """Stability of x' = F - x from each logit Jacobian J_F of a stack (N,n,n)."""
    M = J - np.eye(J.shape[-1])
    pairs = zip(_column_measure(M).tolist(), np.linalg.eigvals(M).real.max(axis=-1).tolist())
    return [StabilityInfo(mu, a, a < 0.0) for mu, a in pairs]


def local_stability(game: PopulationGame, x, eta: float) -> StabilityInfo:
    """Stability of the dynamics x' = F - x at a point, from J_F - I."""
    return _stabilities(logit_jacobian(game, x, eta)[None])[0]


def residual_floor(game: PopulationGame, c: np.ndarray, eta: float) -> float:
    """Roundoff floor for the l1 fixed-point residual at noise level eta.

    The softmax exponent carries the absolute error of the costs amplified
    by 1/eta, so requesting residuals below eps * mass * |c| / eta is asking
    for noise. The constant is empirical with margin.
    """
    cabs = float(np.abs(np.where(game.mask, c, 0.0)).max())
    return 256.0 * np.finfo(float).eps * max(1.0, game.total_mass()) * (1.0 + cabs / eta)


def _damping(x, rho, tol_of, max_iter: int):
    """The damping rule, as a generator: x <- (1-lam)x + lam phi(x) until the
    l1 residual meets tol_of(x).

    The damped update has iteration matrix (1-lam)I + lam*J with J the
    Jacobian of phi; with rho(x) an upper bound on |eig(J)|, lam = 1.5/(1+rho)
    keeps the stiffest mode inside the unit disk with factor <= 0.5 to spare.
    The cap has ceiling 0.5 at the start; every 250 steps it is re-sized at
    the current iterate with ceiling 1 (and tol_of is re-read), since
    stiffness varies across the polytope at small eta. lam halves whenever a
    step still increases the residual, and creeps back toward the cap after a
    run of accepted steps. Yields the start, then each damped trial point,
    and is sent back each one's (phi, l1 residual); returns (best x, its
    residual, iterations, converged).
    """
    def cap_at(x, ceiling):
        return min(ceiling, 1.5 / (1.0 + rho(x)))

    F, r = yield x
    cap = cap_at(x, 0.5)
    lam = cap
    tol = tol_of(x)
    best_x, best_r = x, r
    accepts = 0
    it = 0
    while it < max_iter and best_r > tol:
        it += 1
        if it % 250 == 0:
            cap = cap_at(x, 1.0)
            lam = cap
            accepts = 0
            tol = tol_of(x)
        x_new = (1.0 - lam) * x + lam * F
        F_new, r_new = yield x_new
        # 5% slack keeps roundoff jitter near the floor from collapsing lam;
        # genuine instability overshoots it within a few steps regardless
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


def damped_iteration(phi, x, rho, tol_of, *, max_iter: int):
    """Run the _damping rule from x, one phi call per step; returns its result."""
    run = _damping(x, rho, tol_of, max_iter)
    try:
        y = next(run)
        while True:
            F = phi(y)
            y = run.send((F, float(np.abs(F - y).sum())))
    except StopIteration as done:
        return done.value


def _sizing(game: PopulationGame, eta: float):
    """damped_iteration's rho and tol_of for logit_map at eta (see fixed_point)."""
    return (lambda y: float(np.abs(logit_jacobian(game, y, eta)).sum(axis=0).max()),
            lambda y: max(1e-10, residual_floor(game, evaluate_costs(game, y), eta)))


def _result(eta, x, r, it, converged, stability) -> FixedPointResult:
    """One solve's result; a solve that did not converge is logged."""
    if not converged:
        log.warning("fixed_point: no convergence after %d iterations "
                    "(eta=%g, residual=%.3e)", it, eta, r)
    return FixedPointResult(x=x, residual=r, iterations=it,
                            converged=converged, eta=float(eta), stability=stability)


def fixed_point(game: PopulationGame, eta: float, x0, *,
                max_iter: int = MAX_ITER) -> FixedPointResult:
    """Fixed point of logit_map by damped_iteration, to an l1 residual of 1e-10.

    The damping cap is sized from the l1 column norm of the map Jacobian.
    The effective tolerance never goes below the roundoff residual_floor.
    The best iterate seen is always returned; non-convergence is reported in
    the flags, never raised.
    """
    x, r, it, converged = damped_iteration(
        lambda y: logit_map(game, y, eta), validate_configuration(game, x0),
        *_sizing(game, eta), max_iter=max_iter)
    return _result(eta, x, r, it, converged,
                   local_stability(game, x, eta) if converged else None)


def fixed_points(game: PopulationGame, eta: float, x0s) -> list[FixedPointResult]:
    """fixed_point from each start in x0s, solved in lockstep.

    Each step evaluates the map and residuals once for the stack of unfinished
    solves; stability is one stacked pass. Each solve keeps its own damping
    state, so result k equals fixed_point(game, eta, x0s[k]) bit for bit.
    """
    rho, tol_of = _sizing(game, eta)
    runs = [_damping(validate_configuration(game, x0), rho, tol_of, MAX_ITER)
            for x0 in x0s]
    trials = {k: next(run) for k, run in enumerate(runs)}
    done = [None] * len(runs)
    while trials:
        X = np.stack(list(trials.values()))
        F = logit_map(game, X, eta)
        # l1 residuals rounded as damped_iteration rounds each one
        R = np.abs(F - X).reshape(len(X), -1).sum(axis=1).tolist()
        for k, f, r in zip(list(trials), F, R):
            try:
                trials[k] = runs[k].send((f, r))
            except StopIteration as stop:
                done[k] = stop.value
                del trials[k]
    xs = [x for x, _, _, converged in done if converged]
    infos = iter(_stabilities(_jacobians(game, *_noise_free_parts(game, xs), eta))
                 if xs else [])
    return [_result(eta, *d, next(infos) if d[3] else None) for d in done]


@dataclass(frozen=True)
class ContractionReport:
    margin: float
    rate_c: float
    samples_used: int
    certified: bool
    eta: float


def contraction_points(game: PopulationGame, sample_count: int = 200,
                       rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Sample set for contraction certification: uniform draws plus vertices."""
    rng = rng if rng is not None else np.random.default_rng(0)
    pts = [sample_configuration(game, rng) for _ in range(sample_count)]
    pts.extend(monomorphic_vertices(game))
    return pts


def _margin_of(game: PopulationGame, points):
    """eta -> sampled margin over a fixed point set (see contraction_margin).

    Costs and cost partials do not depend on eta, so they are built once
    here; each eta then costs one stacked softmax, one stacked product and
    one column measure over all points.
    """
    if len(points) == 0:
        raise ValueError("contraction margin needs at least one point")
    C, D = _noise_free_parts(game, points)
    eye = np.eye(D.shape[-1])
    return lambda eta: float(np.max(_column_measure(_jacobians(game, C, D, eta) - eye)))


def contraction_margin(game: PopulationGame, eta: float,
                       rng: np.random.Generator | None = None,
                       points: list[np.ndarray] | None = None) -> ContractionReport:
    """Sampled column-dominance margin of J_F - I over the configuration set.

    ``points`` defaults to contraction_points(game, 200, rng). margin < 0 on
    every sample certifies an l1 contraction at rate -margin on the samples
    (evidence, not proof: the true condition quantifies over all of the
    polytope).
    """
    if points is None:
        points = contraction_points(game, rng=rng)
    margin = _margin_of(game, points)(eta)
    certified = margin < 0.0
    return ContractionReport(margin=margin,
                             rate_c=-margin if certified else 0.0,
                             samples_used=len(points), certified=certified,
                             eta=float(eta))


def high_noise_threshold(game: PopulationGame, eta_lo: float = 0.05,
                         eta_hi: float = 1000.0,
                         rng: np.random.Generator | None = None) -> float:
    """Smallest tested eta whose sampled contraction margin is negative.

    Bisects log(eta) on the certification predicate down to a bracket ratio
    of 1.01, reusing one set of 200 sampled points (plus the vertices) across
    all margin evaluations so the predicate is a fixed function of eta.
    Returns eta_lo outright when even eta_lo certifies.
    """
    if not (0 < eta_lo < eta_hi):
        raise ValueError("need 0 < eta_lo < eta_hi")
    margin = _margin_of(game, contraction_points(game, rng=rng))

    def certified(eta):
        return margin(eta) < 0.0

    if certified(eta_lo):
        return float(eta_lo)
    if not certified(eta_hi):
        raise ValueError(f"margin not certified even at eta_hi={eta_hi}; "
                         "widen the bracket upward")
    lo, hi = float(eta_lo), float(eta_hi)
    while hi / lo > 1.01:
        mid = float(np.sqrt(lo * hi))
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Strict-equilibrium basin estimate


@dataclass(frozen=True)
class StrictBasinEstimate:
    epsilon_bar: float
    eta_epsilon: float
    alpha: float
    o_set_description: dict

    def contains(self, game: PopulationGame, x, epsilon: float | None = None) -> bool:
        """Membership in the per-population lower-bound set O_eps."""
        eps = self.epsilon_bar if epsilon is None else epsilon
        x = np.asarray(x, dtype=float)
        for pop_id, (action_id, _) in self.o_set_description.items():
            p = game.population_index(pop_id)
            i = game.action_index(action_id)
            if x[i, p] < game.masses[p] * (1.0 - eps) - 1e-12:
                return False
        return True


def _basin_samples(game: PopulationGame, support: dict[int, int], eps: float,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Points of O_eps: up to 512 per-population corner deficits plus 50 random interiors.

    Corners put the full deficit v_p*eps on a single alternative action; they
    realize the worst cost gap when costs are monotone in the flows.
    """
    active = [int(p) for p in game.active_populations]
    out = []
    # corner configurations: all populations at full deficit, one alternative each
    per_pop_corners = []
    for p in active:
        s = game.action_set(p)
        sp = support[p]
        alts = [j for j in s if j != sp]
        cols = []
        for j in alts:
            col = np.zeros(game.n_actions)
            col[sp] = game.masses[p] * (1.0 - eps)
            col[j] = game.masses[p] * eps
            cols.append(col)
        if not cols:
            col = np.zeros(game.n_actions)
            col[sp] = game.masses[p]
            cols.append(col)
        per_pop_corners.append(cols)
    counts = [len(c) for c in per_pop_corners]
    total = int(np.prod(counts))
    for flat in range(min(total, 512)):
        x = np.zeros((game.n_actions, game.n_pops))
        rem = flat
        for k, p in enumerate(active):
            rem, idx = divmod(rem, counts[k])
            x[:, p] = per_pop_corners[k][idx]
        out.append(x)
    for _ in range(50):
        x = np.zeros((game.n_actions, game.n_pops))
        for p in range(game.n_pops):
            s = game.action_set(p)
            sp = support.get(p)
            if sp is None or game.masses[p] == 0:
                if len(s):
                    x[s, p] = game.masses[p] / len(s)
                continue
            deficit = game.masses[p] * eps * rng.uniform()
            x[sp, p] = game.masses[p] - deficit
            alts = np.array([j for j in s if j != sp])
            if len(alts):
                g = rng.exponential(size=len(alts))
                x[alts, p] = deficit * g / g.sum()
            else:
                x[sp, p] = game.masses[p]
        out.append(x)
    return out


def strict_basin_estimate(game: PopulationGame, x_star, *,
                          rng: np.random.Generator | None = None) -> StrictBasinEstimate:
    """Basin radius and noise bound for a strict equilibrium.

    epsilon_bar is the largest grid eps (20 linear steps 1 -> 0.05, then 10
    geometric 0.04 -> 1e-3) such that every sampled point of O_eps (support
    actions hold at least v_p(1-eps)) keeps the cost gap of every population
    at or above alpha/2. eta_epsilon is the largest grid eta (60 geometric
    steps 10 -> 1e-4) for which the map sends sampled O_epsilon_bar points
    back into the set. Both are sampling estimates.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    x_star = validate_configuration(game, x_star)
    rep = classify_equilibrium(game, x_star)
    if not rep.is_strict:
        raise ValueError("x_star is not a strict equilibrium")
    alpha = rep.cost_gap_alpha
    support = {}
    for p in game.active_populations:
        s = game.action_set(p)
        support[int(p)] = int(s[np.argmax(x_star[s, p])])

    def gap_ok(eps):
        for x in _basin_samples(game, support, eps, rng):
            c = evaluate_costs(game, x)
            for p in game.active_populations:
                s = game.action_set(p)
                sp = support[int(p)]
                others = s[s != sp]
                if len(others) and float((c[others, p] - c[sp, p]).min()) < alpha / 2:
                    return False
        return True

    epsilon_bar = None
    for eps in np.concatenate([np.linspace(1.0, 0.05, 20), np.geomspace(0.04, 1e-3, 10)]):
        if gap_ok(float(eps)):
            epsilon_bar = float(eps)
            break
    if epsilon_bar is None:
        raise ValueError("no grid epsilon kept the sampled cost gap above alpha/2")

    def invariant_under(eta):
        for x in _basin_samples(game, support, epsilon_bar, rng):
            F = logit_map(game, x, eta)
            for p in game.active_populations:
                sp = support[int(p)]
                if F[sp, p] < game.masses[p] * (1.0 - epsilon_bar) - 1e-12:
                    return False
        return True

    eta_epsilon = None
    for eta in np.geomspace(10.0, 1e-4, 60):
        if invariant_under(float(eta)):
            eta_epsilon = float(eta)
            break
    if eta_epsilon is None:
        raise ValueError("no grid eta down to 1e-4 kept the sampled basin invariant")
    desc = {game.populations[p]: (game.actions[support[p]],
                                  float(game.masses[p] * (1.0 - epsilon_bar)))
            for p in support}
    return StrictBasinEstimate(epsilon_bar=epsilon_bar, eta_epsilon=eta_epsilon,
                               alpha=float(alpha), o_set_description=desc)
