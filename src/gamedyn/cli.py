"""Command-line surface: scenario runs and bit-exact CSV emission.

Commands: simulate, fixed-point, sweep, bifurcation, classify, verify,
reproduce-wheatstone. Exit codes: 0 success, 1 scenario/validation failure,
2 numerical failure. All floats are written with 17 significant digits and
LF line endings, so identical scenario bytes and seed give identical files.
"""
from __future__ import annotations

import argparse
import logging
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .game import (
    ConfigurationError,
    CostEvalError,
    PopulationGame,
    classify_equilibrium,
    monomorphic_vertices,
    potential_symmetry_check,
    uniform_configuration,
    vertex_configuration,
)
from .logit import fixed_points
from .dynamics import (
    Trajectory,
    exact_target_check,
    integrate,
    monotonicity_check,
)
from .analysis import continuation_sweep, bifurcation_scan
from .routing import RouteError, RoutingGame, link_flow, decoupled_check
from .scenario import MAX_STEPS, Scenario, ScenarioError, load_scenario

log = logging.getLogger(__name__)
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


class NumericalFailure(RuntimeError):
    """A solver or integrator failed to meet its tolerance."""


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _derive_rng(seed: int, stream: int) -> np.random.Generator:
    # counter-based splitting: one root seed, disjoint child streams
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(stream,)))


def _x_headers(game: PopulationGame) -> list[str]:
    return [f"x_{a}_{p}" for a in game.actions for p in game.populations]


def _write_lines(path: Path, lines, rows=None) -> None:
    """Write each text line, then each row of the float array rows as CSV with
    17 significant digits, LF-terminated.

    Rows go out 256 at a time, formatted by one precomposed template, so the
    writer's memory does not grow with the file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)
        if rows is not None:
            row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for k in range(0, len(rows), 256):
                block = rows[k:k + 256]
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path: Path, traj: Trajectory, game: PopulationGame,
                         rgame: RoutingGame | None = None) -> None:
    header = ["t"] + _x_headers(game) + [f"w_{a}" for a in game.actions]
    cols = [traj.times[:, None], traj.states.reshape(len(traj.times), -1),
            traj.aggregate_flows()]
    if rgame is not None:
        header += [f"y_{lid}" for lid in rgame.route_set.link_ids]
        cols.append(link_flow(rgame.route_set, traj.states))
    _write_lines(path, [",".join(header)], np.hstack(cols))


def write_sweep_csv(path: Path, curves, game: PopulationGame) -> None:
    header = ["eta", "branch_id", "residual", "stable", "l1_margin"] + _x_headers(game)
    n_grid = max(len(c.etas) for c in curves)
    rows = [[c.etas[k], b, c.residuals[k], c.stable[k], c.l1_margins[k],
             *c.points[k].reshape(-1)]
            for k in range(n_grid) for b, c in enumerate(curves) if k < len(c.etas)]
    _write_lines(path, [",".join(header)], np.array(rows, dtype=float))


def write_bifurcation_csv(path: Path, sweep) -> None:
    _write_lines(path, ["eta,n_fixed_points,n_stable"],
                 np.column_stack([sweep.etas, sweep.n_fixed_points, sweep.n_stable]))


def write_fixed_point_csv(path: Path, result, game: PopulationGame) -> None:
    header = (["eta", "residual", "iterations", "converged", "l1_log_norm",
               "spectral_abscissa", "locally_stable"] + _x_headers(game))
    st = result.stability
    stability = ((st.l1_log_norm, st.spectral_abscissa, st.locally_stable) if st
                 else (np.nan, np.nan, 0))
    vals = [result.eta, result.residual, result.iterations, result.converged,
            *stability, *result.x.reshape(-1)]
    _write_lines(path, [",".join(header)], np.array([vals], dtype=float))


# ---------------------------------------------------------------------------
# Commands


def _cmd_simulate(scn: Scenario, out: Path, seed: int, quiet: bool) -> None:
    game, rgame = scn.build_game()
    x0 = scn.initial_configuration(game, _derive_rng(seed, 0))
    traj = integrate(game, scn.eta(), x0, *scn.time_grid())
    path = out / "trajectory.csv"
    write_trajectory_csv(path, traj, game, rgame)
    if not quiet:
        print(f"wrote {path} ({len(traj.times)} records, "
              f"mass drift {traj.mass_drift:.2e})")


def _cmd_fixed_point(scn: Scenario, out: Path, seed: int, quiet: bool) -> None:
    game, _ = scn.build_game()
    eta = scn.eta()
    x0 = scn.initial_configuration(game, _derive_rng(seed, 0))
    result = fixed_points(game, eta, [x0])[0]
    path = out / "fixed_point.csv"
    write_fixed_point_csv(path, result, game)
    if not result.converged:
        raise NumericalFailure(f"fixed-point solve stalled at residual "
                               f"{result.residual:.3e} (eta={eta:g})")
    if not quiet:
        print(f"wrote {path} (residual {result.residual:.2e}, "
              f"{result.iterations} iterations)")


def _sweep_to_csv(path: Path, game: PopulationGame, grid, seeds) -> list:
    """Continuation branches from seeds down the noise grid, written to path."""
    curves = continuation_sweep(game, grid, seeds)
    if not curves:
        raise NumericalFailure(f"no continuation branch converged at eta_hi={float(grid[0])}")
    write_sweep_csv(path, curves, game)
    return curves


def _cmd_sweep(scn: Scenario, out: Path, seed: int, quiet: bool) -> None:
    game, _ = scn.build_game()
    grid = scn.noise_grid(steps=60)
    path = out / "sweep.csv"
    seeds = monomorphic_vertices(game) + [uniform_configuration(game)]
    curves = _sweep_to_csv(path, game, grid, seeds)
    if not quiet:
        print(f"wrote {path} ({len(curves)} branch(es), "
              f"eta {grid[0]:g} down to {grid[-1]:g})")


def _cmd_bifurcation(scn: Scenario, out: Path, seed: int, quiet: bool) -> None:
    game, _ = scn.build_game()
    grid = scn.noise_grid(steps=25)
    multistart = scn.run_int("multistart", 8)
    if multistart < 4:
        raise ScenarioError(f"{scn.path}: [run] multistart must be at least 4, "
                            f"got {multistart}")
    starts = len(grid) * (multistart + len(monomorphic_vertices(game)))
    if starts > MAX_STEPS:
        raise ScenarioError(f"{scn.path}: [run] multistart = {multistart} and steps = {len(grid)} "
                            f"ask for {starts} census starts, more than the {MAX_STEPS} limit")
    sweep = bifurcation_scan(game, grid, multistart=multistart, rng=_derive_rng(seed, 1))
    path = out / "bifurcation.csv"
    write_bifurcation_csv(path, sweep)
    untrusted = sweep.etas[sweep.n_fixed_points == 0]
    if len(untrusted):
        raise NumericalFailure(f"no solve could be trusted at {len(untrusted)} of "
                               f"{len(sweep.etas)} etas, the largest eta={untrusted[0]:g}")
    if not quiet:
        print(f"wrote {path} (stable counts {sweep.n_stable.min()}"
              f"..{sweep.n_stable.max()})")


def _cmd_classify(scn: Scenario, out: Path, seed: int, quiet: bool) -> None:
    game, rgame = scn.build_game()
    x0 = scn.initial_configuration(game, _derive_rng(seed, 0))
    rep = classify_equilibrium(game, x0)
    lines = [f"scenario: {scn.name}", f"kind: {scn.kind}"]
    if rgame is not None:
        topo = rgame.topology
        lines.append(f"topology: {topo.kind}")
        if topo.stages:
            for k, st in enumerate(topo.stages, start=1):
                lines.append(f"stage {k}: {st.origin}->{st.destination} "
                             f"links {','.join(st.link_ids)}")
        for name, links in zip(rgame.route_set.names, rgame.route_set.routes):
            lines.append(f"route {name}: {','.join(links)}")
        y = link_flow(rgame.route_set, x0)
        lines.append(f"x0 link flow: {','.join(_fmt(v) for v in y)}")
        lines.append(f"x0 is equilibrium flow witness: {str(rep.is_nash).lower()}")
    lines.append(f"x0 nash: {str(rep.is_nash).lower()}")
    lines.append(f"x0 strict: {str(rep.is_strict).lower()}")
    lines.append(f"x0 monomorphic: {str(rep.is_monomorphic).lower()}")
    if rep.cost_gap_alpha is not None:
        lines.append(f"cost gap alpha: {_fmt(rep.cost_gap_alpha)}")
    for pop, worse, better, gap in rep.violations:
        lines.append(f"violation: population {pop} uses {worse}, "
                     f"{_fmt(gap)} above best ({better})")
    path = out / "classify.txt"
    _write_lines(path, lines)
    if not quiet:
        print("\n".join(lines))
        print(f"wrote {path}")


def _cmd_verify(scn: Scenario, out: Path, seed: int, quiet: bool) -> None:
    game, rgame = scn.build_game()
    eta = scn.eta()
    rng = _derive_rng(seed, 3)
    lines = []
    required_ok = True

    ok, worst = exact_target_check(eta, game, rng=rng)
    required_ok &= ok
    lines.append(f"{'PASS' if ok else 'FAIL'} exact_target "
                 f"max_violation={worst:.3e}")

    x0 = scn.initial_configuration(game, _derive_rng(seed, 0))
    traj = integrate(game, eta, x0, *scn.time_grid(horizon=2.0))
    ok = traj.mass_drift <= 1e-7 and traj.min_entry >= -1e-9
    required_ok &= ok
    lines.append(f"{'PASS' if ok else 'FAIL'} trajectory_validity "
                 f"drift={traj.mass_drift:.3e} min_entry={traj.min_entry:.3e}")

    fp = fixed_points(game, eta, [x0])[0]
    required_ok &= fp.converged
    lines.append(f"{'PASS' if fp.converged else 'FAIL'} fixed_point "
                 f"residual={fp.residual:.3e}")

    mono_ok, viol = monotonicity_check(eta, game, rng=rng)
    lines.append(f"INFO monotone: {str(mono_ok).lower()} ({len(viol)} violations)")
    sym_ok, asym = potential_symmetry_check(game, rng)
    lines.append(f"INFO potential_symmetry: {str(sym_ok).lower()} "
                 f"max_asymmetry={asym:.3e}")
    if rgame is not None:
        lines.append(f"INFO topology: {rgame.topology.kind}")
        if rgame.topology.kind == "series_of_parallel" and rgame.topology.n_stages >= 2:
            ok, worst = decoupled_check(eta, rgame, rng=rng)
            lines.append(f"INFO decoupled: {str(ok).lower()} max_error={worst:.3e}")
    path = out / "verify.txt"
    _write_lines(path, lines)
    if not quiet:
        print("\n".join(lines))
        print(f"wrote {path}")
    if not required_ok:
        raise NumericalFailure("a required invariant failed; see verify.txt")


def _cmd_reproduce_wheatstone(scn: Scenario, out: Path, seed: int,
                              quiet: bool) -> None:
    game, rgame = scn.build_game()
    grid = scn.noise_grid(steps=60)
    if rgame is None:
        raise ScenarioError("reproduce-wheatstone needs a routing scenario")
    rs = rgame.route_set
    try:
        ia, ib = rs.index_of(("e1", "e4")), rs.index_of(("e2", "e5"))
    except KeyError:
        raise ScenarioError("scenario lacks the expected diamond routes "
                            "(e1,e4) and (e2,e5)") from None
    seeds = [vertex_configuration(game, rs.names[ia]),
             vertex_configuration(game, rs.names[ib]),
             uniform_configuration(game)]
    ta, tb = integrate(game, 0.2, seeds[:2], horizon=50.0, dt=0.01)
    write_trajectory_csv(out / "wheatstone_traj_1.csv", ta, game, rgame)
    write_trajectory_csv(out / "wheatstone_traj_2.csv", tb, game, rgame)
    gap = float(np.abs(ta.terminal - tb.terminal).sum())
    curves = _sweep_to_csv(out / "wheatstone_sweep.csv", game, grid, seeds)
    y_limit = link_flow(rs, curves[0].terminal_limit)
    if not quiet:
        print(f"terminal l1 gap between the two runs: {gap:.3e}")
        print(f"limit link flow: {','.join(_fmt(v) for v in y_limit)}")
        print(f"wrote {out / 'wheatstone_traj_1.csv'}, "
              f"{out / 'wheatstone_traj_2.csv'}, {out / 'wheatstone_sweep.csv'}")
    if gap > 1e-4:
        raise NumericalFailure(f"trajectories disagree by {gap:.3e} at the horizon")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fixed-point": _cmd_fixed_point,
    "sweep": _cmd_sweep,
    "bifurcation": _cmd_bifurcation,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "reproduce-wheatstone": _cmd_reproduce_wheatstone,
}


def run(command: str, scenario: Scenario, out_dir=".", seed: int | None = None,
        quiet: bool = False) -> int:
    """Execute one command against a loaded scenario; returns the exit code."""
    if command not in _COMMANDS:
        raise ScenarioError(f"unknown command {command!r}")
    out = Path(out_dir)
    effective_seed = scenario.seed() if seed is None else int(seed)
    if effective_seed < 0:
        raise ScenarioError(f"--seed must be nonnegative, got {effective_seed}")
    t0 = time.perf_counter()
    # overflow to inf is right (exp(-inf) is weight 0) or named by evaluate_costs;
    # a NaN (0 * inf, inf - inf) is warned of once, if the command returns after it
    invalid = []
    with np.errstate(over="ignore", invalid="call", call=lambda err, flag: invalid.append(err)):
        _COMMANDS[command](scenario, out, effective_seed, quiet)
    if invalid:
        warnings.warn(f"{command}: {len(invalid)} invalid floating-point operation(s); "
                      "the outputs may hold NaN", RuntimeWarning)
    if not quiet:
        print(f"{command} finished in {time.perf_counter() - t0:.2f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gamedyn",
        description="Population-game dynamics: simulate, solve, sweep, classify.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--scenario", required=True, help="scenario file path")
    ap.add_argument("--out", default=".", help="output directory for CSV/text")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the scenario's random seed")
    ap.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO, format=LOG_FORMAT)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return run(args.command, scenario, out_dir=args.out, seed=args.seed,
                   quiet=args.quiet)
    except (ScenarioError, ConfigurationError, RouteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CostEvalError, NumericalFailure) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: cannot write {e.filename or args.out}: {e.strerror or e}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
