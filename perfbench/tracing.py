"""Per-layer spans recorded from outside the package under test.

Each public function of a layer is replaced, at every module attribute its
callers look it up by, with a wrapper that counts calls and accumulates span
and self time (span minus the spans of wrapped callees and minus reference
samples taken while it ran). Optional hooks read counts out of results, such
as solver iterations or integration steps. Counts are exact; self times are
relative, since each wrapper adds its own cost to its caller's self time.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from typing import NamedTuple


class Tracer:
    def __init__(self):
        self.slots: dict[str, list] = {}      # name -> [calls, self_s, span_s]
        self.counts: dict[str, float] = {}
        self.foreign_s = 0.0
        self._open = [0.0]                    # child time of each open span

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def foreign(self, seconds: float) -> None:
        """Record time spent outside every layer inside the open span."""
        self._open[-1] += seconds
        self.foreign_s += seconds

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args, kwargs)`` returns a token handed to
        ``after(result, args, kwargs, token)`` once ``fn`` has returned.
        """
        slot = self.slots.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                slot[0] += 1
                slot[1] += dt - stack.pop()
                slot[2] += dt
                stack[-1] += dt
            if after is not None:
                after(result, args, kwargs, token)
            return result

        return wrapper

    def mark(self) -> "Tally":
        """The tracer's totals now, to take differences from with ``since``."""
        return Tally({k: list(v) for k, v in self.slots.items()}, dict(self.counts),
                     self.foreign_s)

    def since(self, mark: "Tally") -> "Tally":
        """What was recorded after ``mark``."""
        return Tally({k: [a - b for a, b in zip(v, mark.slots[k])]
                      for k, v in self.slots.items()},
                     {k: v - mark.counts.get(k, 0) for k, v in self.counts.items()},
                     self.foreign_s - mark.foreign_s)


class Tally(NamedTuple):
    slots: dict            # name -> [calls, self_s, span_s]
    counts: dict
    foreign_s: float

    def gap(self, span_name: str) -> float:
        """Share by which all self times plus foreign time miss the spans of
        ``span_name``; properly nested spans make it zero up to rounding."""
        span = self.slots[span_name][2]
        return abs(sum(v[1] for v in self.slots.values()) + self.foreign_s - span) / span

    def flat_counts(self) -> dict:
        out = {f"{k}.calls": v[0] for k, v in self.slots.items()}
        out.update(self.counts)
        return out


def _patch_function(module, attr: str, wrapper) -> None:
    """Point every ``gamedyn`` module attribute bound to the original at ``wrapper``."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if name == "gamedyn" or name.startswith("gamedyn."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported ``gamedyn`` package."""
    from gamedyn import analysis, cli, dynamics, game, logit, routing, scenario

    def fn(module, attr, name, before=None, after=None):
        _patch_function(module, attr, tracer.wrap(name, getattr(module, attr),
                                                  before, after))

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    def fixed_point_counts(r, args, kwargs, token):
        tracer.add("logit.fixed_point.iterations", r.iterations)
        tracer.add("logit.fixed_point.converged", int(r.converged))
        if r.stability is not None and not r.stability.locally_stable:
            tracer.add("logit.fixed_point.unstable", 1)

    sweep_sig = inspect.signature(analysis.continuation_sweep)

    def sweep_counts(curves, args, kwargs, token):
        seeds = sweep_sig.bind(*args, **kwargs).arguments["seeds"]
        tracer.add("analysis.seeds_traced", len(list(seeds)))

    def census_before(args, kwargs):
        return tracer.counts.get("logit.fixed_point.converged", 0)

    def census_counts(sweep, args, kwargs, converged_before):
        tracer.add("analysis.census_converged",
                   tracer.counts.get("logit.fixed_point.converged", 0) - converged_before)
        tracer.add("analysis.census_distinct", int(sweep.n_fixed_points.sum()))

    def integrate_counts(traj, args, kwargs, token):
        tracer.add("dynamics.integrate.steps", len(traj.times) - 1)

    def csv_bytes(result, args, kwargs, token):
        tracer.add("cli.write_csv.bytes", os.path.getsize(args[0]))

    fn(scenario, "load_scenario", "scenario.load_scenario")
    method(scenario.Scenario, "build_game", "scenario.build_game")
    fn(game, "evaluate_costs", "game.evaluate_costs")
    fn(game, "cost_jacobian", "game.cost_jacobian")
    method(routing.RoutingCostField, "__call__", "routing.cost_field")
    method(routing.RoutingCostField, "jacobian", "routing.cost_jacobian")
    fn(logit, "softmax_target", "logit.softmax_target")
    fn(logit, "logit_map", "logit.logit_map")
    fn(logit, "logit_jacobian", "logit.logit_jacobian")
    fn(logit, "local_stability", "logit.local_stability")
    fn(logit, "contraction_margin", "logit.contraction_margin")
    fn(logit, "fixed_point", "logit.fixed_point", after=fixed_point_counts)
    fn(analysis, "continuation_sweep", "analysis.continuation_sweep",
       after=sweep_counts)
    fn(analysis, "bifurcation_scan", "analysis.bifurcation_scan",
       before=census_before, after=census_counts)
    fn(dynamics, "integrate", "dynamics.integrate", after=integrate_counts)
    for writer in ("write_trajectory_csv", "write_sweep_csv",
                   "write_bifurcation_csv", "write_fixed_point_csv"):
        fn(cli, writer, "cli.write_csv", after=csv_bytes)
    fn(cli, "run", "cli.run")
