"""Scenario files: a line-oriented text format for games, dynamics, and runs.

Sections hold either comma-separated records or key = value pairs:

    [nodes]      o, a, b, d                      (routing only)
    [links]      id, tail, head                  (routing only)
    [od]         origin, destination             (routing only)
    [actions]    a1, a2                          (explicit games only)
    [costs]      ref, population|all, kind, params...
    [tolls]      link, omega                     (optional, routing)
    [sensitivities]  population, alpha           (optional, routing)
    [populations]    id, mass
    [dynamics]   protocol = logit / eta = 0.2
    [run]        x0 = ... / horizon = ... / dt = ... / seed = ...

Cost kinds: affine (slope, intercept), constant (value), table (x1, y1, x2,
y2, ...). In routing scenarios ``ref`` is a link id and the curve maps link
flow to cost; in explicit scenarios it is an action id and the curve maps
the action's total mass to cost. A toll section means the [costs] records
give the common part only (population column must be ``all``); it only
builds per-population curves, the common curve shifted by alpha_p * omega_e.
Masses, cost parameters, omega and alpha must be finite numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .game import (
    PopulationGame,
    AggregateCostField,
    ScalarFn,
    uniform_configuration,
    vertex_configuration,
    sample_configuration,
)
from .routing import Multigraph, LinkCostMatrix, RoutingGame, build_routing_game


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


_RECORD_SECTIONS = {"nodes", "links", "od", "actions", "costs", "tolls",
                    "sensitivities", "populations"}
_KV_SECTIONS = {"dynamics", "run"}

# most RK4 steps, noise-grid steps or census starts a run may ask for
MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class Scenario:
    name: str
    path: str
    kind: str                       # "routing" | "explicit"
    records: dict                   # section -> list of (lineno, fields)
    dynamics: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    def build_game(self) -> tuple[PopulationGame, RoutingGame | None]:
        pops, masses = self._populations()
        if self.kind == "routing":
            rgame = self._build_routing(pops, masses)
            return rgame.game, rgame
        return self._build_explicit(pops, masses), None

    def eta(self) -> float:
        name = self.dynamics.get("protocol")
        if name != "logit":
            raise ScenarioError(f"{self.path}: unsupported protocol {name!r} "
                                "(only 'logit' ships)")
        if "eta" not in self.dynamics:
            raise ScenarioError(f"{self.path}: [dynamics] needs eta")
        try:
            eta = float(self.dynamics["eta"])
        except ValueError:
            raise ScenarioError(f"{self.path}: [dynamics] eta = "
                                f"{self.dynamics['eta']!r} is not a number") from None
        if not 0 < eta < np.inf:
            raise ScenarioError(f"{self.path}: eta must be positive and finite")
        if 1.0 / eta == np.inf:
            raise ScenarioError(f"{self.path}: [dynamics] eta = {eta!r} is too small: "
                                "1/eta overflows")
        return eta

    # -- run section accessors ------------------------------------------------

    def run_float(self, key: str, default: float) -> float:
        v = self._run_value(key, default, float)
        if not np.isfinite(v):
            raise ScenarioError(f"{self.path}: [run] {key} must be finite, got {v!r}")
        return v

    def run_int(self, key: str, default: int) -> int:
        return self._run_value(key, default, int)

    def _run_value(self, key, default, kind):
        raw = self.run.get(key, default)
        try:
            return kind(raw)
        except ValueError:
            raise ScenarioError(f"{self.path}: [run] {key} = {raw!r} is not "
                                f"a valid {kind.__name__}") from None

    def time_grid(self, horizon: float | None = None) -> tuple[float, float]:
        """(horizon, dt) of an integration; ``horizon`` overrides [run] horizon (50).

        Needs 0 < dt <= horizon, so that at least one step is taken, and at
        most MAX_STEPS steps.
        """
        fixed = horizon is not None
        horizon = horizon if fixed else self.run_float("horizon", 50.0)
        dt = self.run_float("dt", 0.01)
        if not 0 < dt <= horizon:
            bound, got = ((f"{horizon:g}", f"dt = {dt:g}") if fixed else
                          ("horizon", f"dt = {dt:g}, horizon = {horizon:g}"))
            raise ScenarioError(f"{self.path}: [run] needs 0 < dt <= {bound}, got {got}")
        if horizon / dt > MAX_STEPS:
            span = f"{horizon:g}" if fixed else "horizon"
            raise ScenarioError(f"{self.path}: [run] {span} / dt = {horizon / dt:g} "
                                f"exceeds the {MAX_STEPS} step limit")
        return horizon, dt

    def noise_grid(self, steps: int) -> np.ndarray:
        """The noise grid geomspace(eta_hi, eta_lo, steps <= MAX_STEPS), strictly decreasing.

        eta_hi and eta_lo default to 2 and 1e-3; 1/eta_lo must be finite.
        """
        eta_hi = self.run_float("eta_hi", 2.0)
        eta_lo = self.run_float("eta_lo", 1e-3)
        steps = self.run_int("steps", steps)
        if not (eta_hi > eta_lo > 0 and steps >= 2):
            raise ScenarioError(f"{self.path}: [run] needs eta_hi > eta_lo > 0 and steps >= 2, "
                                f"got eta_hi = {eta_hi:g}, eta_lo = {eta_lo:g}, steps = {steps}")
        if 1.0 / eta_lo == np.inf:
            raise ScenarioError(f"{self.path}: [run] eta_lo = {eta_lo!r} is too small: "
                                "1/eta_lo overflows")
        if steps > MAX_STEPS:
            raise ScenarioError(f"{self.path}: [run] steps = {steps} "
                                f"exceeds the {MAX_STEPS} step limit")
        grid = np.geomspace(eta_hi, eta_lo, steps)
        if np.any(np.diff(grid) >= 0):
            raise ScenarioError(f"{self.path}: [run] eta_hi = {eta_hi!r} and eta_lo = "
                                f"{eta_lo!r} are too close for steps = {steps}: the "
                                "noise grid is not strictly decreasing")
        return grid

    def seed(self) -> int:
        seed = self.run_int("seed", 0)
        if seed < 0:
            raise ScenarioError(f"{self.path}: [run] seed must be nonnegative, got {seed}")
        return seed

    def initial_configuration(self, game: PopulationGame,
                              rng: np.random.Generator) -> np.ndarray:
        spec = self.run.get("x0", "uniform").strip()
        if spec == "uniform":
            return uniform_configuration(game)
        if spec == "random":
            return sample_configuration(game, rng)
        if spec.startswith("vertex:"):
            names = [s.strip() for s in spec[len("vertex:"):].split(",")]
            try:
                return vertex_configuration(game, names[0] if len(names) == 1 else names)
            except ValueError as e:
                raise ScenarioError(f"{self.path}: bad x0 {spec!r}: {e}") from None
        if spec.startswith("explicit:"):
            rows = spec[len("explicit:"):].split(";")
            try:
                x = np.array([[float(v) for v in row.split(",")] for row in rows])
            except ValueError:
                raise ScenarioError(f"{self.path}: unparseable explicit x0") from None
            if x.shape != (game.n_actions, game.n_pops):
                raise ScenarioError(f"{self.path}: explicit x0 has shape {x.shape}, "
                                    f"expected {(game.n_actions, game.n_pops)}")
            return x
        raise ScenarioError(f"{self.path}: unknown x0 description {spec!r}")

    # -- builders -------------------------------------------------------------

    def _populations(self):
        rows = self.records.get("populations", [])
        if not rows:
            raise ScenarioError(f"{self.path}: missing [populations]")
        pops, masses = [], []
        for lineno, f in rows:
            if len(f) != 2:
                raise ScenarioError(f"{self.path}:{lineno}: population record "
                                    "needs 'id, mass'")
            pops.append(f[0])
            m = self._number(lineno, "mass", f[1])
            if m < 0:
                raise ScenarioError(f"{self.path}:{lineno}: negative mass for {f[0]!r}")
            masses.append(m)
        return tuple(pops), np.array(masses)

    def _number(self, lineno: int, what: str, raw: str) -> float:
        """Record field ``raw`` as a finite float, else a ScenarioError at file:line."""
        try:
            v = float(raw)
        except ValueError:
            v = np.nan
        if not np.isfinite(v):
            raise ScenarioError(f"{self.path}:{lineno}: {what} {raw!r} is not a "
                                "finite number")
        return v

    def _cost_grid(self, refs, pops, flow_word):
        """(refs x pops) grid of ScalarFn from [costs] records.

        'all' records fill a whole row; per-population records override them
        and may not repeat.
        """
        shared: dict[str, ScalarFn] = {}
        specific: dict[tuple[str, str], ScalarFn] = {}
        for lineno, f in self.records.get("costs", []):
            if len(f) < 3:
                raise ScenarioError(f"{self.path}:{lineno}: cost record needs "
                                    "'ref, population, kind, params...'")
            ref, pop, kind, *params = f
            if ref not in refs:
                raise ScenarioError(f"{self.path}:{lineno}: unknown {flow_word} "
                                    f"{ref!r} in cost record")
            if pop != "all" and pop not in pops:
                raise ScenarioError(f"{self.path}:{lineno}: unknown population "
                                    f"{pop!r} in cost record")
            vals = [self._number(lineno, "cost parameter", s) for s in params]
            try:
                fn = _parse_cost(kind, vals)
            except ValueError as e:
                raise ScenarioError(f"{self.path}:{lineno}: {e}") from None
            if pop == "all":
                if ref in shared:
                    raise ScenarioError(f"{self.path}:{lineno}: duplicate 'all' "
                                        f"cost record for {ref!r}")
                shared[ref] = fn
            else:
                if (ref, pop) in specific:
                    raise ScenarioError(f"{self.path}:{lineno}: duplicate cost "
                                        f"record for ({ref}, {pop})")
                specific[(ref, pop)] = fn
        grid = []
        for ref in refs:
            row = []
            for p in pops:
                fn = specific.get((ref, p), shared.get(ref))
                if fn is None:
                    raise ScenarioError(f"{self.path}: no cost record for "
                                        f"({ref}, {p})")
                row.append(fn)
            grid.append(row)
        return grid

    def _build_routing(self, pops, masses) -> RoutingGame:
        nodes = []
        for lineno, f in self.records.get("nodes", []):
            nodes.extend(f)
        links = []
        for lineno, f in self.records.get("links", []):
            if len(f) != 3:
                raise ScenarioError(f"{self.path}:{lineno}: link record needs "
                                    "'id, tail, head'")
            links.append(tuple(f))
        od_rows = self.records.get("od", [])
        if len(od_rows) != 1 or len(od_rows[0][1]) != 2:
            raise ScenarioError(f"{self.path}: [od] must hold exactly one "
                                "'origin, destination' record")
        origin, destination = od_rows[0][1]
        try:
            graph = Multigraph(nodes, links)
        except ValueError as e:
            raise ScenarioError(f"{self.path}: {e}") from None
        link_ids = graph.link_ids
        grid = self._cost_grid(link_ids, pops, "link")
        tolls = self.records.get("tolls")
        sens = self.records.get("sensitivities")
        if (tolls is None) != (sens is None):
            raise ScenarioError(f"{self.path}: [tolls] and [sensitivities] "
                                "must appear together")
        if tolls is not None:
            for lineno, f in self.records.get("costs", []):
                if len(f) >= 2 and f[1] != "all":
                    raise ScenarioError(f"{self.path}:{lineno}: with tolls, cost "
                                        "records give the common part (use 'all')")
            omega = {lid: 0.0 for lid in link_ids}
            for lineno, f in tolls:
                if len(f) != 2 or f[0] not in omega:
                    raise ScenarioError(f"{self.path}:{lineno}: toll record needs "
                                        "'link, omega' with a known link")
                omega[f[0]] = self._number(lineno, "omega", f[1])
            alpha = {}
            for lineno, f in sens:
                if len(f) != 2 or f[0] not in pops:
                    raise ScenarioError(f"{self.path}:{lineno}: sensitivity record "
                                        "needs 'population, alpha'")
                alpha[f[0]] = self._number(lineno, "alpha", f[1])
            missing = [p for p in pops if p not in alpha]
            if missing:
                raise ScenarioError(f"{self.path}: no toll sensitivity for "
                                    f"{missing[0]!r}")
            grid = [[row[0].shifted(alpha[p] * omega[lid]) for p in pops]
                    for lid, row in zip(link_ids, grid)]
        try:
            lcm = LinkCostMatrix(link_ids, pops, grid)
            return build_routing_game(graph, origin, destination, lcm, pops, masses)
        except ValueError as e:
            raise ScenarioError(f"{self.path}: {e}") from None

    def _build_explicit(self, pops, masses) -> PopulationGame:
        actions = []
        for lineno, f in self.records.get("actions", []):
            actions.extend(f)
        if not actions:
            raise ScenarioError(f"{self.path}: explicit scenario needs [actions]")
        grid = self._cost_grid(tuple(actions), pops, "action")
        mask = np.ones((len(actions), len(pops)), dtype=bool)
        try:
            return PopulationGame(populations=pops, masses=masses,
                                  actions=tuple(actions), mask=mask,
                                  costs=AggregateCostField(grid))
        except ValueError as e:
            raise ScenarioError(f"{self.path}: {e}") from None


def _parse_cost(kind: str, vals: list[float]) -> ScalarFn:
    if kind == "affine":
        if len(vals) != 2:
            raise ValueError("affine cost needs 'slope, intercept'")
        return ScalarFn.affine(vals[0], vals[1])
    if kind == "constant":
        if len(vals) != 1:
            raise ValueError("constant cost needs one value")
        return ScalarFn.constant(vals[0])
    if kind == "table":
        if len(vals) < 4 or len(vals) % 2:
            raise ValueError("table cost needs x1, y1, x2, y2, ... pairs")
        pts = list(zip(vals[0::2], vals[1::2]))
        return ScalarFn.table(pts)
    raise ValueError(f"unknown cost kind {kind!r}")


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    records: dict[str, list] = {}
    dynamics: dict[str, str] = {}
    run: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _RECORD_SECTIONS | _KV_SECTIONS:
                raise ScenarioError(f"{p}:{lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ScenarioError(f"{p}:{lineno}: content before any section")
        if section in _KV_SECTIONS:
            if "=" not in line:
                raise ScenarioError(f"{p}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            target = dynamics if section == "dynamics" else run
            target[key.strip()] = value.strip()
        else:
            fields = [f.strip() for f in line.split(",")]
            if any(not f for f in fields):
                raise ScenarioError(f"{p}:{lineno}: empty field in record")
            records.setdefault(section, []).append((lineno, fields))
    kind = "routing" if "links" in records else "explicit"
    if kind == "routing" and "actions" in records:
        raise ScenarioError(f"{p}: [actions] and [links] are mutually exclusive")
    scn = Scenario(name=p.stem, path=str(p), kind=kind, records=records,
                   dynamics=dynamics, run=run)
    scn.build_game()       # validate cross-references eagerly
    scn.eta()
    return scn
