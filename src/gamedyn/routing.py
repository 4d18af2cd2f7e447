"""Routing games on directed multigraphs.

Actions are node-simple origin-destination routes; costs are sums of link
costs evaluated at the induced link flows y = A x 1, with per-population
link cost functions. Includes topology classification (parallel stages and
their series compositions) and the test that the logit target factors into
independent per-stage choices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game import (
    PopulationGame,
    CostField,
    CapabilityError,
    CurveGrid,
    validate_configuration,
    sample_configurations,
)
from .dynamics import integrate
from .logit import logit_map

ROUTE_GUARD = 10 ** 6


class RouteError(ValueError):
    """Route enumeration failed: unreachable destination or explosion."""


@dataclass(frozen=True)
class Link:
    id: str
    tail: str
    head: str


class Multigraph:
    """Directed multigraph; parallel links allowed, self-loops not."""

    def __init__(self, nodes, links):
        self.nodes = tuple(nodes)
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        out = []
        seen = set()
        for item in links:
            link = item if isinstance(item, Link) else Link(*item)
            if link.id in seen:
                raise ValueError(f"duplicate link id {link.id!r}")
            seen.add(link.id)
            if link.tail not in node_set or link.head not in node_set:
                raise ValueError(f"link {link.id!r} references unknown node")
            if link.tail == link.head:
                raise ValueError(f"link {link.id!r} is a self-loop")
            out.append(link)
        self.links = tuple(out)
        adj: dict[str, list[Link]] = {n: [] for n in self.nodes}
        for l in self.links:
            adj[l.tail].append(l)
        for n in adj:
            adj[n].sort(key=lambda l: l.id)
        self._adj = adj

    def out_links(self, node: str) -> list[Link]:
        return self._adj[node]

    @property
    def link_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.links)


@dataclass(frozen=True)
class RouteSet:
    """All node-simple origin-destination routes, in link-id lexicographic order."""

    origin: str
    destination: str
    routes: tuple[tuple[str, ...], ...]
    names: tuple[str, ...]
    link_ids: tuple[str, ...]
    incidence: np.ndarray            # (links, routes), 0/1
    node_seqs: tuple[tuple[str, ...], ...]

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    def index_of(self, links) -> int:
        """Route index by its link-id tuple (stable against name choices)."""
        key = tuple(links)
        try:
            return self.routes.index(key)
        except ValueError:
            raise KeyError(f"no route with links {key!r}") from None


def enumerate_routes(graph: Multigraph, origin: str, destination: str) -> RouteSet:
    """Exhaustive depth-first enumeration of node-simple routes.

    Out-links are scanned in link-id order, so routes come out in
    lexicographic order of their link-id sequences, deterministically.
    Aborts above ROUTE_GUARD routes.
    """
    if origin not in graph.nodes:
        raise RouteError(f"unknown origin {origin!r}")
    if destination not in graph.nodes:
        raise RouteError(f"unknown destination {destination!r}")
    if origin == destination:
        raise RouteError("origin equals destination; routes must move")
    routes: list[tuple[str, ...]] = []
    nodes_of: list[tuple[str, ...]] = []
    visited = {origin}
    path: list[str] = []
    path_nodes: list[str] = [origin]
    # one out-link iterator per node on the path, so depth costs no recursion
    stack = [iter(graph.out_links(origin))]
    while stack:
        link = next(stack[-1], None)
        if link is None:
            stack.pop()
            if path:
                path.pop()
                visited.remove(path_nodes.pop())
        elif link.head == destination:
            routes.append(tuple(path + [link.id]))
            nodes_of.append(tuple(path_nodes + [destination]))
            if len(routes) > ROUTE_GUARD:
                raise RouteError(f"more than {ROUTE_GUARD} routes; "
                                 "graph too large for explicit enumeration")
        elif link.head not in visited:
            visited.add(link.head)
            path.append(link.id)
            path_nodes.append(link.head)
            stack.append(iter(graph.out_links(link.head)))
    if not routes:
        raise RouteError(f"destination {destination!r} not reachable from {origin!r}")
    link_ids = graph.link_ids
    row = {lid: e for e, lid in enumerate(link_ids)}
    A = np.zeros((len(link_ids), len(routes)))
    for r, rt in enumerate(routes):
        for lid in rt:
            A[row[lid], r] = 1.0
    names = tuple(f"r{k + 1}" for k in range(len(routes)))
    A.setflags(write=False)
    return RouteSet(origin=origin, destination=destination, routes=tuple(routes),
                    names=names, link_ids=link_ids, incidence=A,
                    node_seqs=tuple(nodes_of))


# ---------------------------------------------------------------------------
# Link costs


class LinkCostMatrix(CurveGrid):
    """Non-decreasing scalar cost curve per (link, population).

    Called at link flows y it gives the (links, populations) cost matrix.
    """

    def __init__(self, link_ids, pop_ids, fns):
        super().__init__(fns)
        self.link_ids = tuple(link_ids)
        self.pop_ids = tuple(pop_ids)
        E, P = len(self.link_ids), len(self.pop_ids)
        if len(self.fns) != E or any(len(row) != P for row in self.fns):
            raise ValueError(f"need a {E}x{P} grid of cost curves")
        for e, row in enumerate(self.fns):
            for p, f in enumerate(row):
                if not f.is_nondecreasing():
                    raise ValueError(f"link cost for ({self.link_ids[e]}, "
                                     f"{self.pop_ids[p]}) is decreasing")

    def restrict(self, link_ids) -> "LinkCostMatrix":
        """Sub-matrix over a link subset."""
        return LinkCostMatrix(link_ids, self.pop_ids,
                              [self.fns[self.link_ids.index(lid)] for lid in link_ids])


class RoutingCostField(CostField):
    """Route costs c = A^T tau(A x 1) with analytic partials.

    An explicit game is the identity incidence, one link per action, which
    skips both products. Carries the per-action aggregate capability exactly
    when no link lies on two routes (each link flow then equals its route's
    total), the test classify_topology uses for "parallel".
    """

    def __init__(self, incidence: np.ndarray, curves: CurveGrid):
        self.A = np.asarray(incidence, dtype=float)
        if len(curves.fns) != len(self.A):
            raise ValueError(f"curve grid has {len(curves.fns)} rows for {len(self.A)} links")
        self.curves = curves
        self.per_action_aggregate = bool(self.A.sum(axis=1).max() <= 1)
        self._identity = np.array_equal(self.A, np.eye(self.A.shape[1]))

    def __call__(self, x):
        w = np.add.reduce(x, -1)
        if self._identity:
            return self.curves(w)
        # a column per configuration, so a stack makes the same BLAS call per slice
        return self.A.T @ self.curves((self.A @ w[..., None])[..., 0])

    def flows(self, x):
        """(links, populations) flow of each population through each link."""
        return self.A @ np.asarray(x, dtype=float)

    def jacobian(self, x):
        w = np.asarray(x, dtype=float).sum(axis=-1)
        if self._identity:
            slopes = self.curves.slopes(w)
            D = np.zeros(slopes.shape + slopes.shape[-2:])
            for i in range(slopes.shape[-2]):
                D[..., i, :, i, :] = slopes[..., i, :, None]  # d c_ip / d x_iq for every q
            return D
        T = self.curves.slopes((self.A @ w[..., None])[..., 0])  # (..., E, P)
        core = np.einsum("ei,ej,...ep->...ipj", self.A, self.A, T)
        # d c_ip / d x_jq does not depend on q: a read-only view, not a copy
        return np.broadcast_to(core[..., None], core.shape + (core.shape[-2],))


# ---------------------------------------------------------------------------
# Topology


@dataclass(frozen=True)
class Stage:
    origin: str
    destination: str
    link_ids: tuple[str, ...]
    segments: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class TopologyClass:
    kind: str                                    # parallel | series_of_parallel | other
    stages: tuple[Stage, ...] | None
    route_stage_segments: tuple[tuple[int, ...], ...] | None

    @property
    def n_stages(self) -> int:
        return len(self.stages) if self.stages else 0


def classify_topology(rs: RouteSet) -> TopologyClass:
    """Parallel / series-of-parallel / other, by cut-node decomposition of rs.

    Parallel means no link lies on two routes. Otherwise, interior nodes
    shared by every route (in a consistent order) split the routes into
    stages; the class is series_of_parallel when no link lies on two stage
    segments and the route set is the full product of stage segments.
    """
    used = rs.incidence.sum(axis=1)
    used_ids = tuple(lid for e, lid in enumerate(rs.link_ids) if used[e] > 0)
    if used.max() <= 1:
        whole = Stage(origin=rs.origin, destination=rs.destination,
                      link_ids=used_ids, segments=rs.routes)
        return TopologyClass(kind="parallel", stages=(whole,),
                             route_stage_segments=tuple((r,) for r in range(rs.n_routes)))
    other = TopologyClass(kind="other", stages=None, route_stage_segments=None)
    common = set(rs.node_seqs[0][1:-1])
    for seq in rs.node_seqs[1:]:
        common &= set(seq[1:-1])
    if not common:
        return other
    order = [n for n in rs.node_seqs[0] if n in common]
    for seq in rs.node_seqs[1:]:
        if [n for n in seq if n in common] != order:
            return other
    cuts = [rs.origin] + order + [rs.destination]
    K = len(cuts) - 1
    seg_index: list[dict[tuple[str, ...], int]] = [{} for _ in range(K)]
    seg_lists: list[list[tuple[str, ...]]] = [[] for _ in range(K)]
    assignment = []
    for links, nodes in zip(rs.routes, rs.node_seqs):
        pos = [nodes.index(c) for c in cuts]
        idx = []
        for k in range(K):
            seg = tuple(links[pos[k]:pos[k + 1]])
            if seg not in seg_index[k]:
                seg_index[k][seg] = len(seg_lists[k])
                seg_lists[k].append(seg)
            idx.append(seg_index[k][seg])
        assignment.append(tuple(idx))
    # no link may lie on two segments: then each stage is parallel and no two
    # stages share a link (a segment of a node-simple route repeats no link)
    seg_links = [lid for segs in seg_lists for seg in segs for lid in seg]
    if len(seg_links) > len(set(seg_links)):
        return other
    # the route set must be the full product of stage segments
    want = set(itertools.product(*(range(len(s)) for s in seg_lists)))
    if set(assignment) != want or len(assignment) != len(want):
        return other
    stages = tuple(
        Stage(origin=cuts[k], destination=cuts[k + 1],
              link_ids=tuple(lid for lid in rs.link_ids
                             if any(lid in seg for seg in seg_lists[k])),
              segments=tuple(seg_lists[k]))
        for k in range(K))
    return TopologyClass(kind="series_of_parallel", stages=stages,
                         route_stage_segments=tuple(assignment))


# ---------------------------------------------------------------------------
# The lowered game


@dataclass(frozen=True)
class RoutingGame:
    graph: Multigraph
    route_set: RouteSet
    topology: TopologyClass
    game: PopulationGame


def build_routing_game(graph: Multigraph, origin: str, destination: str,
                       link_costs: LinkCostMatrix, populations, masses) -> RoutingGame:
    """Lower a routing instance to a population game over routes.

    All populations share the origin-destination pair, so every route is
    available to every population.
    """
    rs = enumerate_routes(graph, origin, destination)
    if tuple(link_costs.link_ids) != rs.link_ids:
        raise ValueError("link cost matrix must cover the graph's links in order")
    populations = tuple(populations)
    if tuple(link_costs.pop_ids) != populations:
        raise ValueError("link cost matrix population ids must match the game's")
    topo = classify_topology(rs)
    field = RoutingCostField(rs.incidence, link_costs)
    mask = np.ones((rs.n_routes, len(populations)), dtype=bool)
    game = PopulationGame(populations=populations,
                          masses=np.asarray(masses, dtype=float),
                          actions=rs.names, mask=mask, costs=field)
    return RoutingGame(graph=graph, route_set=rs, topology=topo, game=game)


def link_flow(route_set: RouteSet, x) -> np.ndarray:
    """Link flows y = A (x 1) of a configuration over routes, or of each in a
    stack (..., S, P)."""
    return np.asarray(x, dtype=float).sum(axis=-1) @ route_set.incidence.T


# ---------------------------------------------------------------------------
# Series compositions and decoupled dynamics


def stage_games(rgame: RoutingGame) -> list[RoutingGame]:
    """Standalone routing game per stage of a series decomposition.

    Each stage keeps the full populations and masses; its routes must be the
    stage's segments in the same order, so stage route k is segment k
    (recombinant paths inside a stage would break the correspondence and
    raise). Every segment starts with a link of its own, so both orders are
    the lexicographic order of those first links.
    """
    topo = rgame.topology
    if topo.stages is None or topo.n_stages < 2:
        raise CapabilityError("not a series composition: topology is "
                              f"{topo.kind!r} with {topo.n_stages} stage(s)")
    out = []
    for stage in topo.stages:
        links = [l for l in rgame.graph.links if l.id in stage.link_ids]
        sub = Multigraph(dict.fromkeys(n for l in links for n in (l.tail, l.head)), links)
        costs = rgame.game.costs.curves.restrict(stage.link_ids)
        sg = build_routing_game(sub, stage.origin, stage.destination, costs,
                                rgame.game.populations, rgame.game.masses)
        if sg.route_set.routes != stage.segments:
            raise CapabilityError(f"stage {stage.origin}->{stage.destination} has "
                                  "routes outside the series decomposition "
                                  "or in another order")
        out.append(sg)
    return out


def marginal_stage_configuration(rgame: RoutingGame, stage_idx: int,
                                 x: np.ndarray) -> np.ndarray:
    """Stage configuration: route masses of x (..., routes, P) summed per stage segment."""
    topo = rgame.topology
    xk = np.zeros(x.shape[:-2] + (len(topo.stages[stage_idx].segments), rgame.game.n_pops))
    for r, idxs in enumerate(topo.route_stage_segments):
        xk[..., idxs[stage_idx], :] += x[..., r, :]
    return xk


def decoupled_check(eta: float, rgame: RoutingGame,
                    rng: np.random.Generator | None = None) -> tuple[bool, float]:
    """Does the composite target factor into independent per-stage choices?

    For 20 sampled configurations, drawn and mapped as one stack, compares
    H_r against the product of the standalone stage targets over r's
    segments, divided by v_p per extra stage, to 1e-10. Applies to series
    compositions only. Returns (ok, max_error).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    stages = stage_games(rgame)
    game = rgame.game
    active = game.active_populations
    X = sample_configurations(game, rng, 20)
    segs = np.array(rgame.topology.route_stage_segments)   # (routes, stages)
    pred = 1.0
    for k, sg in enumerate(stages):
        t = logit_map(sg.game, marginal_stage_configuration(rgame, k, X), eta)
        pred = pred * t[:, segs[:, k]][..., active]
    # scalar powers: numpy's array power can round v_p ** 3 one ulp away
    pred = pred / [game.masses[p] ** (len(stages) - 1) for p in active]
    worst = float(np.abs(logit_map(game, X, eta)[..., active] - pred).max())
    return bool(worst <= 1e-10), worst


def series_restriction_equivalence(rgame: RoutingGame, eta: float,
                                   x0, horizon: float, dt: float) -> float:
    """Max link-flow gap between composite and standalone stage integrations.

    Each stage starts from the marginalization of x0.
    """
    x0 = validate_configuration(rgame.game, x0)
    stages = stage_games(rgame)
    y = link_flow(rgame.route_set, integrate(rgame.game, eta, x0, horizon, dt).states)
    row = {lid: e for e, lid in enumerate(rgame.route_set.link_ids)}
    worst = 0.0
    for k, sg in enumerate(stages):
        xk0 = marginal_stage_configuration(rgame, k, x0)
        yk = link_flow(sg.route_set, integrate(sg.game, eta, xk0, horizon, dt).states)
        cols = [row[lid] for lid in sg.route_set.link_ids]
        worst = max(worst, float(np.abs(y[:, cols] - yk).max()))
    return worst
