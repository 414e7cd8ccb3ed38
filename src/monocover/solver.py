"""End-to-end cover construction for 4-colourings of complete graphs.

:func:`solve4` runs the paper's case cascade as one loop over the stage
table ``_STAGES``: one spanning colour of small diameter; three small
colours, as the axes of a connectivity cover of the colouring itself;
distant sets in the layer mappings of all colour pairs; all colours
connected; intersecting components; disjoint components; two balls
around vertex 0.  The first stage to return a cover closes the
instance, else the connectivity-only cover does, flagged.
Constructions build their parts as ``(vertex mask, colour)`` pairs from
the masks of ``colouring.metrics`` (balls, components) and return through
:func:`covers.verified`, which turns them into the cover's frozensets, or
raises :class:`ImpossibleByLemmaError` with a replayable witness rather
than let an unverified cover out.  Each stage leaves a :class:`StageRecord`
(outcome, wall time, BFS runs, anomalies with their witnesses) in the
trace.  All stages share the colouring's one cache, ``colouring.metrics``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, permutations
from operator import or_

from . import graphs
from .covers import Cover, verified
from .errors import ImpossibleByLemmaError
from .graphs import EdgeColouring, iter_bits
from .grid import GridPointSet, cover_G3, signature_fibres
from .layers import (build_layer_mapping, cover_from_dist7_triple,
                     cover_from_dist3_quad, find_k_distant,
                     has_rich_coordinates, is_k_distant)

COVER_BOUND = 160
SMALL_DIAMETER = 160
CONNECTED_CASE_MIN_DIAMETER = 480
DISJOINT_MIN_DIAMETER = 30

BRANCH_SINGLE_COLOUR = "SingleColour"
BRANCH_SMALL_DIAM = "SmallDiam"
BRANCH_LAYER_QUAD = "LayerQuad"
BRANCH_LAYER_TRIPLE7 = "LayerTriple7"
BRANCH_SINGLE_COMPONENT = "SingleComponent"
BRANCH_INTERSECTING = "Intersecting"
BRANCH_DISJOINT = "DisjointCorollary"
BRANCH_TWO_BALLS = "TwoBalls"
BRANCH_FALLBACK = "ConnectivityFallback"


@dataclass
class StageRecord:
    """One stage of one solve.  ``outcome`` is ``"closed"`` (it returned the
    cover), ``"anomaly"`` (it did not, and recorded an anomaly) or
    ``"n/a"``; each anomaly is ``{"message": str, "witness": dict}``.
    ``bfs_runs`` counts the calls of ``graphs.bfs_reach`` the stage made,
    the pair searches' capped runs included, which no cache keeps; levels
    the colouring's metrics cache already held cost none."""

    name: str
    outcome: str = "n/a"
    seconds: float = 0.0
    bfs_runs: int = 0
    anomalies: list[dict] = field(default_factory=list)


@dataclass
class SolveTrace:
    branch: str
    details: dict = field(default_factory=dict)
    stages: tuple[StageRecord, ...] = ()

    @property
    def anomalies(self) -> tuple[str, ...]:
        """The anomaly messages of every stage, in cascade order."""
        return tuple(a["message"] for s in self.stages for a in s.anomalies)

    def to_json(self) -> dict:
        """The trace as JSON data.  Stage times are left out, so that the
        JSON of a solve depends on its colouring only."""
        return {"branch": self.branch, "details": self.details,
                "anomalies": list(self.anomalies),
                "stages": [{"name": s.name, "outcome": s.outcome,
                            "bfs_runs": s.bfs_runs, "anomalies": s.anomalies}
                           for s in self.stages]}


def _require_k4_complete(colouring: EdgeColouring) -> None:
    if colouring.k != 4:
        raise ValueError("solver expects exactly four colours")
    if not colouring.host.is_complete:
        raise ValueError("solver expects a complete host")


# -- connectivity-only cover ------------------------------------------------


def _connectivity_parts(colouring: EdgeColouring,
                        order: list[int]) -> list[tuple[int, int]]:
    """At most three connected ``(mask, colour)`` parts covering the vertex
    set, by the grid cover of the signatures over the colours ``order[:3]``:
    a plane pulls back to a component of its colour, a connected part (two
    or more points) to a union of fibres in colour ``order[3]``.  Distinct
    grid parts pull back to distinct parts: planes differ in axis or value,
    and the connected parts are distinct components, with disjoint fibres."""
    fibres = signature_fibres(colouring, order[:3])
    metrics = colouring.metrics
    parts = []
    for gp in cover_G3(GridPointSet(3, frozenset(fibres))):
        if gp.kind == "hyperplane":
            c = order[gp.axis]
            parts.append((metrics.component_masks(c)[gp.value - 1], c))
        else:
            # the fibres are disjoint, so their sum is their union
            parts.append((sum(fibres[p] for p in gp.members), order[3]))
    return parts


def gyarfas_connectivity_cover(colouring: EdgeColouring) -> Cover:
    """Three connected parts covering the vertex set, colours 1-3 as axes;
    connectivity only, so the claimed bound is infinite."""
    _require_k4_complete(colouring)
    return verified(colouring, _connectivity_parts(colouring, [1, 2, 3, 4]),
                    math.inf, "connectivity cover")


# -- stage 1: three colours of small diameter --------------------------------


def reduce_small_diameters(colouring: EdgeColouring,
                           n1: int = SMALL_DIAMETER) -> Cover | None:
    """Cover with bound max(n1, 30) when three colours have all components
    of diameter at most n1.

    The paper recolours each leftover-colour edge inside a small-colour
    component to that colour, and bounds the diameters of the recoloured
    colouring's connectivity cover.  That changes no small colour's
    components, so no signature, fibre or grid part: the parts built here,
    small colours as axes, are that cover's.  A leftover-colour part has
    every edge here that it had there, so its diameter is no larger: the
    one check, in this colouring, passes every cover the copy's would.
    """
    _require_k4_complete(colouring)
    metrics = colouring.metrics
    small = [c for c in range(1, 5) if metrics.colour_within(c, n1)]
    if len(small) < 3:
        return None
    order = small[:3] + [c for c in range(1, 5) if c not in small[:3]]
    return verified(colouring, _connectivity_parts(colouring, order),
                    max(n1, 30), "small-diameter reduction")


# -- recorded attempts and 7-distant triples -------------------------------------


def _attempt(anomalies, note, errors, build, *args, witness=None) -> Cover | None:
    """``build(*args)``, or None after recording a failure of type ``errors``
    as an anomaly, with the exception's witness, else ``witness``."""
    try:
        return build(*args)
    except errors as exc:
        anomalies.append({"message": f"{note}: {exc}",
                          "witness": getattr(exc, "witness", witness or {})})
        return None


def _try_distant_triples(lm, a, b, thirds, anomalies, note) -> Cover | None:
    """The first cover from a 7-distant triple of index points ``a``, ``b``
    and the point of a vertex in ``thirds``; failures are recorded, a
    ``ValueError`` with the pair, the triple and each coordinate's count
    of values."""
    values = [len(set(axis)) for axis in zip(*lm.points)]
    for z in thirds:
        triple = tuple(sorted({a, b, lm.coords[z]}))
        if len(triple) == 3 and is_k_distant(triple, 7):
            witness = {"pair": [lm.c1, lm.c2], "triple": [list(p) for p in triple],
                       "coordinate_values": values}
            cover = _attempt(anomalies, note, (ValueError, ImpossibleByLemmaError),
                             cover_from_dist7_triple, lm, triple, witness=witness)
            if cover is not None:
                return cover
    return None


# -- pair searches ---------------------------------------------------------------


def _ring(colouring: EdgeColouring, c: int, x: int, lo: int, hi: int) -> int:
    """The vertices at c-distance lo..hi from x, as a mask, from a BFS that
    expands at most hi levels.  A pair search runs one per source, so the
    metrics cache does not keep it."""
    levels = [1 << x]
    graphs.bfs_reach(colouring.adj_rows(c), 1 << x, within=(1 << colouring.n) - 1,
                     radius=hi, fringes=levels)
    return reduce(or_, levels[lo:hi + 1], 0)


# -- stage 3: every colour connected ------------------------------------------


def solve_connected_case(colouring: EdgeColouring,
                         min_diameter: int = CONNECTED_CASE_MIN_DIAMETER,
                         anomalies: list | None = None) -> Cover | None:
    """Cover when all four colours induce connected spanning subgraphs.

    Only engages when every colour's diameter exceeds ``min_diameter``;
    below that other stages are responsible.  Searches for a pair at
    colour-1 distance 25..27 and colour-2 distance >= 40 as a mask test:
    for each source x in turn, y is the lowest vertex of x's colour-1
    levels 25..27 outside its colour-2 ball of radius 39.  Absence yields
    an explicit three-ball cover, presence walks a colour-2 geodesic
    until a distance pattern realises either a 7-distant triple or a
    two-ball cover.
    """
    _require_k4_complete(colouring)
    if anomalies is None:
        anomalies = []
    metrics = colouring.metrics
    for c in range(1, 5):
        if len(metrics.component_masks(c)) > 1:
            return None
    if any(metrics.colour_within(c, min_diameter) for c in range(1, 5)):
        return None

    pair = None
    for x in range(colouring.n):
        hit = _ring(colouring, 1, x, 25, 27) & ~_ring(colouring, 2, x, 0, 39)
        if hit:
            pair = (x, next(iter_bits(hit)))
            break

    if pair is None:
        # every colour-1 edge has small colour-2 distance between its ends,
        # so three balls around any vertex cover everything
        x = 0
        parts = [(metrics.ball_mask(2, x, 78), 2),
                 (metrics.ball_mask(3, x, 1), 3),
                 (metrics.ball_mask(4, x, 1), 4)]
        return verified(colouring, parts, COVER_BOUND, "connected case, no pair")

    x, y = pair
    path = _geodesic(colouring, metrics, 2, x, y)
    k = (len(path) - 12) // 10
    # both colours are connected, so the coordinates are d_1 and d_2 from x
    lm = build_layer_mapping(colouring, 1, 2, seeds=[x])
    stops = path[:10 * k + 1:10] + [y]
    cover = _try_distant_triples(lm, lm.coords[x], lm.coords[y], stops[1:-1],
                                 anomalies, "connected case, geodesic point")
    if cover is not None:
        return cover
    near_x = metrics.ball_mask(1, x, 6)
    steps = list(zip(stops, stops[1:]))
    u, v = next((s for s in steps if not near_x >> s[1] & 1), steps[-1])
    return _realize_contradiction_pair(colouring, u, v, anomalies)


def _geodesic(colouring, metrics, c, x, y) -> list[int]:
    """A shortest c-path from x to y, which the caller knows to be
    reachable: from y, each step back takes the lowest neighbour one
    c-level nearer x."""
    levels = metrics.levels(c, x)
    adj = colouring.adj_rows(c)
    d = next(i for i, level in enumerate(levels) if level >> y & 1)
    path = [y]
    for level in reversed(levels[:d]):
        path.append(next(iter_bits(adj[path[-1]] & level)))
    path.reverse()
    return path


def _realize_contradiction_pair(colouring, u, v, anomalies) -> Cover:
    """Either some vertex completes a 7-distant triple with u and v, or two
    balls around u cover everything."""
    lm = build_layer_mapping(colouring, 1, 2, seeds=[u])
    cover = _try_distant_triples(lm, lm.coords[u], lm.coords[v], range(colouring.n),
                                 anomalies, "contradiction pair")
    if cover is not None:
        return cover
    metrics = colouring.metrics
    parts = [(metrics.ball_mask(1, u, 56), 1),
             (metrics.ball_mask(2, u, 26), 2)]
    return verified(colouring, parts, COVER_BOUND, "contradiction pair balls")


# -- stages 4 and 5: components of different colours ---------------------------


def _disjoint_pairs(metrics, min_diameter):
    """(c, mask, c2, mask2) for every component ``mask`` of colour c with
    diameter at least ``min_diameter`` and every component ``mask2`` of
    another colour c2 disjoint from it, by c, then mask, c2 and mask2."""
    for c in range(1, 5):
        for mask in metrics.component_masks(c):
            if metrics.within(c, mask, min_diameter - 1):
                continue
            for c2 in range(1, 5):
                if c2 == c:
                    continue
                for mask2 in metrics.component_masks(c2):
                    if not mask & mask2:
                        yield c, mask, c2, mask2


def solve_intersecting_case(colouring: EdgeColouring,
                            anomalies: list | None = None) -> Cover | None:
    """Cover when every pair of different-colour components, one of them of
    diameter at least 30, intersects.

    Finds a colour with a large component, a different colour with two or
    more components, and a vertex pair straddling the latter at moderate
    distance in the former, as a mask test: for each source x in turn, y
    is the lowest vertex of x's c_big-levels 10..40 outside x's
    c_prime-component.  Every vertex then joins a layer-mapping 7-distant
    triple or one of three explicit balls.
    """
    _require_k4_complete(colouring)
    if anomalies is None:
        anomalies = []
    metrics = colouring.metrics
    n = colouring.n
    if next(_disjoint_pairs(metrics, DISJOINT_MIN_DIAMETER), None) is not None:
        return None  # a disjoint pair: the next stage's case

    multi = [c for c in range(1, 5) if len(metrics.component_masks(c)) >= 2]
    bigs = [c for c in range(1, 5) if not metrics.colour_within(c, SMALL_DIAMETER)]
    c_prime = c_big = None
    for cp in multi:
        cands = [c for c in bigs if c != cp]
        if cands:
            c_prime, c_big = cp, cands[0]
            break
    if c_prime is None:
        return None

    # Only pairs at distance 10..40 are searched: a straddling pair closer
    # than 10 and a vertex at distance 25 from one end would give one.
    pair = None
    for x in range(n):
        own = next(m for m in metrics.component_masks(c_prime) if m >> x & 1)
        hit = _ring(colouring, c_big, x, 10, 40) & ~own
        if hit:
            pair = (x, next(iter_bits(hit)))
            break
    if pair is None:
        return None

    x, y = pair
    ball50 = metrics.ball_mask(c_big, x, 50)  # != V: c_big's diameter is > 100
    z = next(w for w in range(n) if not ball50 >> w & 1)
    lm = build_layer_mapping(colouring, c_big, c_prime, seeds=[x, y, z],
                             value_policy="spread")
    cover = _try_distant_triples(lm, lm.coords[x], lm.coords[y], range(n),
                                 anomalies, "intersecting case")
    if cover is not None:
        return cover
    balls = [(ball50, c_big), (metrics.ball_mask(c_prime, x, 6), c_prime),
             (metrics.ball_mask(c_prime, y, 6), c_prime)]
    # A ball inside another adds nothing; of equal ones the last stays.
    parts = [(m, c) for i, (m, c) in enumerate(balls)
             if not any(m & ~other == 0 and (m != other or j > i)
                        for j, (other, _) in enumerate(balls) if j != i)]
    return verified(colouring, parts, COVER_BOUND, "intersecting case, three balls")


def disjoint_corollary(colouring: EdgeColouring,
                       min_diameter: int = DISJOINT_MIN_DIAMETER,
                       anomalies: list | None = None) -> Cover | None:
    """Cover from a large component disjoint from one of a different colour.

    Both tests are mask tests over the component's vertices u in turn,
    which stop once both are settled.  The component is near when every
    u's c2-ball of radius 12 holds it all; then three balls around any of
    its vertices cover everything.  Otherwise the far pair is (u, v) for
    the first u with a vertex of the component outside both its c-ball
    and its c2-ball of radius 6, and v the lowest such vertex; it seeds,
    with any vertex of the disjoint component, a layer mapping whose
    coordinates are spread far apart, handing over a 7-distant triple.  A
    failure is recorded, and the next disjoint pair is tried.
    """
    _require_k4_complete(colouring)
    if anomalies is None:
        anomalies = []
    metrics = colouring.metrics
    for c, mask, c2, mask2 in _disjoint_pairs(metrics, min_diameter):
        near, far_pair = True, None
        for u in iter_bits(mask):
            if near and mask & ~_ring(colouring, c2, u, 0, 12):
                near = False
            if far_pair is None:
                far = mask & ~_ring(colouring, c, u, 0, 6)
                far &= ~_ring(colouring, c2, u, 0, 6)
                if far:
                    far_pair = (u, next(iter_bits(far)))
            if not near and far_pair is not None:
                break
        if near:
            # A c-edge from v0 stays in the component, so within 12 in c2;
            # the three balls cover V with diameters <= 24, 2 and 2.
            v0 = next(iter_bits(mask))
            others = [d for d in range(1, 5) if d not in (c, c2)]
            parts = [(metrics.ball_mask(c2, v0, 12), c2),
                     (metrics.ball_mask(others[0], v0, 1), others[0]),
                     (metrics.ball_mask(others[1], v0, 1), others[1])]
            return verified(colouring, parts, COVER_BOUND,
                            "disjoint corollary, three balls")
        if far_pair is not None:
            x, y = far_pair
            z = next(iter_bits(mask2))
            lm = build_layer_mapping(colouring, c, c2, seeds=[x, y, z],
                                     value_policy="spread")
            cover = _try_distant_triples(lm, lm.coords[x], lm.coords[y], [z],
                                         anomalies, "disjoint corollary")
            if cover is not None:
                return cover
    return None


# -- stage 6: two balls around vertex 0 ----------------------------------------


def two_balls(colouring: EdgeColouring) -> Cover | None:
    """Two balls around vertex 0, of radii a and b at most 80, that cover
    the vertex set, else None.

    Every vertex v with d_c1(0, v) > a must have d_c2(0, v) <= b, so for
    each ordered colour pair (c1, c2) and each a in turn, b is the
    largest c2-level of vertex 0 that meets the vertices beyond its
    c1-ball of radius a (unreached ones count as infinitely far).  As a
    grows, that set shrinks, so b only falls: one walk down the c2-levels
    serves every a.  The first pair with a, b <= 80 closes, with
    diameters at most 2a and 2b.
    """
    return _two_balls(colouring)[2]


def _two_balls(colouring: EdgeColouring):
    """The two-ball stage: :func:`two_balls` as (branch, details, cover),
    with the colour pair and radii that closed in the details."""
    _require_k4_complete(colouring)
    metrics = colouring.metrics
    full = (1 << colouring.n) - 1
    radius = COVER_BOUND // 2
    for c1, c2 in permutations(range(1, 5), 2):
        levels1, levels2 = metrics.levels(c1, 0), metrics.levels(c2, 0)
        unreached2 = full & ~reduce(or_, levels2)
        ball1, b = 0, len(levels2) - 1
        for a, level in enumerate(levels1[:radius + 1]):
            ball1 |= level
            beyond = full & ~ball1
            if beyond & unreached2:
                continue
            while b > 0 and not levels2[b] & beyond:
                b -= 1
            if b <= radius:
                details = {"pair": (c1, c2), "radii": (a, b)}
                parts = [(ball1, c1), (metrics.ball_mask(c2, 0, b), c2)]
                return BRANCH_TWO_BALLS, details, verified(
                    colouring, parts, COVER_BOUND, "two balls", details)
    return None, None, None


# -- the cascade -----------------------------------------------------------------


def _single_colour(colouring: EdgeColouring):
    for c in range(1, 5):
        if colouring.metrics.spans_within_diameter(c, COVER_BOUND):
            cover = verified(colouring, [((1 << colouring.n) - 1, c)],
                             COVER_BOUND, "single colour", {"colour": c})
            return BRANCH_SINGLE_COLOUR, {"colour": c}, cover
    return None, None, None


def _layer_mappings(colouring: EdgeColouring, anomalies: list):
    """Both value policies of every colour pair's layer mapping: a 3-distant
    quadruple, else a 7-distant triple under rich coordinates, closes.
    When both colours are connected, "spread" equals "zero" and is skipped."""
    components = colouring.metrics.component_masks
    for c1, c2 in combinations(range(1, 5), 2):
        connected = len(components(c1)) == len(components(c2)) == 1
        for policy in ("zero",) if connected else ("zero", "spread"):
            lm = build_layer_mapping(colouring, c1, c2, value_policy=policy)
            branch, found = BRANCH_LAYER_QUAD, find_k_distant(lm.points, 3, 4)
            cover = None if found is None else _attempt(
                anomalies, f"layer quad ({c1},{c2},{policy})", ImpossibleByLemmaError,
                cover_from_dist3_quad, lm, found)
            if cover is None:
                branch, found = BRANCH_LAYER_TRIPLE7, find_k_distant(lm.points, 7, 3)
                if found is not None and has_rich_coordinates(lm.points):
                    cover = _attempt(anomalies, f"layer triple ({c1},{c2},{policy})",
                                     (ValueError, ImpossibleByLemmaError),
                                     cover_from_dist7_triple, lm, found)
            if cover is not None:
                return branch, {"pair": (c1, c2), "policy": policy,
                                "distant_set": [list(p) for p in found]}, cover
    return None, None, None


# The cascade in the paper's order, as (stage name, run): run(colouring,
# anomalies) returns (branch, details, cover or None).  The lambdas read the
# stage functions as module globals on each call, so that a test's patch or
# a tracer's hook on the module attribute is what runs.
_STAGES = (
    ("single colour", lambda col, notes: _single_colour(col)),
    ("small-diameter reduction", lambda col, notes: (
        BRANCH_SMALL_DIAM, {"n1": SMALL_DIAMETER},
        reduce_small_diameters(col, SMALL_DIAMETER))),
    ("layer mappings", lambda col, notes: _layer_mappings(col, notes)),
    ("connected case", lambda col, notes: (
        BRANCH_SINGLE_COMPONENT, {}, solve_connected_case(col, anomalies=notes))),
    ("intersecting case", lambda col, notes: (
        BRANCH_INTERSECTING, {}, solve_intersecting_case(col, anomalies=notes))),
    ("disjoint corollary", lambda col, notes: (
        BRANCH_DISJOINT, {}, disjoint_corollary(col, anomalies=notes))),
    ("two balls", lambda col, notes: _two_balls(col)),
)


def solve4(colouring: EdgeColouring) -> tuple[Cover, SolveTrace]:
    """Cover a 4-colouring of a complete graph by at most three parts.

    Each returned cover has been verified at bound 160 (the last-resort
    connectivity cover at bound infinity).  A stage that raises
    :class:`ImpossibleByLemmaError` is recorded, and the next stage runs.
    """
    _require_k4_complete(colouring)
    stages = []
    for name, run in _STAGES:
        record = StageRecord(name)
        stages.append(record)
        start, runs = time.perf_counter(), graphs.BFS_RUNS
        try:
            branch, details, cover = run(colouring, record.anomalies)
        except ImpossibleByLemmaError as exc:
            record.anomalies.append({"message": f"{name}: {exc}",
                                     "witness": exc.witness})
            cover = None
        record.seconds = time.perf_counter() - start
        record.bfs_runs = graphs.BFS_RUNS - runs
        if cover is not None:
            record.outcome = "closed"
            return cover, SolveTrace(branch, details, tuple(stages))
        record.outcome = "anomaly" if record.anomalies else "n/a"

    cover = gyarfas_connectivity_cover(colouring)
    metrics = colouring.metrics
    diag = {"colour_diameters": {c: metrics.colour_diameter(c)
                                 for c in range(1, 5)},
            "component_counts": {c: len(metrics.component_masks(c))
                                 for c in range(1, 5)}}
    return cover, SolveTrace(BRANCH_FALLBACK, diag, tuple(stages))
