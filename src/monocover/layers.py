"""Layer mappings, k-distant sets, and the distant-set cover constructions.

A layer mapping assigns every vertex a pair of coordinates built from BFS
distances in two generating colours; layers whose index points differ by
at least 2 in both coordinates can only see the two reserved colours
across them.  The cover constructions exploit 3- and 7-distant index sets
to assemble full covers with at most three parts.  Layers, their unions
and the certificate H are vertex bitmasks; each construction hands its
parts to :func:`covers.verified` as ``(mask, colour)`` pairs, and that
step builds the cover's frozensets or raises ImpossibleByLemmaError with
a replayable witness when the output fails verification.  Coordinates
come from the BFS levels that ``colouring.metrics`` keeps, and the core
balls of the 7-distant construction from ``graphs.bfs_reach(...,
radius=r)``, both on the one BFS kernel of :mod:`graphs`.  Diameters are
decided by threshold; the one exact diameter here is the certificate
H's, which sets a bound.

A mapping keeps, per axis, the slabs those levels already are: the mask
of the vertices with each coordinate value.  The quadruple cover uses
them to place layers by region rather than point by point.  A layer
joins the first two anchors that neither of its coordinates is near, so
the OR of the three slabs around each anchor's coordinate splits the
vertices into at most 25 regions with one anchor pair each; when a
region's two anchors are single vertices, the triangle rule for the
whole region is mask algebra on their adjacency rows in the two
reserved colours.  The other constructions, and the layers that the
rule leaves, find the anchors far from a layer by comparing its point
with each anchor's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import combinations
from operator import lt, or_
from typing import Iterable, Sequence

from .covers import Cover, verified
from .errors import ImpossibleByLemmaError
from .graphs import EdgeColouring, bfs_reach, diameter_of_mask, iter_bits
from .twocolour import Split, bipartite_outcome, multipartite_colour

Point = tuple[int, int]
# The vertices of each coordinate value on one axis: a list indexed by
# value (a connected colour's BFS levels) or a dict from value to mask.
Slabs = Sequence[int] | dict[int, int]

QUAD_COVER_BOUND = 160
TRIPLE7_COVER_BOUND = 160
RICH_COORDINATE_VALUES = 28  # precondition of the 7-distant construction


class LayerMapping:
    """Partition of the vertex set indexed by coordinate pairs.

    ``c1, c2`` are the generating colours (coordinates follow their BFS
    metrics), ``c3, c4`` the reserved pair: any edge between layers that
    are 2-separated in both coordinates uses a reserved colour only.
    ``points`` are the layers' index points, sorted and unique.  Per axis
    the mapping also keeps its slabs, the masks of the vertices with each
    coordinate value: :func:`build_layer_mapping` hands over the slabs it
    read the coordinates from (a connected colour's levels list as it
    is), and a mapping made from bare coordinates builds them itself.
    """

    __slots__ = ("colouring", "c1", "c2", "c3", "c4", "coords", "points",
                 "_layers", "_slabs")

    def __init__(self, colouring: EdgeColouring, c1: int, c2: int,
                 coords: Sequence[Point],
                 slabs: tuple[Slabs, Slabs] | None = None):
        self.colouring = colouring
        self.c1 = c1
        self.c2 = c2
        self.c3, self.c4 = (c for c in range(1, 5) if c not in (c1, c2))
        self.coords = tuple(coords)
        layers: dict[Point, int] = {}
        for v, p in enumerate(self.coords):
            layers[p] = layers.get(p, 0) | (1 << v)
        self.points: tuple[Point, ...] = tuple(sorted(layers))
        self._layers = layers
        if slabs is None:
            slabs = ({}, {})
            for v, p in enumerate(self.coords):
                for axis in (0, 1):
                    slabs[axis][p[axis]] = slabs[axis].get(p[axis], 0) | 1 << v
        self._slabs = slabs

    @property
    def reserved_pair(self) -> tuple[int, int]:
        return (self.c3, self.c4)

    def layer_mask(self, point: Point) -> int:
        return self._layers[point]

    def union_mask(self, points: Iterable[Point]) -> int:
        m = 0
        for p in points:
            m |= self._layers[p]
        return m

    def slab_mask(self, axis: int, lo: int, hi: int) -> int:
        """The vertices whose coordinate on ``axis`` lies in lo..hi."""
        slabs = self._slabs[axis]
        if isinstance(slabs, dict):
            return reduce(or_, (slabs.get(v, 0) for v in range(lo, hi + 1)), 0)
        return reduce(or_, slabs[max(lo, 0):max(hi + 1, 0)], 0)


def build_layer_mapping(colouring: EdgeColouring, c1: int, c2: int,
                        seeds: Sequence[int] = (),
                        value_policy: str = "zero") -> LayerMapping:
    """Run the coordinate-assignment procedure and wrap the result.

    Vertices are processed in seed order (remaining vertices follow in
    index order).  Whenever a vertex still lacks a coordinate, the policy
    supplies a start value for its component: "zero" starts every
    component at 0, "spread" starts far beyond every value used so far,
    which keeps distinct components far apart in that coordinate.  A
    coordinate's values are the vertex's BFS levels from that start,
    read from ``colouring.metrics``.  A connected colour has one
    component, which both policies start at 0, so its coordinates are the
    first vertex's cached distance row, taken whole, and its slabs that
    vertex's levels list; a disconnected colour's slabs OR each
    component's levels in at the component's start value.
    """
    colouring._check_colour(c1)
    colouring._check_colour(c2)
    if c1 == c2:
        raise ValueError("generating colours must differ")
    if colouring.k != 4:
        raise ValueError("layer mappings need exactly four colours")
    if value_policy not in ("zero", "spread"):
        raise ValueError(f"unknown value policy {value_policy!r}")
    n = colouring.n
    gap = n + 7
    order = list(dict.fromkeys(seeds))
    if any(v < 0 or v >= n for v in order):
        raise ValueError("seed vertex out of range")
    in_seeds = set(order)
    order += [v for v in range(n) if v not in in_seeds]

    metrics = colouring.metrics
    coords, slabs = [], []
    for c in (c1, c2):
        if len(metrics.component_masks(c)) == 1:
            # One BFS reaches everything, and both policies start it at 0.
            coords.append(metrics.distances_from(c, order[0]))
            slabs.append(metrics.levels(c, order[0]))
            continue
        values: list[int | None] = [None] * n
        slab: dict[int, int] = {}
        base = 0
        for v in order:
            if values[v] is not None:
                continue
            levels = metrics.levels(c, v)
            for d, level in enumerate(levels, base):
                slab[d] = slab.get(d, 0) | level
                for u in iter_bits(level):
                    values[u] = d
            if value_policy == "spread":
                base += len(levels) - 1 + gap
        coords.append(values)
        slabs.append(slab)
    return LayerMapping(colouring, c1, c2, list(zip(*coords)), tuple(slabs))


# -- distant sets ---------------------------------------------------------


def is_k_distant(points: Iterable[Point], k: int) -> bool:
    pts = list(points)
    return all(abs(a[0] - b[0]) >= k and abs(a[1] - b[1]) >= k
               for a, b in combinations(pts, 2))


def find_k_distant(points: Iterable[Point], k: int, size: int) -> tuple[Point, ...] | None:
    """Lexicographically first k-distant subset of the given cardinality.

    A depth-first search over the points in sorted order extends a chosen
    prefix only with later points, so ``compat[i]`` holds just the later
    points k-distant from point i.  It is built when the search first
    extends through point i, so a search that stops early builds few of
    the m rows.  With the points sorted by x, those with x_j >= x_i + k
    are one suffix of indices, found by bisection.  The points with
    |y_j - y_i| >= k are a prefix and a suffix of the points taken in y
    order; two bisections in that order pick them out of the prefix
    masks, made in one sweep.  So a row costs three bisections and a few
    big-integer operations.  Points given as a tuple already sorted and
    unique, such as a layer mapping's ``points``, are used as they are:
    one pass of comparisons checks that, in about a fifth of the time of
    the sort that any other input gets.
    """
    if k < 1 or size < 1:
        raise ValueError("k and size must be positive")
    if isinstance(points, tuple) and all(map(lt, points, points[1:])):
        pts = points
    else:
        pts = sorted(set(points))
    m = len(pts)
    if size > m:
        return None
    if size == 1:
        return (pts[0],)
    full = (1 << m) - 1
    xs = [p[0] for p in pts]
    by_y = sorted(range(m), key=lambda i: pts[i][1])
    ys = [pts[i][1] for i in by_y]
    prefix = [0] * (m + 1)  # prefix[t]: the points by_y[:t], as a mask
    for t, i in enumerate(by_y):
        prefix[t + 1] = prefix[t] | 1 << i
    compat: list[int | None] = [None] * m

    def row(i: int) -> int:
        x, y = pts[i]
        j = bisect_left(xs, x + k)  # the first point with x_j >= x + k
        below = prefix[bisect_right(ys, y - k)]  # y_j <= y - k
        above = prefix[bisect_left(ys, y + k)]  # y_j < y + k
        return (full >> j << j) & (below | full ^ above)

    def extend(common: int, depth: int, start: int) -> tuple[int, ...] | None:
        cand = common >> start << start
        if depth == size - 1:  # any candidate completes the set
            return ((cand & -cand).bit_length() - 1,) if cand else None
        while cand:
            lsb = cand & -cand
            i = lsb.bit_length() - 1
            compat_i = compat[i]
            if compat_i is None:
                compat_i = compat[i] = row(i)
            rest = extend(common & compat_i, depth + 1, i + 1)
            if rest is not None:
                return (i,) + rest
            cand ^= lsb
        return None

    got = extend(full, 0, 0)
    if got is None:
        return None
    return tuple(pts[i] for i in got)


def has_rich_coordinates(points: Iterable[Point]) -> bool:
    """True iff both coordinates take at least RICH_COORDINATE_VALUES values."""
    pts = list(points)
    return (len({p[0] for p in pts}) >= RICH_COORDINATE_VALUES
            and len({p[1] for p in pts}) >= RICH_COORDINATE_VALUES)


# -- distant-set covers ---------------------------------------------------


def _require_points(lm: LayerMapping, pts: Iterable[Point]) -> None:
    for p in pts:
        if p not in lm._layers:
            raise ValueError(f"{p} is not a layer index point")


def cover_from_dist3_triple(lm: LayerMapping, triple: Sequence[Point]) -> tuple[int, int]:
    """Reserved colour connecting the three layers of a 3-distant triple.

    Returns (colour, mask of the union of the three layers).  The colour's
    cross-layer graph spans the union within 20, and the colour's induced
    graph on the union contains it, so that has diameter <= 20 too.
    """
    triple = tuple(sorted(triple))
    if len(triple) != 3 or not is_k_distant(triple, 3):
        raise ValueError("need a 3-distant triple of index points")
    _require_points(lm, triple)
    return (multipartite_colour(lm.colouring, [lm.layer_mask(p) for p in triple],
                                lm.reserved_pair), lm.union_mask(triple))


def _distant(anchors: Sequence[Point], point: Point, separation: int = 2
             ) -> tuple[Point, ...]:
    """The anchors ``separation``-distant from ``point``, in anchor order."""
    return tuple(a for a in anchors if abs(a[0] - point[0]) >= separation
                 and abs(a[1] - point[1]) >= separation)


def cover_from_dist3_triple_ext(lm: LayerMapping, triple: Sequence[Point],
                                h_mask: int) -> Cover:
    """Full cover from a 3-distant triple plus a connected certificate H.

    H, a vertex mask, must contain two of the triple's layers and be
    connected in the reserved colour other than the triple's own; every
    other layer attaches to the triple core in that colour, to H, or to
    the third layer, giving at most three parts with bound
    max(40, diam(H) + 20).
    """
    triple = tuple(sorted(triple))
    c, core = cover_from_dist3_triple(lm, triple)
    cprime = lm.c4 if c == lm.c3 else lm.c3
    col = lm.colouring
    n3 = diameter_of_mask(col.adj_rows(cprime), h_mask)
    if not isinstance(n3, int):
        raise ValueError("certificate subgraph is not connected in its colour")
    anchor_pair = None
    for a, b in combinations(triple, 2):
        if not lm.union_mask((a, b)) & ~h_mask:
            anchor_pair = (a, b)
            break
    if anchor_pair is None:
        raise ValueError("certificate must contain two of the triple's layers")
    third = next(p for p in triple if p not in anchor_pair)
    bound = max(40, n3 + 20)

    p_core: list[Point] = []
    p_h: list[Point] = []
    p_third: list[Point] = []
    for point in lm.points:
        if point in triple:
            continue
        # Anchor values are >= 3 apart, so at most one per coordinate lies
        # within 1 of the point: some anchor is 2-distant from it.
        e = _distant(triple, point)[0]
        out = bipartite_outcome(col, lm.layer_mask(point), lm.layer_mask(e),
                                lm.reserved_pair)
        if out != cprime:  # c or a split
            p_core.append(point)
        elif e in anchor_pair:
            p_h.append(point)
        else:
            p_third.append(point)

    parts = [(core | lm.union_mask(p_core), c)]
    if p_h:
        parts.append((h_mask | lm.union_mask(p_h), cprime))
    if p_third:
        parts.append((lm.layer_mask(third) | lm.union_mask(p_third), cprime))
    return verified(col, parts, bound, "extended triple cover",
                    {"triple": triple, "H": list(iter_bits(h_mask)), "N3": n3})


def cover_from_dist3_quad(lm: LayerMapping, quad: Sequence[Point]) -> Cover:
    """Full cover of the vertex set from a 3-distant quadruple of layers.

    The quadruple's layers connect in a base reserved colour; every other
    layer joins a 2-distant pair of the quadruple in one of the reserved
    colours.  Pair groups in the non-base colour either chain through
    shared anchors into one part or form at most two disjoint parts.

    A layer's pair is the first two anchors that neither of its
    coordinates lies within 1 of, so it depends only on the anchor (if
    any) each coordinate is near to: the slabs around the anchors'
    coordinates split the vertices into at most 25 regions, one pair
    each.  When a region's pair is two single vertices a and b, a
    single-vertex layer {x} joins it by the triangle rule, read off four
    adjacency rows for the whole region at once: when ab, ax and bx are
    reserved edges, the cross graph is a triangle, which a colour spans
    exactly when it holds two of its edges, so x takes c3 when two of
    the three edges are c3, and c4 otherwise.  Every other layer (a
    larger one, one next to a larger anchor, or one the rule leaves open)
    is placed by :func:`twocolour.multipartite_colour`, in point order.
    """
    quad = tuple(sorted(quad))
    if len(quad) != 4 or not is_k_distant(quad, 3):
        raise ValueError("need a 3-distant quadruple of index points")
    _require_points(lm, quad)
    col = lm.colouring
    layers, reserved, c3 = lm._layers, lm.reserved_pair, lm.c3
    cbase = multipartite_colour(col, [layers[p] for p in quad], reserved)
    cbar = lm.c4 if cbase == lm.c3 else lm.c3

    base = lm.union_mask(quad)
    groups: dict[tuple[Point, Point], int] = {}  # anchor pair -> its layers

    def place(pair: tuple[Point, Point], mask: int, colour: int) -> None:
        nonlocal base
        if colour == cbase:
            base |= mask
        else:
            groups[pair] = groups.get(pair, 0) | mask

    left = ((1 << col.n) - 1) & ~base  # the vertices still to place
    singles = left
    if len(lm.points) < col.n:
        singles &= reduce(or_, (m for m in layers.values() if not m & (m - 1)), 0)
    # near[axis][q]: the vertices within 1 of anchor q on that axis;
    # near[axis][None]: those near no anchor (a negative int).
    near = [{q: lm.slab_mask(axis, q[axis] - 1, q[axis] + 1) for q in quad}
            for axis in (0, 1)]
    for by_anchor in near:
        by_anchor[None] = ~reduce(or_, by_anchor.values())
    rows, (adj3, adj4) = col._rows, (col.adj_rows(c) for c in reserved)
    for kx, x_near in near[0].items():
        for ky, y_near in near[1].items():
            region = singles & x_near & y_near
            if not region:
                continue
            pair = tuple(q for q in quad if q not in (kx, ky))[:2]
            if any(layers[q] & (layers[q] - 1) for q in pair):
                continue  # an anchor of several vertices
            a, b = (layers[q].bit_length() - 1 for q in pair)
            ab = rows[a][b]
            if ab not in reserved:
                continue
            ok = region & (adj3[a] | adj4[a]) & (adj3[b] | adj4[b])
            to_c3 = ok & (adj3[a] | adj3[b] if ab == c3 else adj3[a] & adj3[b])
            for colour, mask in ((c3, to_c3), (lm.c4, ok & ~to_c3)):
                if mask:
                    place(pair, mask, colour)
            left &= ~ok

    for point in sorted({lm.coords[v] for v in iter_bits(left)}):
        # As in the extended triple cover, at most two anchors are close.
        pair = _distant(quad, point)[:2]
        mx = layers[point]
        place(pair, mx, multipartite_colour(
            col, [layers[pair[0]], layers[pair[1]], mx], reserved))

    parts = [(base, cbase)]
    if groups:
        pairs = sorted(groups)
        intersecting = any(set(p1) & set(p2)
                           for p1, p2 in combinations(pairs, 2))
        if intersecting or len(pairs) == 1:
            merged = 0
            for pair in pairs:
                merged |= lm.union_mask(pair) | groups[pair]
            parts.append((merged, cbar))
        else:  # four anchors hold at most two disjoint pairs
            for pair in pairs:
                parts.append((lm.union_mask(pair) | groups[pair], cbar))
    return verified(col, parts, QUAD_COVER_BOUND, "quadruple cover",
                    {"quad": quad, "base_colour": cbase})


def cover_from_dist7_triple(lm: LayerMapping, triple: Sequence[Point]) -> Cover:
    """Full cover of the vertex set from a 7-distant triple of layers.

    Requires both coordinates of the layer index set to take at least 28
    values.  Either some layer point is 3-distant from the whole triple
    (delegate to the quadruple cover), or a two-sided far-point analysis
    splits the remaining layers into groups that attach to the core ball
    or to one of two far pillars.
    """
    triple = tuple(sorted(triple))
    if len(triple) != 3 or not is_k_distant(triple, 7):
        raise ValueError("need a 7-distant triple of index points")
    _require_points(lm, triple)
    if not has_rich_coordinates(lm.points):
        raise ValueError("layer index set must take >= 28 values per coordinate")
    col = lm.colouring
    points = [p for p in lm.points if p not in triple]

    # A point 3-distant from the whole triple upgrades it to a quadruple.
    for point in points:
        if len(_distant(triple, point, separation=3)) == 3:
            return cover_from_dist3_quad(lm, triple + (point,))

    c, core_mask = cover_from_dist3_triple(lm, triple)
    cbar = lm.c4 if c == lm.c3 else lm.c3

    def far_in_coord(point: Point, axis: int, sep: int = 3) -> bool:
        return all(abs(point[axis] - t[axis]) >= sep for t in triple)

    # Points far from the whole triple in one coordinate attach through a
    # fresh 3-distant triple; if that triple connects in the other reserved
    # colour, its union is a certificate for the extended-triple cover.
    attached: set[Point] = set()

    def attach_far(point: Point, axis: int) -> Cover | None:
        other = 1 - axis
        mates = sorted(
            (t for t in triple if abs(point[other] - t[other]) >= 3))[:2]
        sub = (point, mates[0], mates[1])
        c_sub, union_sub = cover_from_dist3_triple(lm, sub)
        if c_sub == cbar:
            return cover_from_dist3_triple_ext(lm, triple, union_sub)
        attached.add(point)
        return None

    for point in points:
        for axis in (0, 1):
            if point not in attached and far_in_coord(point, axis):
                done = attach_far(point, axis)
                if done is not None:
                    return done

    # Two-sided pillars: X is first-coordinate far (and second-close to
    # exactly one anchor), Y is second-coordinate far.  Both exist: within
    # 4 of the three anchors lie at most 27 of the >= 28 values.
    x_cands = [p for p in points if far_in_coord(p, 0, sep=5)]
    y_cands = [p for p in points if far_in_coord(p, 1, sep=5)]
    x_pt = x_cands[0]
    a_anchor = next(t for t in triple if abs(x_pt[1] - t[1]) <= 2)
    y_pt = next((p for p in y_cands
                 if not abs(p[0] - a_anchor[0]) <= 2), None)
    if y_pt is None:
        # Every second-far point is first-close to the same anchor as X,
        # which yields a 3-distant quadruple with X and the other anchors.
        y_pt = y_cands[0]
        others = tuple(t for t in triple if t != a_anchor)
        return cover_from_dist3_quad(lm, (x_pt, y_pt) + others)
    b_anchor = next(t for t in triple if abs(y_pt[0] - t[0]) <= 2)
    c_anchor = next(t for t in triple if t not in (a_anchor, b_anchor))

    def close(val: int, ref: int) -> bool:
        return abs(val - ref) <= 2

    group1: list[Point] = []  # first-close to B, second-close to A
    group2: list[Point] = []  # first-close to C, second-close to A
    group3: list[Point] = []  # first-close to B, second-close to C
    groups = {(b_anchor, a_anchor): group1, (c_anchor, a_anchor): group2,
              (b_anchor, c_anchor): group3}
    for point in points:
        if point in attached or point in (x_pt, y_pt):
            continue
        # Not attached, so close to some anchor in each coordinate.
        e1 = next(t for t in triple if close(point[0], t[0]))
        e2 = next(t for t in triple if close(point[1], t[1]))
        if e1 == e2:
            others = tuple(t for t in triple if t != e1)
            sub = (point,) + others
            c_sub, union_sub = cover_from_dist3_triple(lm, sub)
            if c_sub == cbar:
                return cover_from_dist3_triple_ext(lm, triple, union_sub)
            attached.add(point)
        elif (e1, e2) in ((a_anchor, b_anchor), (c_anchor, b_anchor),
                          (a_anchor, c_anchor)):
            # 3-distant: e1 != B and e2 != A, and X, Y are 5-far from the
            # anchors in one coordinate and 2-close to A, B in the other.
            sub = (point, x_pt, y_pt)
            c_sub, union_sub = cover_from_dist3_triple(lm, sub)
            if c_sub == cbar:
                _, h = bfs_reach(col.adj_rows(c), core_mask, radius=20)
                return cover_from_dist3_triple_ext(lm, sub, h)
            attached.add(point)
        else:  # the other three of the nine patterns
            groups[e1, e2].append(point)

    _, v_mask = bfs_reach(col.adj_rows(c), core_mask, radius=40)
    parts = [(v_mask, c)]
    witness = {"triple": triple, "pillars": (x_pt, y_pt),
               "groups": [len(group1), len(group2), len(group3)]}

    def pillar_part(group: list[Point], pillar: Point, name: str) -> int | None:
        """The group joined to its pillar, a part in cbar; None when the
        core ball already holds the group."""
        union_mask = lm.union_mask(group)
        if union_mask & ~v_mask == 0:
            return None
        if bipartite_outcome(col, union_mask, lm.layer_mask(pillar),
                             lm.reserved_pair) == cbar:
            return union_mask | lm.layer_mask(pillar)
        raise ImpossibleByLemmaError(
            f"far group {name} neither absorbed nor pillar-connected", witness)

    part2 = pillar_part(group2, y_pt, "2") if group2 else None
    part3 = pillar_part(group3, x_pt, "3") if group3 else None
    if part2 is not None and part3 is not None:
        if bipartite_outcome(col, lm.union_mask(group2), lm.union_mask(group3),
                             lm.reserved_pair) == c:
            parts.append((lm.union_mask(group2) | lm.union_mask(group3), c))
        else:
            parts.append((part2 | part3, cbar))
    elif part2 is not None:
        parts.append((part2, cbar))
    elif part3 is not None:
        parts.append((part3, cbar))

    if group1:
        union1 = lm.union_mask(group1)
        if union1 & ~v_mask:
            out = bipartite_outcome(col, union1, lm.layer_mask(c_anchor),
                                    lm.reserved_pair)
            if isinstance(out, Split):
                raise ImpossibleByLemmaError(
                    "near group neither absorbed nor anchor-connected", witness)
            parts.append((union1 | lm.layer_mask(c_anchor), out))

    return verified(col, parts, TRIPLE7_COVER_BOUND, "7-distant triple cover",
                    witness)
