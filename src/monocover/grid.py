"""Geometry of grid product graphs: adjacency, structure lemmas, covers.

G_l has vertex set N_0^l with an edge between tuples that differ in every
coordinate.  Lines and planes are always axis-aligned: a plane fixes one
coordinate, a line fixes two.  The cover for arity 3 is a search for the
fewest whole components and plane slices, at most three by the lemma;
independent-set classifiers return re-checkable witnesses; the
bounded-degree search enumerates canonical representatives only
(coordinate values relabelled to first-use order, which is sound because
adjacency depends only on equality).
Signatures over any axis colours map to their fibres as vertex masks,
found by refining masks by each axis colour's components, or vertex by
vertex when there could be more fibres than vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations, product
from math import prod
from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import ImpossibleByLemmaError
from .graphs import EdgeColouring, HostGraph, components_masks, iter_bits, parse_decimal

GridPoint = tuple[int, ...]


@dataclass(frozen=True)
class GridPointSet:
    l: int
    points: frozenset[GridPoint]

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.l:
                raise ValueError(f"point {p} has arity != {self.l}")
            if any(x < 0 for x in p):
                raise ValueError(f"point {p} has a negative coordinate")

    @classmethod
    def of(cls, points: Iterable[GridPoint]) -> "GridPointSet":
        pts = frozenset(tuple(p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        return cls(len(next(iter(pts))), pts)


def grid_adjacent(x: GridPoint, y: GridPoint) -> bool:
    """True iff the two tuples differ at every coordinate."""
    if len(x) != len(y):
        raise ValueError("arity mismatch")
    return all(a != b for a, b in zip(x, y))


def shared_axes(x: GridPoint, y: GridPoint) -> tuple[int, ...]:
    return tuple(i for i, (a, b) in enumerate(zip(x, y)) if a == b)


# -- structure of independent sets in G_3 ----------------------------------


@dataclass(frozen=True)
class Struct1:
    """Coplanar: every point has coordinate ``value`` on ``axis``."""
    axis: int
    value: int


@dataclass(frozen=True)
class Struct2:
    """Role order ((a,b,c), (a',b',c), (a',b,c'), (a,b',c'))."""
    roles: tuple[GridPoint, GridPoint, GridPoint, GridPoint]


@dataclass(frozen=True)
class Struct3:
    """After permuting axes by ``axes``, the roles read
    ((a,b,c), (a,b,c'), (a,b',x), (a',b,x))."""
    axes: tuple[int, int, int]
    roles: tuple[GridPoint, GridPoint, GridPoint, GridPoint]


def _check_independent(points: Sequence[GridPoint], size: int) -> list[GridPoint]:
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) != size:
        raise ValueError(f"need exactly {size} distinct points")
    if any(len(p) != 3 for p in pts):
        raise ValueError("arity must be 3")
    for x, y in combinations(pts, 2):
        if grid_adjacent(x, y):
            raise ValueError(f"points {x} and {y} are adjacent")
    return pts


def classify_independent4(points: Sequence[GridPoint]) -> Struct1 | Struct2 | Struct3:
    """Classify an independent 4-set in G_3; first applicable tag wins."""
    pts = _check_independent(points, 4)
    for axis in range(3):
        vals = {p[axis] for p in pts}
        if len(vals) == 1:
            return Struct1(axis, vals.pop())
    base = pts[0]
    a, b, c = base
    for rest in permutations(pts[1:]):
        q1, q2, q3 = rest
        ap, bp, cp = q1[0], q1[1], q2[2]
        if (q1 == (ap, bp, c) and ap != a and bp != b
                and q2 == (ap, b, cp) and cp != c
                and q3 == (a, bp, cp)):
            return Struct2((base, q1, q2, q3))
    for axes in permutations(range(3)):
        for roles in permutations(pts):
            r0, r1, r2, r3 = (tuple(p[i] for i in axes) for p in roles)
            va, vb, vc = r0
            if not (r1[0] == va and r1[1] == vb and r1[2] != vc):
                continue
            if not (r2[0] == va and r2[1] != vb):
                continue
            x = r2[2]
            if r3[0] != va and r3[1] == vb and r3[2] == x:
                return Struct3(axes, roles)
    raise ImpossibleByLemmaError("independent 4-set fits no structure class",
                                 witness={"points": pts})


@dataclass(frozen=True)
class Coplanar5:
    axis: int
    value: int


@dataclass(frozen=True)
class ThreeLines:
    """All points lie on the three axis lines through ``apex``; per point
    the witness records one axis along which its line varies."""
    apex: GridPoint
    line_axis: Mapping[GridPoint, int]


def classify_independent5(points: Sequence[GridPoint]) -> Coplanar5 | ThreeLines:
    """Classify an independent 5-set in G_3."""
    pts = _check_independent(points, 5)
    for axis in range(3):
        vals = {p[axis] for p in pts}
        if len(vals) == 1:
            return Coplanar5(axis, vals.pop())
    axis_values = [sorted({p[i] for p in pts}) for i in range(3)]
    for apex in product(*axis_values):
        assignment = {}
        for p in pts:
            agree = [i for i in range(3) if p[i] == apex[i]]
            if len(agree) < 2:
                break
            free = [i for i in range(3) if i not in agree]
            assignment[p] = free[0] if free else 0
        else:
            return ThreeLines(apex, assignment)
    raise ImpossibleByLemmaError("independent 5-set fits neither alternative",
                                 witness={"points": pts})


# -- the constructive cover for G_3 ----------------------------------------


@dataclass(frozen=True)
class GridCoverPart:
    kind: str  # "hyperplane" or "connected"
    members: frozenset[GridPoint]
    axis: int | None = None
    value: int | None = None

    def check(self) -> bool:
        if self.kind == "hyperplane":
            return all(p[self.axis] == self.value for p in self.members)
        if self.kind == "connected":
            return len(_g3_components(self.members)) == 1
        return False


def _g3_components(pts: Iterable[GridPoint]) -> list[list[GridPoint]]:
    """The components, each sorted, in order of their least point.  A
    point's neighbours are the points that share none of its coordinates."""
    pts = sorted(set(pts))
    same: dict[tuple[int, int], int] = {}  # (axis, value) -> mask of points
    for j, p in enumerate(pts):
        for key in enumerate(p):
            same[key] = same.get(key, 0) | 1 << j
    full = (1 << len(pts)) - 1
    adj = [full & ~reduce(or_, (same[key] for key in enumerate(p)), 0) for p in pts]
    return [[pts[i] for i in iter_bits(m)] for m in components_masks(adj, len(pts))]


def verify_grid_cover(point_set: GridPointSet,
                      parts: Sequence[GridCoverPart]) -> bool:
    covered = set()
    for part in parts:
        if not part.members <= point_set.points or not part.check():
            return False
        covered |= part.members
    return covered == point_set.points


def cover_G3(point_set: GridPointSet) -> list[GridCoverPart]:
    """Cover a finite subset of G_3 by the fewest parts, at most three, each
    a whole component of two or more points or a whole hyperplane slice of
    the set.

    Any cover can be widened so that each connected piece is a whole
    component and each slice takes every point of its plane, and a lone
    point's component can give way to a plane through it.  So the lowest
    uncovered point lies in one of its own candidates: its component,
    unless that is the point alone, then its planes on axes 0, 1 and 2.
    A search over these, with budgets of 1, 2 and 3 parts in turn, is
    therefore complete and visits at most 4 + 16 + 64 leaves.  Finding no
    cover of three parts would refute the lemma: that raises with the
    points as witness.
    """
    if point_set.l != 3:
        raise ValueError("cover construction is specific to arity 3")
    pts = sorted(point_set.points)
    component = {p: frozenset(c) for c in _g3_components(pts) for p in c}

    def search(left: frozenset[GridPoint], budget: int) -> list[GridCoverPart] | None:
        if not left:
            return []
        if budget == 0:
            return None
        p = min(left)
        candidates = [GridCoverPart("hyperplane", frozenset(q for q in pts if q[i] == p[i]),
                                    i, p[i]) for i in range(3)]
        if len(component[p]) > 1:
            candidates.insert(0, GridCoverPart("connected", component[p]))
        for part in candidates:
            rest = search(left - part.members, budget - 1)
            if rest is not None:
                return [part] + rest
        return None

    for budget in (1, 2, 3):
        parts = search(point_set.points, budget)
        if parts is not None:
            return parts
    raise ImpossibleByLemmaError("no cover of at most three parts",
                                 witness={"points": pts})


def exists_two_part_cover(point_set: GridPointSet) -> bool:
    """Exhaustive check for a two-set cover in the indexed sense.

    Each set occupies its own coordinate slot: it must be connected or lie
    in a hyperplane fixing ITS slot's coordinate, and the two slots are
    distinct axes.  (Without the slot discipline two parallel planes would
    trivially cover any set using only two values on some axis.)  All
    membership assignments are enumerated, overlaps included.
    """
    pts = sorted(point_set.points)
    l = point_set.l

    def usable_axes(members: tuple[GridPoint, ...]) -> set[int]:
        if not members:
            return set(range(l))
        axes = {i for i in range(l) if len({p[i] for p in members}) == 1}
        if len(_g3_components(members)) == 1:
            axes = set(range(l))
        return axes

    for assignment in product((0, 1, 2), repeat=len(pts)):
        first = tuple(p for p, a in zip(pts, assignment) if a != 1)
        second = tuple(p for p, a in zip(pts, assignment) if a != 0)
        ax1 = usable_axes(first)
        ax2 = usable_axes(second)
        if any(i != j for i in ax1 for j in ax2):
            return True
    return False


# -- bounded-degree induced-subgraph search ---------------------------------


@dataclass(frozen=True)
class SearchResult:
    size: int
    witness: tuple[GridPoint, ...]
    complete: bool
    explored: int


def bounded_degree_search(l: int, d: int, m: int, mode: str = "path",
                          budget: int | None = None) -> SearchResult:
    """Largest induced path / bounded-degree connected set found in G_l
    with coordinates below ``m``.

    Exhaustive over canonical representatives; when the step budget runs
    out the best set found so far is returned with ``complete=False``.
    """
    if l < 1 or m < 1:
        raise ValueError("l and m must be positive")
    if mode not in ("path", "any-connected"):
        raise ValueError(f"unknown mode {mode!r}")
    state = {"explored": 0, "complete": True, "best": 1,
             "witness": ((0,) * l,)}

    def candidates(seq: list[GridPoint], used: list[int]):
        ranges = [range(min(u + 1, m)) for u in used]
        for cand in product(*ranges):
            yield cand

    def note(seq: list[GridPoint]):
        if len(seq) > state["best"]:
            state["best"] = len(seq)
            state["witness"] = tuple(seq)

    def spend() -> bool:
        state["explored"] += 1
        if budget is not None and state["explored"] >= budget:
            state["complete"] = False
            return False
        return True

    if mode == "path":
        def extend_path(seq: list[GridPoint], used: list[int]):
            if not spend():
                return
            last = seq[-1]
            for cand in candidates(seq, used):
                if not grid_adjacent(cand, last):
                    continue
                if any(cand == p or grid_adjacent(cand, p) for p in seq[:-1]):
                    continue
                new_used = [max(u, c + 1) for u, c in zip(used, cand)]
                seq.append(cand)
                note(seq)
                extend_path(seq, new_used)
                seq.pop()
                if not state["complete"]:
                    return

        start = (0,) * l
        extend_path([start], [1] * l)
    else:
        seen: set[frozenset[GridPoint]] = set()

        def degree_ok(points: list[GridPoint]) -> bool:
            for p in points:
                if sum(grid_adjacent(p, q) for q in points if q != p) > d:
                    return False
            return True

        def extend_conn(seq: list[GridPoint], used: list[int]):
            if not spend():
                return
            for cand in candidates(seq, used):
                if cand in seq:
                    continue
                if not any(grid_adjacent(cand, p) for p in seq):
                    continue
                nxt = seq + [cand]
                if not degree_ok(nxt):
                    continue
                key = frozenset(nxt)
                if key in seen:
                    continue
                seen.add(key)
                new_used = [max(u, c + 1) for u, c in zip(used, cand)]
                note(nxt)
                extend_conn(nxt, new_used)
                if not state["complete"]:
                    return

        extend_conn([(0,) * l], [1] * l)

    return SearchResult(state["best"], state["witness"], state["complete"],
                        state["explored"])


# -- the colouring <-> point-set equivalence --------------------------------


def colouring_from_points(point_set: GridPointSet) -> tuple[EdgeColouring, list[GridPoint]]:
    """Complete graph on the points; an edge takes the smallest shared
    coordinate index + 1, or l+1 when the points differ everywhere."""
    order = sorted(point_set.points)
    n = len(order)
    l = point_set.l

    def colour(u, v):
        axes = shared_axes(order[u], order[v])
        return axes[0] + 1 if axes else l + 1

    host = HostGraph.complete(n)
    return EdgeColouring.build(host, l + 1, colour), order


def signature_fibres(colouring: EdgeColouring,
                     axes: Sequence[int]) -> dict[GridPoint, int]:
    """Signature -> fibre mask, where a vertex's signature is the tuple of
    its component ids in the colours ``axes``, 1-based, ordinal by lowest
    contained vertex.  The fibres partition the vertex set and come in
    order of their lowest vertex.

    The fibres are refined as masks: all vertices start under ``()``, and
    each axis splits every fibre by the components of its colour that the
    fibre meets, scanned in id order until the fibre is used up.  A vertex
    in fibre ``sig`` and component ``cid`` lands in ``sig + (cid,)``
    either way, so this is the per-vertex labelling, read off whole
    masks; sorting by lowest vertex restores the labelling's order.  The
    scan costs up to fibres x components per axis, and the product of the
    axes' component counts bounds the fibres; when that product exceeds
    n, the vertices are labelled one by one instead (n x axes steps).
    """
    n = colouring.n
    comps = [colouring.metrics.component_masks(c) for c in axes]
    if prod(map(len, comps)) > n:
        sigs = [()] * n
        for masks in comps:
            for cid, comp in enumerate(masks, start=1):
                for v in iter_bits(comp):
                    sigs[v] += (cid,)
        fibres: dict[GridPoint, int] = {}
        for v, sig in enumerate(sigs):
            fibres[sig] = fibres.get(sig, 0) | 1 << v
        return fibres
    split = [((), (1 << n) - 1)]
    for masks in comps:
        whole, split = split, []
        for sig, left in whole:
            for cid, comp in enumerate(masks, start=1):
                part = left & comp
                if part:
                    split.append((sig + (cid,), part))
                    left ^= part
                    if not left:
                        break
    return dict(sorted(split, key=lambda item: item[1] & -item[1]))


def points_from_colouring(colouring: EdgeColouring) -> tuple[GridPointSet, dict[GridPoint, frozenset[int]]]:
    """The signatures over colours 1..k-1 and their fibres as vertex sets:
    signatures adjacent in G_{k-1} see only colour k between their fibres."""
    if not colouring.host.is_complete:
        raise ValueError("host must be complete")
    k = colouring.k
    if k < 2:
        raise ValueError("need at least two colours")
    fibres = signature_fibres(colouring, range(1, k))
    return (GridPointSet(k - 1, frozenset(fibres)),
            {p: frozenset(iter_bits(m)) for p, m in fibres.items()})


# -- point-set file format ---------------------------------------------------


def format_points(point_set: GridPointSet) -> str:
    out = [str(point_set.l)]
    for p in sorted(point_set.points):
        out.append(" ".join(str(x) for x in p))
    return "\n".join(out) + "\n"


def parse_points(text: str) -> GridPointSet:
    """Parse a point file; ``#`` starts a comment that runs to the end of
    its line.  Numbers are 1 to 18 ASCII decimal digits, as in colouring
    files.  A malformed header or point line raises ValueError quoting it."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty point file")
    try:
        l = parse_decimal(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad point header {lines[0]!r}: {exc}") from exc
    pts = []
    for ln in lines[1:]:
        try:
            coords = tuple(map(parse_decimal, ln.split()))
            if len(coords) != l:
                raise ValueError(f"want {l} coordinates, got {len(coords)}")
        except ValueError as exc:
            raise ValueError(f"bad point line {ln!r}: {exc}") from exc
        pts.append(coords)
    if not pts:
        raise ValueError("point file lists no points")
    return GridPointSet(l, frozenset(pts))
