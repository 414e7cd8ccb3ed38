"""Edge-coloured host graphs and monochromatic metric primitives.

Vertices are the integers 0..n-1.  A host graph is a complete graph minus
an explicit set of missing pairs; when the missing pairs are exactly the
within-class pairs of some partition, the host is complete multipartite
and the partition is recorded.  Per-colour adjacency is stored as one
bitmask per vertex, so component sweeps, balls and diameters all reduce
to integer BFS, which is fast enough for exhaustive desk-scale testing.
Inside the library a vertex set is a bitmask too: components, balls and
layers are masks, and only ``covers.verified`` turns a construction's
masks into the frozensets of a cover.

One kernel does that BFS: :func:`bfs_reach` is the only frontier loop
(distances, balls and components are read from its levels) and stops as
soon as it has reached its whole mask; inside a level it stops reading
adjacency rows once they hold every unseen vertex of the mask, so a BFS
in a dense part reads a few rows instead of a whole frontier.
:func:`diameter_of_mask` is the one exact diameter: a degree pass, which
stops with diameter 2 once it has met one vertex that sees the rest of
the mask and one that does not, then an iFUB sweep that skips each
vertex whose eccentricity a BFS already bounds by the largest one found;
:func:`diameter_within` answers "connected with diameter at most b" with
a single BFS unless b lies between an eccentricity and twice it; that
BFS expands at most b levels, since a vertex that has not reached the
whole mask within b levels already makes the answer no.  One
rule holds across the package: a yes/no diameter question is decided by
:func:`_decide_within`, through :func:`diameter_within` or on the levels
the metrics cache keeps, and :func:`diameter_of_mask` runs only where
its number is reported or that rule leaves a gap.  ``BFS_RUNS`` counts
the calls of :func:`bfs_reach` since import; ``solver.solve4`` reads it
per stage.

A colouring has one checking constructor and one metrics cache:
:meth:`EdgeColouring.from_matrix` alone checks a colouring's n x n uint8
matrix and derives its rows and adjacency masks (the other constructors
and the parser fill a matrix and end there; :func:`check_byte_colours`
keeps k within the 255 colours a byte holds), and ``colouring.metrics``
is the one lazily made :class:`MonoMetrics` that every stage of a solve
shares.  It runs the BFS of each (colour, source) pair at most once,
keeps its levels, and answers components, distance rows, balls and the
threshold questions from them.  A search over many sources, such as the
solver's pair searches, calls :func:`bfs_reach` with a level cap
instead, and no cache keeps those runs.

The colouring file format is read and written without a Python loop per
pair, and in pieces: :func:`parse_colouring` reads a str's or a file's
UTF-8 bytes in blocks cut after their last line break (:func:`_pieces`),
checks and tokenises each with numpy passes, keeps 9 bytes a pair, so
that its peak memory is a small multiple of the text (from a file, the
whole text is never held), and ends in :meth:`EdgeColouring.from_matrix`;
:func:`colouring_lines` yields the text a row at a time, each row by
lookup in a table of "v c" strings; :func:`format_colouring` joins it.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np


class _Disconnected:
    """Sentinel for the diameter of a disconnected induced subgraph."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "disconnected"


DISCONNECTED = _Disconnected()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """The set bit positions of a nonnegative ``mask`` in increasing order,
    as :func:`iter_bits` yields them, from one numpy pass over its bytes:
    about 5 times faster on a 600-vertex mask."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def _norm_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _clique_classes(n: int, missing: Iterable[tuple[int, int]]
                    ) -> tuple[tuple[int, ...], ...] | None:
    """Body of :meth:`HostGraph.infer_classes` for checked pairs, so the
    parser can infer classes before it builds its one host."""
    adj = [0] * n
    for u, v in missing:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    classes = []
    for comp in components_masks(adj, n):
        for w in iter_bits(comp):
            if adj[w] != comp ^ (1 << w):
                return None
        classes.append(tuple(iter_bits(comp)))
    return tuple(classes)


class HostGraph:
    """Complete graph on ``n`` vertices minus an explicit missing-pair set."""

    __slots__ = ("n", "missing", "classes")

    def __init__(self, n: int, missing: Iterable[tuple[int, int]] = (),
                 classes: Sequence[Sequence[int]] | None = None):
        if n < 1:
            raise ValueError("host graph needs at least one vertex")
        self.n = n
        pairs = set()
        for u, v in missing:
            if u == v:
                raise ValueError(f"loop pair ({u},{v}) in missing set")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"missing pair ({u},{v}) out of range")
            pairs.add(_norm_pair(u, v))
        self.missing: frozenset[tuple[int, int]] = frozenset(pairs)
        if classes is not None:
            classes = tuple(tuple(sorted(cl)) for cl in classes)
            seen = [v for cl in classes for v in cl]
            if sorted(seen) != list(range(n)):
                raise ValueError("classes must partition the vertex set")
            # sorted classes give each within-class pair as (u, v), u < v
            within = {pair for cl in classes for pair in combinations(cl, 2)}
            if within != self.missing:
                raise ValueError("missing pairs must be exactly the within-class pairs")
        self.classes: tuple[tuple[int, ...], ...] | None = classes

    @classmethod
    def complete(cls, n: int) -> "HostGraph":
        return cls(n)

    @classmethod
    def multipartite(cls, sizes: Sequence[int]) -> "HostGraph":
        """Complete multipartite host K_{sizes[0],...}; classes are consecutive ranges."""
        if any(s < 1 for s in sizes):
            raise ValueError("class sizes must be positive")
        classes = []
        start = 0
        for s in sizes:
            classes.append(tuple(range(start, start + s)))
            start += s
        missing = [(u, v) for cl in classes for u, v in combinations(cl, 2)]
        return cls(start, missing, classes)

    @property
    def is_complete(self) -> bool:
        return not self.missing

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _norm_pair(u, v) not in self.missing

    def infer_classes(self) -> tuple[tuple[int, ...], ...] | None:
        """Partition whose within-class pairs are exactly the missing set, if one exists.

        Missing-graph components must be cliques; isolated vertices become
        singleton classes.  A complete host yields all-singleton classes.
        """
        return _clique_classes(self.n, self.missing)


def check_byte_colours(k: int) -> None:
    """Reject a colour count that a uint8 colour matrix cannot hold."""
    if k > 255:
        raise ValueError(f"k = {k} exceeds the 255 colours a byte can hold")


def _write_pairs(mat: np.ndarray, host: HostGraph,
                 colour: Mapping[tuple[int, int], int]) -> None:
    """Set ``mat[u, v] = mat[v, u] = c`` for each ``(u, v): c`` of ``colour``.

    Pairs and colours are checked first, since numpy would wrap vertex -1
    to n-1 and a uint8 store would wrap colour 257 to 1; from_matrix
    checks that colours lie in 1..k."""
    n = host.n
    missing = host.missing
    seen = set()
    for (u, v), c in colour.items():
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad pair ({u},{v})")
        pair = _norm_pair(u, v)
        if pair in seen:
            raise ValueError(f"duplicate pair ({pair[0]},{pair[1]})")
        seen.add(pair)
        if pair in missing:
            raise ValueError(f"pair ({u},{v}) is missing from the host")
        if not 0 <= c <= 255:
            raise ValueError(f"colour {c} out of range on pair ({u},{v})")
        mat[u, v] = mat[v, u] = c


class EdgeColouring:
    """A ``k``-colouring of the present edges of a host graph.

    Colours are 1..k.  Internally one bytes row per vertex (0 marks a
    missing pair or the diagonal) plus one adjacency bitmask per
    (colour, vertex).  Instances are immutable once built, always by
    :meth:`from_matrix`, the one checking constructor: the other
    constructors fill a matrix and call it.
    """

    __slots__ = ("host", "k", "_rows", "_adj", "_metrics")

    def __init__(self, host: HostGraph, k: int, rows: list[bytes],
                 adj: list[list[int]]):
        """Store the fields as given; use :meth:`from_matrix` to build."""
        self.host = host
        self.k = k
        self._rows = rows
        self._adj = adj
        self._metrics = None

    # -- constructors ------------------------------------------------

    @classmethod
    def from_matrix(cls, host: HostGraph, k: int, mat: np.ndarray) -> "EdgeColouring":
        """Colouring from its symmetric n x n uint8 colour matrix: 1..k on
        every present pair, 0 on the diagonal and the missing pairs, with
        1 <= k <= 255."""
        if k < 1:
            raise ValueError("need at least one colour")
        check_byte_colours(k)
        n = host.n
        mat = np.asarray(mat)
        if mat.shape != (n, n) or mat.dtype != np.uint8:
            raise ValueError(f"colour matrix must be {n} x {n} uint8")
        if not np.array_equal(mat, mat.T):
            raise ValueError("colour matrix must be symmetric")
        if np.any(mat.diagonal()):
            raise ValueError("diagonal entries must be uncoloured")
        missing = host.missing
        uv = np.fromiter(chain.from_iterable(missing), np.intp, 2 * len(missing))
        if np.any(mat[uv[0::2], uv[1::2]]):
            raise ValueError("missing pairs must not be coloured")
        # The diagonal and the missing pairs are 0, so every present pair
        # is coloured iff the nonzero entries are exactly the present ones.
        if np.count_nonzero(mat) != n * (n - 1) - 2 * len(missing) or mat.max() > k:
            raise ValueError(f"colours must lie in 1..{k}")
        rows = [row.tobytes() for row in mat]
        width = (n + 7) // 8
        adj = [[0] * n]
        for c in range(1, k + 1):
            bits = np.packbits(mat == c, axis=1, bitorder="little").tobytes()
            adj.append([int.from_bytes(bits[i:i + width], "little")
                        for i in range(0, n * width, width)])
        return cls(host, k, rows, adj)

    @classmethod
    def from_pairs(cls, host: HostGraph, k: int,
                   colour: Mapping[tuple[int, int], int]) -> "EdgeColouring":
        """Each present pair named once, in either order, with its colour."""
        mat = np.zeros((host.n, host.n), dtype=np.uint8)
        _write_pairs(mat, host, colour)
        return cls.from_matrix(host, k, mat)

    @classmethod
    def build(cls, host: HostGraph, k: int, colour_fn) -> "EdgeColouring":
        """Colour every present pair ``u < v``, row by row, with ``colour_fn(u, v)``."""
        n = host.n
        missing = host.missing
        mat = bytearray(n * n)
        for u, v in combinations(range(n), 2):
            if (u, v) not in missing:
                mat[u * n + v] = mat[v * n + u] = colour_fn(u, v)
        return cls.from_matrix(host, k, np.frombuffer(mat, dtype=np.uint8).reshape(n, n))

    # -- accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.host.n

    @property
    def metrics(self) -> "MonoMetrics":
        """The colouring's one :class:`MonoMetrics`, made on first use and
        shared by every caller, since the colouring never changes."""
        if self._metrics is None:
            self._metrics = MonoMetrics(self)
        return self._metrics

    def matrix(self) -> np.ndarray:
        """A fresh, writable n x n uint8 colour matrix (0 off the host)."""
        n = self.n
        return np.frombuffer(bytearray(b"".join(self._rows)),
                             dtype=np.uint8).reshape(n, n)

    def colour_of(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loop edges")
        c = self._rows[u][v]
        if c == 0:
            raise ValueError(f"pair ({u},{v}) is missing from the host")
        return c

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and self._rows[u][v] != 0

    def adj_rows(self, c: int) -> list[int]:
        self._check_colour(c)
        return self._adj[c]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        n = self.host.n
        for u in range(n):
            row = self._rows[u]
            for v in range(u + 1, n):
                if row[v]:
                    yield u, v, row[v]

    def _check_colour(self, c: int) -> None:
        if not 1 <= c <= self.k:
            raise ValueError(f"colour {c} out of range 1..{self.k}")

    # -- derived colourings -------------------------------------------

    def recoloured(self, changes: Mapping[tuple[int, int], int]) -> "EdgeColouring":
        """New colouring with the given present pairs recoloured."""
        mat = self.matrix()
        _write_pairs(mat, self.host, changes)
        return EdgeColouring.from_matrix(self.host, self.k, mat)


# -- the BFS kernel ------------------------------------------------------

BFS_RUNS = 0  # calls of bfs_reach so far; read it, never reset it

# Adjacency rows by vertex: a colour's full list, or a dict holding the
# rows of the vertices a search may enter (``twocolour``'s cross rows).
Rows = Sequence[int] | Mapping[int, int]


def bfs_reach(adj: Rows, start_mask: int, within: int | None = None,
              radius: int | None = None,
              fringes: list[int] | None = None) -> tuple[int, int]:
    """Level BFS from every vertex of ``start_mask`` at once.

    This is the package's one frontier loop.  Only vertices of ``within``
    are entered (all when None), and at most ``radius`` levels are
    expanded (no limit when None).  ``adj`` may be any int-indexed rows,
    a list or a dict, since only the rows of reached vertices are read.
    The loop stops as soon as it has reached all of ``within``, since one
    more level could only come back empty.  A level stops early too: when
    ``within`` is given, it stops reading adjacency rows once the rows
    read so far cover every unseen vertex of ``within``, since the rest
    of the frontier could add nothing new.  When ``fringes`` is given,
    each level's mask is appended to it, level 1 first.  Returns
    (levels, reached_mask) where levels is the distance to the farthest
    reached vertex.
    """
    global BFS_RUNS
    BFS_RUNS += 1
    frontier = start_mask
    levels = 0
    # The vertices still to reach.  With no ``within`` that is the
    # complement of the reached set, a negative int, which no OR of rows
    # can hold and which is never 0.
    todo = ~start_mask if within is None else within & ~start_mask
    while frontier and levels != radius and todo:
        nxt = 0
        m = frontier
        while m:
            lsb = m & -m
            nxt |= adj[lsb.bit_length() - 1]
            if nxt & todo == todo:
                break
            m ^= lsb
        nxt &= todo
        if not nxt:
            break
        levels += 1
        todo ^= nxt
        if fringes is not None:
            fringes.append(nxt)
        frontier = nxt
    return levels, ~todo if within is None else start_mask | within & ~todo


def bfs_distances(adj: Sequence[int], n: int, source: int,
                  within: int | None = None) -> list[int]:
    """Single-source BFS distances over bitmask adjacency; -1 = unreachable."""
    dist = [-1] * n
    dist[source] = 0
    if within is None:
        within = (1 << n) - 1
    if within >> source & 1:
        fringes: list[int] = []
        bfs_reach(adj, 1 << source, within=within, fringes=fringes)
        for d, level in enumerate(fringes, 1):
            for v in iter_bits(level):
                dist[v] = d
    return dist


def components_masks(adj: Sequence[int], n: int) -> list[int]:
    """Connected-component bitmasks in increasing order of lowest vertex."""
    universe = (1 << n) - 1
    comps = []
    left = universe
    while left:
        v = (left & -left).bit_length() - 1
        _, comp = bfs_reach(adj, 1 << v, within=universe)
        comps.append(comp)
        left &= ~comp
    return comps


def diameter_of_mask(adj: Rows, mask: int, stop_above: float | None = None):
    """Diameter of the subgraph that ``mask`` induces; the one exact
    diameter: a degree pass, then an iFUB sweep pruned by eccentricity
    bounds.

    Returns DISCONNECTED when some vertex of the mask cannot reach the
    rest inside it.  One pass takes each vertex's degree inside the mask
    (``adj`` is loopless, as every colour graph is).  A vertex that sees
    the rest of the mask puts every pair within 2 of each other through
    it, so the pass stops, with diameter 2 and no BFS, as soon as it has
    met one vertex that sees the rest and one that does not; if every
    vertex sees the rest, the diameter is 1.

    Else one BFS from a vertex u of highest degree, the lowest on ties,
    gives its levels F_1..F_e, and the iFUB method (Crescenzi et al., TCS
    2013) runs a BFS from each vertex of F_e, then F_(e-1), and so on,
    keeping in ``diam`` the largest eccentricity found.  While it is in
    F_i, every vertex in F_(i+1).. has had its BFS or been settled (below),
    and either way has eccentricity at most ``diam``; every other pair
    lies in F_1..F_i and meets within i + i through u.  So the diameter is
    ``diam`` once ``diam`` reaches 2i.

    The sweep skips settled vertices, as BoundingDiameters (Takes and
    Kosters, CIKM 2011) does with its eccentricity bounds: after a BFS
    from v of eccentricity e_v, a vertex w within ``diam`` - e_v of v has
    eccentricity at most d(w, v) + e_v <= ``diam``, and the levels of that
    BFS name these vertices.  ``diam`` only grows, so a settled vertex
    never holds a longer pair than the sweep has found, and skipping it
    changes neither the answer nor the points where the rule above or
    ``stop_above`` ends the sweep.

    With ``stop_above``, the sweep stops at the first eccentricity above
    it and returns that eccentricity, which is then a lower bound on the
    diameter that already exceeds ``stop_above``.
    """
    if not mask & (mask - 1):
        return 0
    size = mask.bit_count()
    hub, hub_deg, low_deg = 0, -1, size
    m = mask
    while m:
        lsb = m & -m
        deg = (adj[lsb.bit_length() - 1] & mask).bit_count()
        if deg > hub_deg:
            hub, hub_deg = lsb, deg
        if deg < low_deg:
            low_deg = deg
        if low_deg < hub_deg == size - 1:
            return 2
        m ^= lsb
    if hub_deg == size - 1:
        return 1
    fringes: list[int] = []
    diam, reach = bfs_reach(adj, hub, within=mask, fringes=fringes)
    if reach != mask:
        return DISCONNECTED
    settled = 0
    for i in range(diam, 0, -1):
        m = fringes[i - 1] & ~settled
        while m:
            if diam >= 2 * i or (stop_above is not None and diam > stop_above):
                return diam
            lsb = m & -m
            near: list[int] = []
            ecc = bfs_reach(adj, lsb, within=mask, fringes=near)[0]
            m ^= lsb
            if ecc < diam:
                settled |= reduce(or_, near[:diam - ecc])
                m &= ~settled
            else:
                diam = ecc
    return diam


def diameter_within(adj: Rows, mask: int, bound: float) -> bool:
    """True iff ``mask`` induces a connected subgraph of diameter <= bound.

    One BFS from the lowest vertex, capped at floor(bound) levels (no cap
    for an infinite bound), comes first, and :func:`_decide_within` reads
    the answer from it.
    """
    radius = None if bound == math.inf else math.floor(bound)
    ecc, reach = bfs_reach(adj, mask & -mask, within=mask, radius=radius)
    return _decide_within(adj, mask, ecc, reach, bound)


def _decide_within(adj: Rows, mask: int, ecc: int, reach: int, bound: float) -> bool:
    """The rule of :func:`diameter_within` and of the metrics' threshold
    questions, given a BFS inside ``mask`` from one of its vertices that
    reached ``reach`` in ``ecc`` levels, uncapped or capped at floor(bound).

    If it has not reached the whole mask, the mask is disconnected or that
    vertex's eccentricity exceeds the bound, and the answer is no either
    way.  Otherwise ``ecc`` is the exact eccentricity e, and e > bound
    decides no, 2*e <= bound yes (every pair meets within e + e); only a
    bound between e and 2*e pays for the one exact diameter (a degree
    pass, then the pruned iFUB sweep), which stops at the first
    eccentricity above the bound.
    """
    if reach != mask:
        return False
    if 2 * ecc <= bound or ecc > bound:
        return ecc <= bound
    return diameter_of_mask(adj, mask, stop_above=bound) <= bound


# -- monochromatic metrics ----------------------------------------------


class MonoMetrics:
    """Cached per-colour BFS levels of a colouring, and what they give.

    The one cached search is the BFS of a (colour, source) pair: its
    levels, as :func:`bfs_reach` appends them to ``fringes``, with the
    source's own mask in front.  Each pair's BFS runs at most once per
    instance, and every other answer is read off levels: the components
    (the levels of each component's lowest vertex), distance rows, balls
    (the OR of the first r + 1 levels) and the threshold questions, whose
    eccentricity is the level count (:func:`_decide_within`, the rule of
    :func:`diameter_within`).  Levels, rows and component lists are
    memoised on first request.  Each colouring holds one instance,
    ``colouring.metrics``, which lives as long as the colouring does, and
    every caller shares its lists: read them, never change them.  The
    caches are plain dicts with no locking, so an instance, and with it
    the colouring's metric queries, belongs to one thread.
    """

    def __init__(self, colouring: EdgeColouring):
        # The colouring's fields, not the colouring, which holds this cache:
        # a reference back would be a cycle that only the cyclic garbage
        # collector frees, often long after the colouring is dropped.
        self.n = colouring.n
        self.k = colouring.k
        self._adj = colouring._adj
        self._full = (1 << self.n) - 1
        self._bfs: dict[tuple[int, int], tuple[list[int], int]] = {}
        self._dist: dict[tuple[int, int], list[int]] = {}
        self._comps: dict[int, list[int]] = {}

    def _check(self, c: int, v: int | None = None) -> None:
        if not 1 <= c <= self.k:
            raise ValueError(f"colour {c} out of range 1..{self.k}")
        if v is not None and not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")

    def _search(self, c: int, x: int) -> tuple[list[int], int]:
        """The levels of the c-BFS from x and the mask it reached, x's
        c-component.  The BFS runs on the first request only."""
        got = self._bfs.get((c, x))
        if got is None:
            self._check(c, x)
            levels = [1 << x]
            _, reach = bfs_reach(self._adj[c], 1 << x, within=self._full,
                                 fringes=levels)
            got = self._bfs[(c, x)] = (levels, reach)
        return got

    def levels(self, c: int, x: int) -> list[int]:
        """The c-BFS levels of x: entry i is the mask of the vertices at
        c-distance i from x, entry 0 is x alone, and the last entry is the
        farthest, so the list's length less one is x's eccentricity in its
        component."""
        return self._search(c, x)[0]

    def component_masks(self, c: int) -> list[int]:
        """The c-components as masks, singletons included, in increasing
        order of lowest vertex."""
        self._check(c)
        got = self._comps.get(c)
        if got is None:
            got = []
            left = self._full
            while left:
                comp = self._search(c, (left & -left).bit_length() - 1)[1]
                got.append(comp)
                left &= ~comp
            self._comps[c] = got
        return got

    def distances_from(self, c: int, x: int) -> list[int]:
        """d_c(x, v) for every vertex v, -1 outside x's c-component, read
        off x's c-levels."""
        row = self._dist.get((c, x))
        if row is None:
            row = self._dist[(c, x)] = [-1] * self.n
            for d, level in enumerate(self.levels(c, x)):
                for v in iter_bits(level):
                    row[v] = d
        return row

    def dist(self, c: int, u: int, v: int) -> float:
        """d_c(u, v); infinity when u and v lie in different c-components."""
        self._check(c, v)
        d = self.distances_from(c, u)[v]
        return float("inf") if d < 0 else d

    def ball_mask(self, c: int, x: int, r: int) -> int:
        """B_c(x, r) as a mask: every vertex at c-distance at most r from x."""
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return reduce(or_, self.levels(c, x)[:r + 1])

    def within(self, c: int, mask: int, bound: float) -> bool:
        """``diameter_within(adj_rows(c), mask, bound)`` for a mask that is
        a union of c-components (one component, or every vertex), read off
        the levels of its lowest vertex: inside such a mask, that BFS is
        the one in the whole colour graph."""
        levels, reach = self._search(c, (mask & -mask).bit_length() - 1)
        return _decide_within(self._adj[c], mask, len(levels) - 1, reach, bound)

    def colour_diameter(self, c: int) -> int:
        """Largest distance between two vertices sharing a c-component."""
        return max(diameter_of_mask(self._adj[c], m) for m in self.component_masks(c))

    def colour_within(self, c: int, bound: float) -> bool:
        """Same as ``colour_diameter(c) <= bound``, without exact diameters."""
        return all(self.within(c, m, bound) for m in self.component_masks(c))

    def spans_within_diameter(self, c: int, bound: float) -> bool:
        """True iff G[c] is connected on all vertices with diameter <= bound."""
        self._check(c)
        return self.within(c, self._full, bound)


def set_diameter(colouring: EdgeColouring, c: int, vertices: Iterable[int]):
    """Diameter of the subgraph induced on ``vertices`` by c-coloured edges.

    Only edges with both ends inside the set count, so this can exceed
    the ambient c-distance.  Returns DISCONNECTED when the induced graph
    has an unreachable pair; a singleton set has diameter 0.
    """
    colouring._check_colour(c)
    verts = set(vertices)
    if not verts:
        raise ValueError("set_diameter needs a nonempty vertex set")
    if min(verts) < 0 or max(verts) >= colouring.n:
        raise ValueError("vertex out of range")
    return diameter_of_mask(colouring.adj_rows(c), mask_of(verts))


# -- colouring file format ----------------------------------------------


_MAX_DIGITS = 18  # keeps every value inside int64


def parse_decimal(token: str) -> int:
    """A number token of the cover and point files, read as the colouring
    parser reads its numbers: 1 to 18 ASCII decimal digits and nothing
    else, so `+1`, `1_0` and non-ASCII digits are rejected."""
    if not (0 < len(token) <= _MAX_DIGITS and token.isascii() and token.isdigit()):
        raise ValueError(f"want at most {_MAX_DIGITS} ASCII decimal digits, "
                         f"got {token!r}")
    return int(token)


def colouring_lines(colouring: EdgeColouring) -> Iterator[str]:
    """The text form of :func:`format_colouring` in pieces: the header
    line, then one block of `u v c|-` lines per vertex u < n-1, each
    piece ending in a line break, for a writer that never holds the
    whole text."""
    n = colouring.n
    rows = colouring._rows
    # table[code[c] + v] is "v c" for each colour c that occurs, and "v -"
    # for 0 if some pair is missing
    used = [c for c in range(1, colouring.k + 1) if any(colouring.adj_rows(c))]
    if colouring.host.missing:
        used.insert(0, 0)
    code = np.zeros(256, dtype=np.intp)
    code[used] = np.arange(len(used)) * n
    table = [f"{v} {c or '-'}" for c in used for v in range(n)]
    cols = np.arange(n)
    yield f"{n} {colouring.k}\n"
    for u in range(n - 1):
        idx = code[np.frombuffer(rows[u], np.uint8, offset=u + 1)] + cols[u + 1:]
        pre = f"{u} "
        yield pre + ("\n" + pre).join(map(table.__getitem__, idx.tolist())) + "\n"


def format_colouring(colouring: EdgeColouring) -> str:
    """Line-oriented text form: header `n k`, then one `u v c|-` per pair."""
    return "".join(colouring_lines(colouring))


def _line_error(buf: np.ndarray, breaks: np.ndarray, pos: int, what: str) -> ValueError:
    """ValueError quoting the line of ``buf`` that holds byte ``pos``."""
    i = int(np.searchsorted(breaks, pos))
    lo = int(breaks[i - 1]) + 1 if i else 0
    hi = int(breaks[i]) if i < breaks.size else buf.size
    line = buf[lo:hi].tobytes().decode("utf-8", "replace")
    return ValueError(f"{what}: {line.strip()!r}")


def _read_chunk(buf: np.ndarray, first: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """Token values of a line-aligned piece of a colouring file, comments
    deleted, and which of its pair lines have a `-` colour; None if it has
    no tokens.  ``first`` says that no token came before the piece, so
    that its first non-empty line is the header.  Every check that a single
    line settles runs here: the line widths, the lone `-` and the digits of
    each token; lines end at the bytes of ``_LINE_BREAKS``."""
    ix = np.int32 if buf.size < 2**31 else np.int64
    # Byte classes by uint8 comparisons (a difference wraps below 0, so
    # code - 10 < 4 means 10 <= code <= 13).  Whitespace is what str.split()
    # splits at in ASCII text, 9-13 and 28-32, and line breaks what
    # str.splitlines() splits at, 10-13 and 28-30: all below 33, and the
    # control bytes among them are few, so those alone are told apart.
    space = buf <= 32
    ctl = np.flatnonzero(buf < 32)
    code = buf[ctl]
    breaks = ctl[((code - np.uint8(10)) < 4) | ((code - np.uint8(28)) < 3)]
    space[ctl[(code < 9) | ((code - np.uint8(14)) < 14)]] = False
    del ctl, code
    digits = buf - np.uint8(ord("0"))
    odd = np.flatnonzero(~(space | (digits < 10)))
    pad = np.concatenate(([True], space, [True]))
    del space
    starts = np.flatnonzero(pad[:-2] > pad[1:-1]).astype(ix)
    ends = np.flatnonzero(pad[1:-1] < pad[2:]).astype(ix) + 1
    del pad
    if not starts.size:
        return None

    # 2 tokens on the header line, 3 on every other non-empty one.  cuts
    # holds the number of tokens before each line start, so its distinct
    # values are the first tokens of the non-empty lines.
    cuts = np.concatenate(([0], np.searchsorted(starts, breaks), [starts.size]))
    heads = cuts[np.flatnonzero(np.diff(cuts))]
    widths = np.diff(heads, append=starts.size)
    del cuts
    if first and widths[0] != 2:
        raise _line_error(buf, breaks, starts[0], "header must be 'n k'")
    rest = int(first)  # the first line past the header
    bad = np.flatnonzero(widths[rest:] != 3)
    if bad.size:
        raise _line_error(buf, breaks, starts[heads[bad[0] + rest]], "bad edge line")
    del heads, widths

    # the only token that is not digits is a lone '-' in a colour column
    lead = 2 if first else 0
    odd_tok = np.searchsorted(starts, odd, side="right") - 1
    dash = ((buf[odd] == ord("-")) & (ends[odd_tok] - starts[odd_tok] == 1)
            & ((odd_tok - lead) % 3 == 2) & (odd_tok >= lead))
    if not dash.all():
        t = odd_tok[np.argmin(dash)]
        token = buf[starts[t]:ends[t]].tobytes().decode("utf-8", "replace")
        raise _line_error(buf, breaks, starts[t], f"bad token {token!r} in line")
    dashed = np.zeros((starts.size - lead) // 3, dtype=bool)
    dashed[(odd_tok - lead) // 3] = True
    del odd, odd_tok, dash

    lengths = ends - starts
    too_long = np.flatnonzero(lengths > _MAX_DIGITS)
    if too_long.size:
        raise _line_error(buf, breaks, starts[too_long[0]], "number too long in line")
    # digit j from the end of each token, over the tokens longer than j
    last = ends - 1
    val = digits[last].astype(np.int64)
    for j in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > j)
        val[live] += digits[last[live] - j].astype(np.int64) * 10**j
    return val, dashed


_CHUNK = 1 << 18  # bytes of a binary file, or characters of text, read at a time
_LINE_BREAKS = b"\n\r\v\f\x1c\x1d\x1e"  # README's, which _read_chunk tells apart
_COMMENT = re.compile(b"#[^%s]*" % _LINE_BREAKS)  # '#' up to a line break


def _pieces(source: str | IO) -> Iterator[tuple[int, bytes]]:
    """The UTF-8 bytes of ``source`` as (offset, piece) pairs: blocks of
    ``_CHUNK`` bytes of a binary file, or characters of a text file or a
    str, encoded, each cut after its last line break, with what follows
    the cut (or a whole block with no break) carried to the next piece."""
    if isinstance(source, str):
        blocks = (source[i:i + _CHUNK] for i in range(0, len(source), _CHUNK))
    else:
        blocks = iter(lambda: source.read(_CHUNK), source.read(0))  # "" or b"" ends
    offset, held = 0, []
    for block in blocks:
        if isinstance(block, str):
            block = block.encode()
        cut = -1
        for b in _LINE_BREAKS:  # '\n' first, so the others search past it only
            cut = max(cut, block.rfind(b, cut + 1))
        if cut < 0:
            held.append(block)
            continue
        piece = b"".join([*held, memoryview(block)[:cut + 1]])
        held = [block[cut + 1:]]
        del block  # not held while the piece is read
        yield offset, piece
        offset += len(piece)
    if rest := b"".join(held):
        yield offset, rest


def parse_colouring(source: str | IO) -> EdgeColouring:
    """Parse the colouring file format from a str or an open text or
    binary file; rejects duplicate or absent pairs.

    A `#` blanks the rest of its line; tokens are the runs between ASCII
    whitespace.  The first non-empty line must hold `n k` and every later
    one `u v c` or `u v -`, with each other token made of ASCII decimal
    digits.  A file's bytes must be UTF-8.

    The bytes are read in pieces (:func:`_pieces`), each at most a block
    and a line long.  A piece with a non-ASCII byte is decoded, only to
    check it; as every cut follows an ASCII byte, a fault is named at its
    offset in the file, as a decode of all its bytes names it, from a pipe
    too.  Then its comments are deleted and it is scanned by numpy passes,
    which keep its pairs' vertices and colours (0 for `-`), 9 bytes a pair.
    A file's whole text is never held, and the pair count is checked
    against n(n-1)/2 before anything of size n*n is allocated.  So memory
    stays linear in the text: on a uniform K_800 file the peak of a parse
    from a str, encoded a block at a time, is about 2.3 times the text, and
    on K_3000 about once the text, the text itself not counted.  A file and
    its text give the same colouring, and an ASCII one the same pieces.
    Checks that a single line settles run piece by piece, and those on
    pairs (range, duplicates, colours) after the last one; so with faults
    in different pieces, the message may name another than the first.
    """
    head = None
    chunks = []  # per piece: smaller and larger vertex (int32), colour (uint8)
    bad_pair = bad_colour = None
    for offset, piece in _pieces(source):
        if not piece.isascii():
            try:
                piece.decode()
            except UnicodeDecodeError as exc:
                at, end = offset + exc.start, offset + exc.end - 1
                where = (f"byte {piece[exc.start]:#04x} in position {at}" if end == at
                         else f"bytes in position {at}-{end}")
                raise ValueError(f"'utf-8' codec can't decode {where}: {exc.reason}") from None
        if b"#" in piece:
            piece = _COMMENT.sub(b"", piece)
        read = _read_chunk(np.frombuffer(piece, dtype=np.uint8), head is None)
        if read is None:
            continue
        val, dashed = read
        if head is None:
            head, val = (int(val[0]), int(val[1])), val[2:]
        n, k = head
        u, v, c = val[0::3], val[1::3], val[2::3]
        # the range is checked before the narrowing to int32, so that the
        # message quotes a vertex past int32 whole; one below n fits, as no
        # text holds the pair count of an n past int32
        bad = np.flatnonzero((u >= n) | (v >= n) | (u == v))
        if bad.size and bad_pair is None:
            bad_pair = f"bad pair ({u[bad[0]]},{v[bad[0]]})"
        bad = np.flatnonzero(~dashed & ((c < 1) | (c > k)))
        if bad.size and bad_colour is None:
            i = bad[0]
            bad_colour = f"colour {c[i]} out of range on pair ({u[i]},{v[i]})"
        chunks.append((np.minimum(u, v).astype(np.int32),
                       np.maximum(u, v).astype(np.int32),
                       np.where(dashed, 0, c).astype(np.uint8)))
        del val, dashed, u, v, c

    if head is None:
        raise ValueError("empty colouring file")
    n, k = head
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    check_byte_colours(k)
    m = n * (n - 1) // 2
    pairs = sum(lo.size for lo, _, _ in chunks)
    if pairs != m:
        raise ValueError(f"every unordered pair must appear exactly once: "
                         f"{pairs} pair lines for n = {n}")
    if bad_pair is not None:
        raise ValueError(bad_pair)
    seen = np.zeros((n, n), dtype=bool)
    for lo, hi, _ in chunks:
        seen[lo, hi] = True
    if np.count_nonzero(seen) != m:
        lo = np.concatenate([lo for lo, _, _ in chunks])
        hi = np.concatenate([hi for _, hi, _ in chunks])
        _, first = np.unique(lo.astype(np.int64) * n + hi, return_index=True)
        again = np.ones(m, dtype=bool)
        again[first] = False
        i = np.argmax(again)
        raise ValueError(f"duplicate pair ({lo[i]},{hi[i]})")
    del seen
    if bad_colour is not None:
        raise ValueError(bad_colour)
    # every colour now lies in 1..k, so colour 0 marks a '-' pair
    mat = np.zeros((n, n), dtype=np.uint8)
    missing = []
    for lo, hi, col in chunks:
        mat[lo, hi] = col
        mat[hi, lo] = col
        miss = col == 0
        missing += zip(lo[miss].tolist(), hi[miss].tolist())
    del chunks
    classes = _clique_classes(n, missing) if missing else None
    return EdgeColouring.from_matrix(HostGraph(n, missing, classes), k, mat)
