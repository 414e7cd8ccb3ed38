"""Edge-coloured host graphs and monochromatic metric primitives.

Vertices are the integers 0..n-1.  A host graph is a complete graph minus
an explicit set of missing pairs; when the missing pairs are exactly the
within-class pairs of some partition, the host is complete multipartite
and the partition is recorded.  Per-colour adjacency is stored as one
bitmask per vertex, so component sweeps, balls and diameters all reduce
to integer BFS, which is fast enough for exhaustive desk-scale testing.

One kernel does that BFS: :func:`bfs_reach` is the only frontier loop
(distances, balls and components are calls to it), :func:`diameter_of_mask`
is the only all-sources sweep, and :func:`diameter_within` answers
"connected with diameter at most b" with a single BFS unless b lies
between an eccentricity and twice it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

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


def _norm_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


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
            within = {
                _norm_pair(u, v)
                for cl in classes
                for u, v in combinations(cl, 2)
            }
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
        adj = [0] * self.n
        for u, v in self.missing:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        classes = []
        for comp in components_masks(adj, self.n):
            for w in iter_bits(comp):
                if adj[w] != comp ^ (1 << w):
                    return None
            classes.append(tuple(iter_bits(comp)))
        return tuple(classes)


class EdgeColouring:
    """A ``k``-colouring of the present edges of a host graph.

    Colours are 1..k.  Internally one bytes row per vertex (0 marks a
    missing pair or the diagonal) plus one adjacency bitmask per
    (colour, vertex).  Instances are immutable once built.
    """

    __slots__ = ("host", "k", "_rows", "_adj")

    def __init__(self, host: HostGraph, k: int, rows: list[bytes],
                 adj: list[list[int]] | None = None, _validate: bool = True):
        if k < 1:
            raise ValueError("need at least one colour")
        self.host = host
        self.k = k
        self._rows = rows
        if _validate:
            self._check()
        if adj is None:
            adj = [[0] * host.n for _ in range(k + 1)]
            for u in range(host.n):
                row = rows[u]
                for v in range(u + 1, host.n):
                    c = row[v]
                    if c:
                        adj[c][u] |= 1 << v
                        adj[c][v] |= 1 << u
        self._adj = adj

    def _check(self) -> None:
        n = self.host.n
        missing = self.host.missing
        for u in range(n):
            row = self._rows[u]
            if len(row) != n:
                raise ValueError("malformed colour row")
            if row[u] != 0:
                raise ValueError("diagonal entries must be uncoloured")
            for v in range(u + 1, n):
                c = row[v]
                if c != self._rows[v][u]:
                    raise ValueError("colour matrix must be symmetric")
                if (u, v) in missing:
                    if c != 0:
                        raise ValueError(f"missing pair ({u},{v}) must not be coloured")
                elif not 1 <= c <= self.k:
                    raise ValueError(f"pair ({u},{v}) needs a colour in 1..{self.k}")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_pairs(cls, host: HostGraph, k: int,
                   colour: Mapping[tuple[int, int], int]) -> "EdgeColouring":
        n = host.n
        mat = [bytearray(n) for _ in range(n)]
        seen = set()
        for (u, v), c in colour.items():
            u, v = _norm_pair(u, v)
            if (u, v) in seen:
                raise ValueError(f"duplicate pair ({u},{v})")
            seen.add((u, v))
            mat[u][v] = c
            mat[v][u] = c
        return cls(host, k, [bytes(r) for r in mat])

    @classmethod
    def build(cls, host: HostGraph, k: int, colour_fn) -> "EdgeColouring":
        """Colour every present pair ``u < v`` with ``colour_fn(u, v)``."""
        n = host.n
        mat = [bytearray(n) for _ in range(n)]
        missing = host.missing
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) in missing:
                    continue
                c = colour_fn(u, v)
                mat[u][v] = c
                mat[v][u] = c
        return cls(host, k, [bytes(r) for r in mat])

    @classmethod
    def from_matrix(cls, host: HostGraph, k: int, mat: np.ndarray) -> "EdgeColouring":
        """Fast constructor from a symmetric uint8 colour matrix."""
        n = host.n
        mat = np.asarray(mat, dtype=np.uint8)
        if mat.shape != (n, n):
            raise ValueError("matrix shape mismatch")
        if not np.array_equal(mat, mat.T):
            raise ValueError("colour matrix must be symmetric")
        if np.any(np.diagonal(mat)):
            raise ValueError("diagonal entries must be uncoloured")
        want_zero = np.zeros((n, n), dtype=bool)
        np.fill_diagonal(want_zero, True)
        for u, v in host.missing:
            want_zero[u, v] = want_zero[v, u] = True
        vals = mat[~want_zero]
        if np.any(mat[want_zero]):
            raise ValueError("missing pairs must not be coloured")
        if vals.size and (vals.min() < 1 or vals.max() > k):
            raise ValueError(f"colours must lie in 1..{k}")
        rows = [mat[u].tobytes() for u in range(n)]
        adj = [[0] * n for _ in range(k + 1)]
        for c in range(1, k + 1):
            packed = np.packbits(mat == c, axis=1, bitorder="little")
            for u in range(n):
                adj[c][u] = int.from_bytes(packed[u].tobytes(), "little")
        return cls(host, k, rows, adj=adj, _validate=False)

    # -- accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.host.n

    def colour_of(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loop edges")
        c = self._rows[u][v]
        if c == 0:
            raise ValueError(f"pair ({u},{v}) is missing from the host")
        return c

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and self._rows[u][v] != 0

    def adj_row(self, c: int, v: int) -> int:
        return self._adj[c][v]

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

    def colours_at(self, v: int) -> set[int]:
        row = self._rows[v]
        return {c for c in row if c}

    def _check_colour(self, c: int) -> None:
        if not 1 <= c <= self.k:
            raise ValueError(f"colour {c} out of range 1..{self.k}")

    # -- derived colourings -------------------------------------------

    def with_colours_permuted(self, perm: Mapping[int, int]) -> "EdgeColouring":
        """New colouring with each colour c replaced by perm[c]."""
        if sorted(perm) != list(range(1, self.k + 1)) or \
                sorted(perm.values()) != list(range(1, self.k + 1)):
            raise ValueError("perm must be a permutation of 1..k")
        table = bytes(perm.get(c, 0) for c in range(256))
        rows = [row.translate(table) for row in self._rows]
        adj = [[0] * self.n for _ in range(self.k + 1)]
        for c in range(1, self.k + 1):
            adj[perm[c]] = self._adj[c]
        return EdgeColouring(self.host, self.k, rows, adj=adj, _validate=False)

    def recoloured(self, changes: Mapping[tuple[int, int], int]) -> "EdgeColouring":
        """New colouring with the given present pairs recoloured."""
        mat = [bytearray(r) for r in self._rows]
        for (u, v), c in changes.items():
            u, v = _norm_pair(u, v)
            if mat[u][v] == 0:
                raise ValueError(f"pair ({u},{v}) is missing from the host")
            self._check_colour(c)
            mat[u][v] = c
            mat[v][u] = c
        return EdgeColouring(self.host, self.k, [bytes(r) for r in mat], _validate=False)


# -- the BFS kernel ------------------------------------------------------


def bfs_reach(adj: Sequence[int], start_mask: int, within: int | None = None,
              radius: int | None = None,
              dist: list[int] | None = None) -> tuple[int, int]:
    """Level BFS from every vertex of ``start_mask`` at once.

    This is the package's one frontier loop.  Only vertices of ``within``
    are entered (all when None), and at most ``radius`` levels are
    expanded (no limit when None).  When ``dist`` is given, each vertex
    reached beyond the start set has its level written into it.  Returns
    (levels, reached_mask) where levels is the distance to the farthest
    reached vertex.
    """
    seen = start_mask
    frontier = start_mask
    levels = 0
    while frontier and levels != radius:
        nxt = 0
        m = frontier
        while m:
            lsb = m & -m
            nxt |= adj[lsb.bit_length() - 1]
            m ^= lsb
        if within is not None:
            nxt &= within
        nxt &= ~seen
        if not nxt:
            break
        levels += 1
        seen |= nxt
        if dist is not None:
            m = nxt
            while m:
                lsb = m & -m
                dist[lsb.bit_length() - 1] = levels
                m ^= lsb
        frontier = nxt
    return levels, seen


def bfs_distances(adj: Sequence[int], n: int, source: int,
                  within: int | None = None) -> list[int]:
    """Single-source BFS distances over bitmask adjacency; -1 = unreachable."""
    dist = [-1] * n
    dist[source] = 0
    if within is None or within >> source & 1:
        bfs_reach(adj, 1 << source, within=within, dist=dist)
    return dist


def components_masks(adj: Sequence[int], n: int, within: int | None = None) -> list[int]:
    """Connected-component bitmasks in increasing order of lowest vertex."""
    universe = (1 << n) - 1 if within is None else within
    comps = []
    left = universe
    while left:
        v = (left & -left).bit_length() - 1
        _, comp = bfs_reach(adj, 1 << v, within=universe)
        comps.append(comp)
        left &= ~comp
    return comps


def diameter_of_mask(adj: Sequence[int], mask: int, stop_above: float | None = None):
    """Diameter of the subgraph that ``mask`` induces; the one all-sources sweep.

    Returns DISCONNECTED when some vertex of the mask cannot reach the
    rest inside it.  With ``stop_above``, the sweep stops at the first
    eccentricity above it and returns that eccentricity, which is then a
    lower bound on the diameter that already exceeds ``stop_above``.
    """
    best = 0
    m = mask
    while m:
        lsb = m & -m
        levels, reach = bfs_reach(adj, lsb, within=mask)
        if reach != mask:
            return DISCONNECTED
        if levels > best:
            best = levels
            if stop_above is not None and best > stop_above:
                return best
        m ^= lsb
    return best


def diameter_within(adj: Sequence[int], mask: int, bound: float) -> bool:
    """True iff ``mask`` induces a connected subgraph of diameter <= bound.

    One BFS from the lowest vertex decides when its eccentricity e has
    2*e <= bound (every pair meets within e + e) or e > bound; only a
    bound between the two pays for the all-sources sweep, which stops at
    the first eccentricity above the bound.
    """
    ecc, reach = bfs_reach(adj, mask & -mask, within=mask)
    if reach != mask:
        return False
    if 2 * ecc <= bound or ecc > bound:
        return ecc <= bound
    return diameter_of_mask(adj, mask, stop_above=bound) <= bound


# -- monochromatic metrics ----------------------------------------------


class MonoMetrics:
    """Cached per-colour components, distances and diameters of a colouring.

    BFS rows, component masks and component diameters are memoised on
    first request.  The caches are plain dicts with no locking, so an
    instance belongs to one thread.
    """

    def __init__(self, colouring: EdgeColouring):
        self.colouring = colouring
        self._dist: dict[tuple[int, int], list[int]] = {}
        self._comps: dict[int, list[int]] = {}
        self._comp_diams: dict[int, list[int]] = {}

    def _check(self, c: int, v: int | None = None) -> None:
        self.colouring._check_colour(c)
        if v is not None and not 0 <= v < self.colouring.n:
            raise ValueError(f"vertex {v} out of range")

    def component_masks(self, c: int) -> list[int]:
        self._check(c)
        got = self._comps.get(c)
        if got is None:
            got = components_masks(self.colouring.adj_rows(c), self.colouring.n)
            self._comps[c] = got
        return got

    def components(self, c: int) -> list[list[int]]:
        return [list(iter_bits(m)) for m in self.component_masks(c)]

    def component_id(self, c: int, v: int) -> int:
        """1-based component id, ordinal by lowest contained vertex."""
        self._check(c, v)
        for i, m in enumerate(self.component_masks(c), start=1):
            if m >> v & 1:
                return i
        raise AssertionError("component sweep must cover every vertex")

    def component_mask_of(self, c: int, v: int) -> int:
        for m in self.component_masks(c):
            if m >> v & 1:
                return m
        raise AssertionError

    def distances_from(self, c: int, x: int) -> list[int]:
        self._check(c, x)
        key = (c, x)
        row = self._dist.get(key)
        if row is None:
            row = bfs_distances(self.colouring.adj_rows(c), self.colouring.n, x)
            self._dist[key] = row
        return row

    def dist(self, c: int, u: int, v: int) -> float:
        """d_c(u, v); infinity when u and v lie in different c-components."""
        self._check(c, v)
        d = self.distances_from(c, u)[v]
        return float("inf") if d < 0 else d

    def ball_mask(self, c: int, x: int, r: int) -> int:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        row = self.distances_from(c, x)
        m = 0
        for v, d in enumerate(row):
            if 0 <= d <= r:
                m |= 1 << v
        return m

    def ball(self, c: int, x: int, r: int) -> frozenset[int]:
        return frozenset(iter_bits(self.ball_mask(c, x, r)))

    def component_diameters(self, c: int) -> list[int]:
        self._check(c)
        got = self._comp_diams.get(c)
        if got is None:
            adj = self.colouring.adj_rows(c)
            got = [diameter_of_mask(adj, m) for m in self.component_masks(c)]
            self._comp_diams[c] = got
        return got

    def colour_diameter(self, c: int) -> int:
        """Largest distance between two vertices sharing a c-component."""
        diams = self.component_diameters(c)
        return max(diams) if diams else 0

    def is_spanning_connected(self, c: int) -> bool:
        masks = self.component_masks(c)
        return len(masks) == 1

    def colour_within(self, c: int, bound: int) -> bool:
        """Same as ``colour_diameter(c) <= bound``, without exact diameters."""
        adj = self.colouring.adj_rows(c)
        return all(diameter_within(adj, m, bound) for m in self.component_masks(c))

    def spans_within_diameter(self, c: int, bound: int) -> bool:
        """True iff G[c] is connected on all vertices with diameter <= bound."""
        col = self.colouring
        return diameter_within(col.adj_rows(c), (1 << col.n) - 1, bound)


def mono_components(colouring: EdgeColouring, c: int) -> list[list[int]]:
    """Partition of the vertices into c-components (singletons included)."""
    return MonoMetrics(colouring).components(c)


def mono_ball(metrics: MonoMetrics, c: int, x: int, r: int) -> frozenset[int]:
    """B_c(x, r): every vertex at c-distance at most r from x."""
    return metrics.ball(c, x, r)


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


def format_colouring(colouring: EdgeColouring) -> str:
    """Line-oriented text form: header `n k`, then one `u v c|-` per pair."""
    n = colouring.n
    missing = colouring.host.missing
    out = [f"{n} {colouring.k}"]
    for u in range(n):
        row = colouring._rows[u]
        for v in range(u + 1, n):
            if (u, v) in missing:
                out.append(f"{u} {v} -")
            else:
                out.append(f"{u} {v} {row[v]}")
    return "\n".join(out) + "\n"


def parse_colouring(text: str) -> EdgeColouring:
    """Parse the colouring file format; rejects duplicate or absent pairs."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty colouring file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'n k'")
    n, k = int(head[0]), int(head[1])
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    mat = [bytearray(n) for _ in range(n)]
    missing = []
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad pair ({u},{v})")
        u, v = _norm_pair(u, v)
        if (u, v) in seen:
            raise ValueError(f"duplicate pair ({u},{v})")
        seen.add((u, v))
        if parts[2] == "-":
            missing.append((u, v))
        else:
            c = int(parts[2])
            if not 1 <= c <= k:
                raise ValueError(f"colour {c} out of range on pair ({u},{v})")
            mat[u][v] = c
            mat[v][u] = c
    if len(seen) != n * (n - 1) // 2:
        raise ValueError("every unordered pair must appear exactly once")
    host = HostGraph(n, missing)
    inferred = host.infer_classes()
    if inferred is not None and missing:
        host = HostGraph(n, missing, classes=inferred)
    return EdgeColouring(host, k, [bytes(r) for r in mat])
