"""Brute-force ground truth: minimal covers at tiny sizes, exhaustive scans.

Everything here but the random sampler above 10 vertices, which runs
``solve4``, is independent of the constructive solvers.  A search reads
tables gathered once per colouring (:func:`_tables`): for each colour c,
the c-adjacency rows and, for each vertex v, the c-balls around v at every
radius; the ball of radius n-1 is v's c-component.  A colour graph's balls
are a function of its adjacency rows alone, so :func:`_balls` builds them
once per distinct colour graph and keeps the :data:`BALL_CACHE_SIZE` most
recently used: the colourings of a scan share few colour graphs between
many instances.  A search at bound r reads the balls of radius r, or the
components when the bound is None, so :func:`minimal_bound` runs its whole
climb from the lower bound on one set of tables.
The search (:func:`_search`) assigns vertices to at most ``max_parts``
blocks in canonical order (blocks indexed by first contained vertex).
Each block carries the set of colours in which its vertices are
pairwise near, and a block left with no colour prunes the branch.
When every vertex is placed, each block is finished in the first of its
colours that admits an exact extension inside its pool.

Exhaustive scans take the colourings of K_n up to colour permutation as
one uint8 array of canonical colour tuples, a row each, in the order of
their codes, and search only the first row of each isomorphism class.
Its least bound is written, in an int16 array indexed by row, into the
rows of the canonical tuples of every relabelling of its vertices, found
by their codes; the next class to search is the first row still unset.
Python runs once per class, never once per tuple.  This is exact:
relabelling the vertices or permuting the colours maps covers to covers
with the same diameters, and the search is exhaustive, so the report,
witnesses and ``limit`` included, is what a search of every tuple gives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from operator import or_
from typing import Sequence

import numpy as np

from .covers import Cover, verify_cover
from .graphs import (EdgeColouring, HostGraph, bfs_reach, diameter_within,
                     iter_bits)
from .solver import BRANCH_FALLBACK, COVER_BOUND, solve4

MAX_ORACLE_VERTICES = 14

BALL_CACHE_SIZE = 1024
"""Ball tables :func:`_balls` keeps, one per colour graph: 2**10, every
colour graph on K_5, so no work on K_5 evicts one.  The scan of K_5 in
three colours searches 142 colourings, whose 426 colour graphs are 125
edge sets; in four colours, 513 colourings and 168 edge sets.  An
entry holds n * n masks in n + 1 tuples.  The worst case is n = 14 with
every mask a distinct int, as on a path: 14 * (168 + 14 * 28) + 168
bytes, about 8 KB, so a full cache holds about 8 MB (1024 paths on 14
vertices measured 8.4 MB, the cache's links included, its keys not).
Masks below 257 are ints that Python shares, so at n = 5 a full cache
holds about 1.3 MB, keys and links included."""


_UNSET, _NO_COVER = -2, -1
"""The scan's marks in its int16 table of least bounds: a row whose class
is not yet judged, and a class with no cover in the part budget."""

_SEEK = 4096
"""Rows the scan tests at a time for the next class to judge."""


def _search_bound(bound: float | None) -> int | None:
    """The bound as a search reads it: None for connectivity only, which
    ``None`` and ``math.inf`` both ask for; raises ValueError on a
    negative or fractional bound."""
    if bound is None or bound == math.inf:
        return None
    if bound < 0 or int(bound) != bound:
        raise ValueError("bound must be a nonnegative integer, inf or None")
    return int(bound)


def _checked_bound(colouring: EdgeColouring, max_parts: int,
                   bound: float | None) -> int | None:
    """:func:`_search_bound` of ``bound``; raises ValueError on an
    instance or budget the oracle refuses."""
    if colouring.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices")
    if max_parts < 1:
        raise ValueError("need a positive part budget")
    return _search_bound(bound)


@lru_cache(maxsize=BALL_CACHE_SIZE)
def _balls(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``balls[v][r]``, the mask of vertices at distance at most r from v
    in the graph of adjacency rows ``rows``, for every r < n: the BFS
    levels of v ORed up and padded with the last, v's component."""
    n = len(rows)
    balls = []
    for v in range(n):
        levels: list[int] = []
        bfs_reach(rows, 1 << v, fringes=levels)
        ball = tuple(accumulate(levels, or_, initial=1 << v))
        balls.append(ball + ball[-1:] * (n - len(ball)))
    return tuple(balls)


def _tables(colouring: EdgeColouring) -> tuple[list, list]:
    """``(adj, balls)``: ``adj[c]`` the c-adjacency rows and ``balls[c][v][r]``
    the mask of vertices at c-distance at most r from v, for r < n, so
    ``balls[c][v][n - 1]`` is v's c-component (index 0 unused).  The balls
    are :func:`_balls` of each colour's rows, shared by every colouring
    with that colour graph."""
    adj = [None]
    balls = [None]
    for c in range(1, colouring.k + 1):
        rows = colouring.adj_rows(c)
        adj.append(rows)
        balls.append(_balls(tuple(rows)))
    return adj, balls


def _search(adj: list, balls: list, max_parts: int,
            bound: int | None) -> list[tuple[int, int]] | None:
    """``(mask, colour)`` parts of a cover within the bound, at most
    ``max_parts`` of them, or None if none exists; ``bound`` None asks
    for connectivity only.

    Exhaustive: every vertex goes to one block, so some partition of any
    cover's vertices into the blocks of its parts is visited, and a block
    keeps a colour only while its vertices are pairwise near in it.  Each
    finished block may then grow inside its pool, the vertices near all of
    its own, which is complete for existence because any valid superset
    lives inside the pool.
    """
    k = len(adj) - 1
    n = len(balls[1])
    r = n - 1 if bound is None else min(bound, n - 1)
    max_diam = math.inf if bound is None else bound
    full = (1 << n) - 1
    # far[v][i]: the vertices not near v in colour i + 1
    far = [[full & ~balls[c][v][r] for c in range(1, k + 1)] for v in range(n)]
    all_colours = (1 << k) - 1
    colours_of = {all_colours: tuple(range(k))}  # colour set -> its indices
    masks = [0] * max_parts
    colour_sets = [0] * max_parts

    def extend(mask, c) -> int | None:
        rows = adj[c]
        if diameter_within(rows, mask, max_diam):
            return mask
        pool = full
        for v in iter_bits(mask):
            pool &= balls[c][v][r]
        if pool == mask:
            return None
        if diameter_within(rows, pool, max_diam):
            return pool
        extras = list(iter_bits(pool & ~mask))
        for size in range(1, len(extras) + 1):
            for combo in combinations(extras, size):
                cand = mask
                for v in combo:
                    cand |= 1 << v
                if diameter_within(rows, cand, max_diam):
                    return cand
        return None

    def finish(used):
        parts = []
        for b in range(used):
            for i in colours_of[colour_sets[b]]:
                grown = extend(masks[b], i + 1)
                if grown is not None:
                    parts.append((grown, i + 1))
                    break
            else:
                return None
        return parts

    def assign(v, used):
        if v == n:
            return finish(used)
        bit = 1 << v
        far_v = far[v]
        for b in range(used):
            m = masks[b]
            s = colour_sets[b]
            keep = 0
            for i in colours_of[s]:
                if not m & far_v[i]:
                    keep |= 1 << i
            if keep:
                if keep not in colours_of:
                    colours_of[keep] = tuple(iter_bits(keep))
                masks[b] = m | bit
                colour_sets[b] = keep
                got = assign(v + 1, used)
                masks[b] = m
                colour_sets[b] = s
                if got is not None:
                    return got
        if used < max_parts:
            masks[used] = bit
            colour_sets[used] = all_colours
            return assign(v + 1, used + 1)
        return None

    return assign(0, 0)


def min_cover_bruteforce(colouring: EdgeColouring, max_parts: int,
                         bound: int | None = None) -> Cover | None:
    """A valid cover within the bound and part budget, or None if none exists.

    ``bound=None`` (or ``math.inf``) asks for connectivity only; a
    negative or fractional bound raises ValueError.  Exhaustive: see :func:`_search`.
    """
    bound = _checked_bound(colouring, max_parts, bound)
    found = _search(*_tables(colouring), max_parts, bound)
    if found is None:
        return None
    return Cover.of(((iter_bits(mask), c) for mask, c in found),
                    math.inf if bound is None else bound)


def minimal_bound(colouring: EdgeColouring, max_parts: int,
                  start_bound: int | None) -> int | None:
    """Smallest bound at most start_bound at which a cover exists, or None.

    The bounds are searched in a climb from the lower bound, every search
    on the same tables, and the first that admits a cover is returned.
    The climb starts at 1 when n > max_parts, since parts of diameter 0
    are single vertices, and ends at n - 1: a connected set of n vertices
    has diameter at most n - 1, so any larger bound, or None (no cap),
    admits a cover exactly when n - 1 does.
    """
    bound = _checked_bound(colouring, max_parts, start_bound)
    n = colouring.n
    top = n - 1 if bound is None else min(bound, n - 1)
    tables = _tables(colouring)
    for r in range(0 if n <= max_parts else 1, top + 1):
        if _search(*tables, max_parts, r) is not None:
            return r
    return None


@dataclass
class ScanReport:
    params: dict
    instances_checked: int = 0
    worst_bound_needed: int = 0
    witnesses: list = field(default_factory=list)
    fallbacks: int = 0
    complete: bool = True

    def summary(self) -> str:
        lines = [
            "scan " + " ".join(f"{k}={v}" for k, v in self.params.items()),
            f"instances_checked     {self.instances_checked}",
            f"worst_bound_needed    {self.worst_bound_needed}",
            f"witnesses             {len(self.witnesses)}",
            f"fallbacks             {self.fallbacks}",
            f"complete              {self.complete}",
        ]
        return "\n".join(lines)


def _canonical_colour_tuples(m: int, k: int) -> np.ndarray:
    """The canonical tuples of length m over colours 1..k, those in which
    each colour first appears after every smaller one, so one per orbit
    under colour permutations: a uint8 array of one tuple per row, in
    increasing order of their code, the sum of ``(c_i - 1) * k**i``.

    Digits are filled from the last, the most significant, to the first,
    a column per step.  Each suffix carries its need, the fewest colours a
    prefix must already use for the suffix to stay canonical; prepending
    colour c leaves a need above c as it is and makes any other c - 1.  A
    suffix starting at position j is kept only if its need is at most
    min(j, k), the most colours a canonical prefix of length j uses, so no
    colour above min(m, k) is tried.  Children follow their parent, in
    increasing colour, so the rows come out in code order.
    """
    colours = np.arange(1, min(m, k) + 1, dtype=np.uint8)
    rows = np.zeros((1, m), dtype=np.uint8)
    need = np.zeros(1, dtype=np.uint8)
    for j in range(m - 1, -1, -1):
        # after[s, i]: the need of suffix s with colours[i] prepended
        after = np.where(need[:, None] > colours, need[:, None], colours - 1)
        keep = after <= min(j, k)
        rows = np.repeat(rows, keep.sum(axis=1), axis=0)
        rows[:, j] = np.broadcast_to(colours, keep.shape)[keep]
        need = after[keep]
    return rows


def _tuple_codes(tuples: np.ndarray, k: int) -> np.ndarray:
    """The int64 code of each row of ``tuples``, the sum of
    ``(c_i - 1) * k**i``; ``einsum`` casts the rows in chunks, so no int64
    copy of a large array is made."""
    weights = k ** np.arange(tuples.shape[1], dtype=np.int64)
    return np.einsum("ij,j->i", tuples, weights) - weights.sum()


def _pair_moves(n: int) -> np.ndarray:
    """An n! x m array over the m pairs of K_n in ``combinations`` order:
    row s sends pair i to the position of its image under the s-th
    permutation of the vertices."""
    us, vs = np.triu_indices(n, 1)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[us, vs] = pos[vs, us] = np.arange(len(us))
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    return pos[perms[:, us], perms[:, vs]]


def _class_tuples(codes: Sequence[int], moves: np.ndarray) -> np.ndarray:
    """The canonical tuples of the colourings isomorphic to ``codes``, a
    canonical tuple of at least one pair, one per row and with repeats:
    each row of ``moves`` relabels its pairs, and the colours are renamed
    in order of first appearance."""
    images = np.asarray(codes, dtype=np.intp)[moves]
    # A canonical tuple uses every colour 1..top, and so does each image.
    colours = np.arange(1, images.max() + 1)
    # first[s, c]: the first position of colour c + 1 in image s
    first = (images[:, None, :] == colours[:, None]).argmax(axis=2)
    # rank[s, c]: the colours that appear before colour c + 1 in image s
    rank = (first[:, :, None] > first[:, None, :]).sum(axis=2)
    return rank[np.arange(len(images))[:, None], images - 1] + 1


def exhaustive_colouring_scan(n: int, k: int, bound: float | None,
                              max_parts: int, sampler: str = "exhaustive",
                              seed: int = 0, count: int = 0,
                              limit: int | None = None) -> ScanReport:
    """Scan colourings for instances needing more than the stated bound.

    Exhaustive mode enumerates colourings of K_n up to colour permutation
    and reports the minimal achievable bound per instance, searching one
    instance per isomorphism class; random mode
    samples ``count`` seeds and uses the oracle at tiny sizes or the
    4-colour solver plus the verifier at larger ones.  ``limit`` caps the
    number of instances processed; exceeding it flags the report.
    The oracle reads ``bound=None`` and ``math.inf`` alike, as
    connectivity only; the solver-checked scans hand ``math.inf`` to the
    verifier as it is and read None as the cover bound of 160.  Both
    samplers reject a bound, part budget, count or limit out of range, and
    fewer than one colour.
    """
    params = {"n": n, "k": k, "bound": bound, "max_parts": max_parts,
              "sampler": sampler}
    search_bound = _search_bound(bound)
    if k < 1:
        raise ValueError("need at least one colour")
    if max_parts < 1 or count < 0 or (limit is not None and limit < 0):
        raise ValueError("need a positive part budget, count and limit >= 0")
    report = ScanReport(params=params)
    pairs = list(combinations(range(n), 2))
    host = HostGraph.complete(n)

    if sampler == "exhaustive":
        if k ** len(pairs) > 10 ** 8:
            raise ValueError("exhaustive scan too large")
        tuples = _canonical_colour_tuples(len(pairs), k)
        stop = len(tuples) if limit is None else min(limit, len(tuples))
        codes = _tuple_codes(tuples[:stop], k)
        # Flat matrix positions of (u, v) and (v, u) for each pair, in the
        # order of a tuple's colours; intp, since an empty list would be float.
        cells = np.array([[u * n + v for u, v in pairs],
                          [v * n + u for u, v in pairs]], dtype=np.intp)
        # A scan of one tuple (one colour, or at most one pair) needs no
        # table; otherwise k ** m <= 10 ** 8 keeps n at most 7.
        moves = _pair_moves(n) if k > 1 and len(pairs) > 1 else None
        # need[i]: the least bound of row i's class, once its first row is
        # judged; _NO_COVER for None.
        need = np.full(stop, _UNSET, dtype=np.int16)
        cursor = 0  # no unset row lies before it
        while cursor < stop:
            unset = np.flatnonzero(need[cursor:cursor + _SEEK] == _UNSET)
            if not len(unset):
                cursor += _SEEK
                continue
            row = cursor + int(unset[0])
            cursor = row + 1
            mat = np.zeros(n * n, dtype=np.uint8)
            mat[cells] = tuples[row]
            colouring = EdgeColouring.from_matrix(host, k, mat.reshape(n, n))
            least = minimal_bound(colouring, max_parts, None)
            if moves is None:
                at = row
            else:
                at = np.searchsorted(codes, _tuple_codes(
                    _class_tuples(tuples[row], moves), k))
                at = at[at < stop]  # images past the limit are not scanned
            need[at] = _NO_COVER if least is None else least
        bad = need == _NO_COVER
        if search_bound is not None:
            bad |= need > search_bound
        report.instances_checked = stop
        report.worst_bound_needed = int(need.max(initial=0))
        report.witnesses = list(map(tuple, tuples[:stop][bad].tolist()))
        report.complete = stop == len(tuples)
    elif sampler == "random":
        rng = random.Random(seed)
        for i in range(count):
            if limit is not None and report.instances_checked >= limit:
                report.complete = False
                break
            sub_seed = rng.randint(0, 10 ** 9)
            report.instances_checked += 1
            if n <= 10:
                sub = random.Random(sub_seed)
                colouring = EdgeColouring.build(host, k,
                                                lambda u, v: sub.randint(1, k))
                need = minimal_bound(colouring, max_parts, None)
                if need is None or (search_bound is not None
                                    and need > search_bound):
                    report.witnesses.append(sub_seed)
                if need is not None:
                    report.worst_bound_needed = max(report.worst_bound_needed,
                                                    need)
            else:
                if k != 4:
                    raise ValueError("large random scans need k = 4")
                from .generators import random_uniform
                colouring = random_uniform(n, 4, sub_seed)
                cover, trace = solve4(colouring)
                if trace.branch == BRANCH_FALLBACK:
                    report.fallbacks += 1
                    report.witnesses.append(sub_seed)
                    continue
                rep = verify_cover(colouring, cover,
                                   bound=COVER_BOUND if bound is None else bound,
                                   max_parts=max_parts)
                if not rep.valid:
                    report.witnesses.append(sub_seed)
                worst = max((r.diameter for r in rep.parts
                             if isinstance(r.diameter, int)), default=0)
                report.worst_bound_needed = max(report.worst_bound_needed, worst)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    return report
