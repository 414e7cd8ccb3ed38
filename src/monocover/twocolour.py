"""Constructive 2-colour covers on complete, bipartite and multipartite hosts.

The engines work over arbitrary vertex groups of a parent colouring with a
designated colour pair, so the same code serves both the public host-level
operations and the layer machinery, where the groups are layers and the
pair is the reserved colour pair.  Only cross-group edges count; each
branch verifies the certificate it claims before returning it, falling
through to the next branch otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import ImpossibleByLemmaError
from .graphs import (DISCONNECTED, EdgeColouring, HostGraph, components_masks,
                     diameter_of_mask, diameter_within, iter_bits, mask_of)

SPANNING_DIAMETER_BOUND = 3      # complete host, 2 colours
BIPARTITE_DIAMETER_BOUND = 10
TRIPARTITE_DIAMETER_BOUND = 20
MULTIPARTITE_DIAMETER_BOUND = 60


@dataclass(frozen=True)
class MonoSpanning:
    colour: int
    diameter: int


@dataclass(frozen=True)
class Split:
    """Both sides split so that the colouring is constant on the four blocks."""

    a1: frozenset[int]
    b1: frozenset[int]
    a2: frozenset[int]
    b2: frozenset[int]
    colour_aa: int


BipartiteOutcome = MonoSpanning | Split


def _cross_adj(colouring: EdgeColouring, groups: Sequence[Sequence[int]],
               pair: tuple[int, int]) -> tuple[dict[int, list[int]], int, list[int]]:
    """Adjacency restricted to cross-group edges of the two given colours.

    Returns (adj-by-colour, union mask, per-group masks).  Raises if some
    present cross-group edge uses a colour outside the pair.
    """
    n = colouring.n
    gmasks = [mask_of(g) for g in groups]
    union = 0
    for m in gmasks:
        if union & m:
            raise ValueError("groups must be disjoint")
        union |= m
    adj: dict[int, list[int]] = {c: [0] * n for c in pair}
    host = colouring.host
    for gi, gmask in enumerate(gmasks):
        other = union & ~gmask
        for v in iter_bits(gmask):
            seen = 0
            for c in pair:
                row = colouring.adj_row(c, v) & other
                adj[c][v] = row
                seen |= row
            bad = other & ~seen
            for w in iter_bits(bad):
                if host.has_edge(v, w):
                    raise ValueError(
                        f"cross edge ({v},{w}) coloured outside the pair {pair}")
    return adj, union, gmasks


def bipartite_outcome(colouring: EdgeColouring, side1: Sequence[int],
                      side2: Sequence[int], pair: tuple[int, int]) -> BipartiteOutcome:
    """Two-colour analysis of the complete bipartite graph between two groups.

    Returns a verified outcome whenever one exists: either one colour spans
    both sides with diameter at most 10, or both sides split into two
    blocks with the colouring constant on the four block products.
    Branches follow: a component of diameter >= 7 forces the other colour;
    three components in one colour force the other colour; a single
    component wins as-is; otherwise extract the split.

    Raises :class:`ImpossibleByLemmaError`, with the sides and the pair as
    witness, exactly when no outcome exists.  The degenerate pattern: one
    side holds a vertex whose cross edges all take one colour and another
    whose cross edges all take the other, so each colour misses a vertex,
    and the remaining rows match no block pattern.
    """
    if not side1 or not side2:
        raise ValueError("both sides must be nonempty")
    ca, cb = pair
    adj, union, (mask1, mask2) = _cross_adj(colouring, [side1, side2], pair)
    comps = {c: components_masks(adj[c], colouring.n, within=union) for c in pair}

    def mono(c: int) -> MonoSpanning | None:
        if len(comps[c]) != 1:
            return None
        diam = diameter_of_mask(adj[c], union, stop_above=BIPARTITE_DIAMETER_BOUND)
        if diam <= BIPARTITE_DIAMETER_BOUND:
            return MonoSpanning(c, diam)
        return None

    # A long component in one colour makes the other colour span tightly.
    for c, other in ((ca, cb), (cb, ca)):
        for comp in comps[c]:
            if not diameter_within(adj[c], comp, 6):
                got = mono(other)
                if got is not None:
                    return got
    # Three components in one colour connect the other one.
    for c, other in ((ca, cb), (cb, ca)):
        if len(comps[c]) >= 3:
            got = mono(other)
            if got is not None:
                return got
    for c in pair:
        got = mono(c)
        if got is not None:
            return got
    # Two components each: extract the block structure anchored at side1[0].
    u0 = min(side1)
    a2 = adj[ca][u0] & mask2
    b2 = mask2 & ~a2
    a1 = b1 = 0
    ok = True
    for u in iter_bits(mask1):
        if adj[ca][u] & ~a2 == 0 and adj[cb][u] & ~b2 == 0:
            a1 |= 1 << u
        elif adj[ca][u] & ~b2 == 0 and adj[cb][u] & ~a2 == 0:
            b1 |= 1 << u
        else:
            ok = False
            break
    if ok:
        return Split(frozenset(iter_bits(a1)), frozenset(iter_bits(b1)),
                     frozenset(iter_bits(a2)), frozenset(iter_bits(b2)), ca)
    # Degenerate structure: accept any verified spanning colour.
    for c in pair:
        got = mono(c)
        if got is not None:
            return got
    raise ImpossibleByLemmaError(
        "no two-colour bipartite outcome verified",
        witness={"side1": sorted(side1), "side2": sorted(side2), "pair": pair})


def multipartite_colour(colouring: EdgeColouring, groups: Sequence[Sequence[int]],
                        pair: tuple[int, int]) -> tuple[int, int]:
    """Colour whose cross-group graph spans all groups with bounded diameter.

    Returns (colour, exact diameter) whenever such a colour exists; the
    diameter is at most 20 for three groups and at most 60 otherwise.
    Candidates are ordered by the pairwise bipartite outcomes (three
    groups) or by a recursive auxiliary colouring of the group indices
    (more groups), then verified.

    Raises :class:`ImpossibleByLemmaError`, with the groups, the pair and
    the bound as witness, when no colour spans within the bound.  The
    degenerate pattern: one group holds a vertex whose cross edges all
    take one colour and another whose cross edges all take the other, so
    each colour misses a vertex and neither is connected at any diameter.
    The raise is exact: when a pair or triple of groups has no outcome of
    its own, both colours are tested directly.
    """
    r = len(groups)
    if r < 3:
        raise ValueError("need at least three groups")
    ca, cb = pair
    adj, union, _ = _cross_adj(colouring, groups, pair)
    bound = TRIPARTITE_DIAMETER_BOUND if r == 3 else MULTIPARTITE_DIAMETER_BOUND

    def attempt(order: Sequence[int]) -> tuple[int, int] | None:
        seen = set()
        for c in order:
            if c in seen:
                continue
            seen.add(c)
            diam = diameter_of_mask(adj[c], union, stop_above=bound)
            if diam is not DISCONNECTED and diam <= bound:
                return c, diam
        return None

    # One colour unused on cross edges: the other one is a 1-colouring.
    # _cross_adj leaves the rows outside the union at 0, so read only those
    # inside it.
    for c, other in ((ca, cb), (cb, ca)):
        if not any(adj[other][v] for v in iter_bits(union)):
            got = attempt([c])
            if got:
                return got

    try:
        if r == 3:
            outs = [bipartite_outcome(colouring, groups[i], groups[j], pair)
                    for i, j in ((0, 1), (0, 2), (1, 2))]
            monos = [o.colour for o in outs if isinstance(o, MonoSpanning)]
            order: list[int] = []
            if len(monos) >= 2:
                # Two spanning pairs of groups sharing a colour chain together.
                for c in pair:
                    if monos.count(c) >= 2:
                        order.append(c)
            order += monos + [ca, cb]
        else:
            aux_host = HostGraph.complete(r - 1)
            aux_colours = {}
            for i, j in combinations(range(r - 1), 2):
                c, _ = multipartite_colour(
                    colouring, [groups[i], groups[j], groups[r - 1]], pair)
                aux_colours[(i, j)] = 1 if c == ca else 2
            aux = EdgeColouring.from_pairs(aux_host, 2, aux_colours)
            c_aux = erdos_rado_cover(aux)
            order = [ca, cb] if c_aux == 1 else [cb, ca]
    except ImpossibleByLemmaError:
        # A degenerate pair or triple of groups has no outcome of its own;
        # the whole graph may still have a spanning colour, so test both.
        order = [ca, cb]
    got = attempt(order)
    if got:
        return got
    raise ImpossibleByLemmaError(
        "no spanning colour within the multipartite bound",
        witness={"groups": [sorted(g) for g in groups], "pair": pair, "bound": bound})


# -- public host-level operations ----------------------------------------


def erdos_rado_cover(colouring: EdgeColouring) -> int:
    """Colour whose graph spans a 2-coloured complete host with diameter <= 3."""
    if not colouring.host.is_complete:
        raise ValueError("host must be complete")
    if colouring.k != 2:
        raise ValueError("exactly two colours expected")
    n = colouring.n
    universe = (1 << n) - 1
    for c in (1, 2):
        if diameter_within(colouring.adj_rows(c), universe, SPANNING_DIAMETER_BOUND):
            return c
    raise ImpossibleByLemmaError("no colour spans with diameter <= 3",
                                 witness={"n": n})


def bipartite_two_colour(colouring: EdgeColouring) -> BipartiteOutcome:
    """Host-level wrapper of :func:`bipartite_outcome` for K_{n1,n2}.

    Returns a verified spanning colour (diameter <= 10) or split whenever
    one exists, and raises :class:`ImpossibleByLemmaError` with a witness
    exactly when none does: for example when one class holds an
    all-colour-1 vertex and an all-colour-2 vertex and the rows match no
    block pattern.
    """
    classes = colouring.host.classes
    if classes is None or len(classes) != 2:
        raise ValueError("host must be complete bipartite with recorded classes")
    if colouring.k != 2:
        raise ValueError("exactly two colours expected")
    return bipartite_outcome(colouring, classes[0], classes[1], (1, 2))


@dataclass(frozen=True)
class MultipartiteResult:
    colour: int
    bound: int
    diameter: int


def multipartite_two_colour(colouring: EdgeColouring) -> MultipartiteResult:
    """Host-level wrapper of :func:`multipartite_colour` for r >= 3 classes.

    Returns a colour spanning within the bound (20 for three classes, 60
    beyond) and raises :class:`ImpossibleByLemmaError` with a witness when
    none exists: for example when one class holds an all-colour-1 vertex
    and an all-colour-2 vertex, so neither colour is connected.  The raise
    is exact, as stated in :func:`multipartite_colour`.
    """
    classes = colouring.host.classes
    if classes is None or len(classes) < 3:
        raise ValueError("host must be complete multipartite with >= 3 classes")
    if colouring.k != 2:
        raise ValueError("exactly two colours expected")
    c, diam = multipartite_colour(colouring, classes, (1, 2))
    bound = TRIPARTITE_DIAMETER_BOUND if len(classes) == 3 else MULTIPARTITE_DIAMETER_BOUND
    return MultipartiteResult(c, bound, diam)
