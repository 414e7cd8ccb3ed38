"""Constructive 2-colour covers on complete, bipartite and multipartite hosts.

The engines work over vertex groups of a parent colouring, given as
bitmasks, with a designated colour pair, so the same code serves both the
public host-level operations and the layer machinery, where the groups are
layers and the pair is the reserved colour pair.  Only cross-group edges
count; each branch verifies the certificate it claims before returning it,
falling through to the next branch otherwise.  Neither engine replays
the lemma's proof of why an outcome exists; each verifies candidates in a
fixed order.  The bipartite engine takes, for its pair (ca, cb), the
first colour within 6, else the second within 10, else the first within
10, else the split.  The multipartite engine verifies the two colours of
its pair in order and returns the first that spans.  Each check is the
threshold test :func:`graphs.diameter_within`, and both engines return
the colour alone; only the host-level wrappers, which report a diameter,
pay for the exact one of :func:`graphs.diameter_of_mask`.

The cross-group rows are sparse: one dict per colour, holding a row for
each vertex of the groups' union only, built from one read of each
colour's rows.  A colour in which some vertex of the union has no cross
edge is disconnected, since the union holds at least two vertices, and
the engines skip its check without a BFS.  The quadruple cover settles
whole regions of single-vertex layers by its own triangle rule, mask
algebra on adjacency rows, and calls the engine only for the layers
that the rule leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ImpossibleByLemmaError
from .graphs import EdgeColouring, diameter_of_mask, diameter_within, iter_bits, mask_of

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


def _cross_adj(colouring: EdgeColouring, masks: Sequence[int],
               pair: tuple[int, int]) -> tuple[dict[int, dict[int, int]], int]:
    """Adjacency restricted to cross-group edges of the two given colours.

    ``masks`` are the group bitmasks.  Returns (rows-by-colour, union
    mask), where each colour's rows are a dict holding a row for each
    vertex of the union only.  Raises if some present cross-group edge
    uses a colour outside the pair.
    """
    union = 0
    for m in masks:
        if union & m:
            raise ValueError("groups must be disjoint")
        union |= m
    ca, cb = pair
    full_a, full_b = colouring.adj_rows(ca), colouring.adj_rows(cb)
    rows_a: dict[int, int] = {}
    rows_b: dict[int, int] = {}
    host = colouring.host
    for gmask in masks:
        other = union & ~gmask
        for v in iter_bits(gmask):
            ra = rows_a[v] = full_a[v] & other
            rb = rows_b[v] = full_b[v] & other
            for w in iter_bits(other & ~(ra | rb)):
                if host.has_edge(v, w):
                    raise ValueError(
                        f"cross edge ({v},{w}) coloured outside the pair {pair}")
    return {ca: rows_a, cb: rows_b}, union


def _spans_within(rows: dict[int, int], union: int, bound: int) -> bool:
    """Whether the cross rows of one colour span ``union`` within ``bound``.

    The callers' unions hold at least two vertices, so a vertex with no
    cross edge is isolated and the colour disconnected: that exit needs
    no BFS.
    """
    return all(rows.values()) and diameter_within(rows, union, bound)


def bipartite_outcome(colouring: EdgeColouring, mask1: int, mask2: int,
                      pair: tuple[int, int]) -> int | Split:
    """Two-colour analysis of the complete bipartite graph between two groups.

    The groups are the vertex bitmasks ``mask1`` and ``mask2``.  Returns a
    verified outcome whenever one exists: either the colour that spans
    both sides with diameter at most 10, or a split of both sides into
    two blocks with the colouring constant on the four block products.
    With ``pair = (ca, cb)`` the rule is: ``ca`` if it spans within 6, else
    ``cb`` if it spans within 10, else ``ca`` if it spans within 10, else
    the split.  The lemma's proof of why one of these exists is not
    replayed.

    Raises :class:`ImpossibleByLemmaError`, with the sides and the pair as
    witness, exactly when no outcome exists.  The degenerate pattern: one
    side holds a vertex whose cross edges all take one colour and another
    whose cross edges all take the other, so each colour misses a vertex,
    and the remaining rows match no block pattern.
    """
    if not mask1 or not mask2:
        raise ValueError("both sides must be nonempty")
    ca, cb = pair
    adj, union = _cross_adj(colouring, (mask1, mask2), pair)

    for c, bound in ((ca, 6), (cb, BIPARTITE_DIAMETER_BOUND),
                     (ca, BIPARTITE_DIAMETER_BOUND)):
        if _spans_within(adj[c], union, bound):
            return c
    # Neither colour spans: extract the block structure anchored at the
    # lowest vertex of side 1.
    u0 = (mask1 & -mask1).bit_length() - 1
    a2 = adj[ca][u0] & mask2
    b2 = mask2 & ~a2
    a1 = b1 = 0
    for u in iter_bits(mask1):
        if adj[ca][u] & ~a2 == 0 and adj[cb][u] & ~b2 == 0:
            a1 |= 1 << u
        elif adj[ca][u] & ~b2 == 0 and adj[cb][u] & ~a2 == 0:
            b1 |= 1 << u
        else:
            raise ImpossibleByLemmaError(
                "no two-colour bipartite outcome verified",
                witness={"side1": list(iter_bits(mask1)),
                         "side2": list(iter_bits(mask2)), "pair": pair})
    return Split(frozenset(iter_bits(a1)), frozenset(iter_bits(b1)),
                 frozenset(iter_bits(a2)), frozenset(iter_bits(b2)), ca)


def multipartite_colour(colouring: EdgeColouring, masks: Sequence[int],
                        pair: tuple[int, int]) -> int:
    """Colour whose cross-group graph spans all groups with bounded diameter.

    ``masks`` are the group bitmasks.  The candidates are the colours of
    ``pair`` in the given order, each verified on the cross-group graph.
    The lemma's proof that one of them spans (pairwise bipartite outcomes,
    an auxiliary colouring of the groups) is not replayed.  Returns the
    first colour that spans the union within the bound: 20 for three
    groups, 60 otherwise.  Every call, three single vertices included,
    builds the cross rows and checks each colour on them.

    Raises ValueError when a group is empty, and
    :class:`ImpossibleByLemmaError`, with the groups (sorted vertex
    lists), the pair and the bound as witness, exactly when neither colour
    spans within the bound.  The degenerate pattern: one group holds a
    vertex whose cross edges all take one colour and another whose cross
    edges all take the other, so each colour misses a vertex and neither
    is connected at any diameter.
    """
    r = len(masks)
    if r < 3:
        raise ValueError("need at least three groups")
    if not all(masks):
        raise ValueError("every group must be nonempty")
    adj, union = _cross_adj(colouring, masks, pair)
    bound = TRIPARTITE_DIAMETER_BOUND if r == 3 else MULTIPARTITE_DIAMETER_BOUND
    for c in pair:
        if _spans_within(adj[c], union, bound):
            return c
    raise ImpossibleByLemmaError(
        "no spanning colour within the multipartite bound",
        witness={"groups": [list(iter_bits(m)) for m in masks], "pair": pair,
                 "bound": bound})


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


def bipartite_two_colour(colouring: EdgeColouring) -> MonoSpanning | Split:
    """Host-level wrapper of :func:`bipartite_outcome` for K_{n1,n2}.

    Returns a verified spanning colour with its exact diameter (<= 10) or
    split whenever one exists, and raises :class:`ImpossibleByLemmaError`
    with a witness exactly when none does: for example when one class
    holds an all-colour-1 vertex and an all-colour-2 vertex and the rows
    match no block pattern.
    """
    classes = colouring.host.classes
    if classes is None or len(classes) != 2:
        raise ValueError("host must be complete bipartite with recorded classes")
    if colouring.k != 2:
        raise ValueError("exactly two colours expected")
    out = bipartite_outcome(colouring, mask_of(classes[0]), mask_of(classes[1]),
                            (1, 2))
    if isinstance(out, Split):
        return out
    # with no within-class pairs, colour out's graph is its cross-class graph
    full = (1 << colouring.n) - 1
    return MonoSpanning(out, diameter_of_mask(colouring.adj_rows(out), full))


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
    c = multipartite_colour(colouring, [mask_of(g) for g in classes], (1, 2))
    bound = TRIPARTITE_DIAMETER_BOUND if len(classes) == 3 else MULTIPARTITE_DIAMETER_BOUND
    # with no within-class pairs, colour c's graph is its cross-class graph
    full = (1 << colouring.n) - 1
    return MultipartiteResult(c, bound, diameter_of_mask(colouring.adj_rows(c), full))
