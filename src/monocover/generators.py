"""Instance generators: random colourings, worked examples, adversarial families.

Every random kind is fully determined by its seed.  The adversarial
families target specific solver stages: four joined blocks leave no
colour spanning (small-diameter reduction); two interleaved spanning
paths defeat the cheap stages and hand the layer machinery a 3-distant
quadruple.  Ladders look layered but reach no non-trivial stage: colour 1
spans a ladder of length >= 3 with diameter ``length - 1``, so
``solve4`` closes every ladder ``layered_adversarial`` draws in
SingleColour.
"""

from __future__ import annotations

import random

import numpy as np

from .graphs import EdgeColouring, HostGraph, check_byte_colours
from .grid import GridPointSet, colouring_from_points

SHARPNESS_POINTS = GridPointSet.of([
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
])


def random_uniform(n: int, k: int, seed: int) -> EdgeColouring:
    """Uniform colouring of K_n; seed fully determines the output."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    check_byte_colours(k)
    rng = np.random.default_rng(seed)
    mat = rng.integers(1, k + 1, size=(n, n), dtype=np.uint8)
    mat = np.triu(mat, 1)
    mat = mat + mat.T
    return EdgeColouring.from_matrix(HostGraph.complete(n), k, mat)


def sharpness_x() -> EdgeColouring:
    """The 4-colouring of K_7 derived from the 7-point sharpness set."""
    colouring, _ = colouring_from_points(SHARPNESS_POINTS)
    return colouring


def section5_example(n_extra: int, seed: int = 0) -> EdgeColouring:
    """The 3-coloured K_{n+6} minus a 3-edge matching.

    Vertices 0..5 play v_1..v_6 with the matching v_1v_2, v_3v_4, v_5v_6
    removed; the fixed edges take the listed colours and the edges among
    the n extra vertices are coloured uniformly at random.
    """
    if n_extra < 0:
        raise ValueError("need a nonnegative number of extra vertices")
    n = 6 + n_extra
    host = HostGraph(n, missing=[(0, 1), (2, 3), (4, 5)])
    fixed = {
        (0, 2): 1, (2, 4): 1, (0, 4): 1, (3, 5): 1,
        (1, 3): 2, (1, 4): 2, (3, 4): 2, (0, 5): 2,
        (1, 2): 3, (1, 5): 3, (2, 5): 3, (0, 3): 3,
    }
    star = {0: 1, 2: 1, 4: 1, 1: 2, 3: 2, 5: 3}
    rng = random.Random(seed)

    def colour(u, v):
        if v < 6:
            return fixed[(u, v)]
        if u < 6:
            return star[u]
        return rng.randint(1, 3)

    return EdgeColouring.build(host, 3, colour)


def four_blocks(seed: int) -> EdgeColouring:
    """Four blocks joined so that no colour induces a spanning subgraph.

    Each colour is one block's clique plus selected cross-block joins,
    leaving every colour with exactly two components of tiny diameter;
    a few seeded flips roughen the pattern.
    """
    rng = random.Random(seed)
    sizes = [rng.randint(2, 12) for _ in range(4)]
    n = sum(sizes)
    block = []
    for b, s in enumerate(sizes):
        block += [b] * s
    cross = {(0, 1): 3, (0, 2): 4, (1, 2): 1, (1, 3): 1, (0, 3): 2, (2, 3): 2}

    def colour(u, v):
        bu, bv = block[u], block[v]
        if bu == bv:
            return bu + 1
        return cross[(min(bu, bv), max(bu, bv))]

    col = EdgeColouring.build(HostGraph.complete(n), 4, colour)
    flips = rng.randint(0, 3)
    changes = {}
    for _ in range(flips):
        u, v = rng.sample(range(n), 2)
        changes[(min(u, v), max(u, v))] = rng.randint(1, 4)
    return col.recoloured(changes) if changes else col


def two_paths(n: int, seed: int) -> EdgeColouring:
    """Two interleaved spanning paths of huge diameter plus split chords.

    Colour 1 walks 0..n-1 in order; colour 2 walks the evens then the
    odds.  Chords at vertex 0 avoid colour 3 and chords at vertex 1 avoid
    colour 4, so no colour spans; the rest of the chords are seeded.
    Layer mappings on (1, 2) then carry a 3-distant quadruple.
    """
    if n < 8:
        raise ValueError("two_paths needs at least 8 vertices")
    rng = random.Random(seed)
    evens = list(range(0, n, 2))
    odds = list(range(1, n, 2))
    order = evens + odds
    pos = {v: i for i, v in enumerate(order)}
    path2 = set()
    for a, b in zip(order, order[1:]):
        path2.add((min(a, b), max(a, b)))

    def colour(u, v):
        if v - u == 1:
            return 1
        if (u, v) in path2:
            return 2
        if u == 0:
            return 4
        if u == 1:
            return 3
        return rng.choice((3, 4))

    return EdgeColouring.build(HostGraph.complete(n), 4, colour)


def ladder(length: int, seed: int) -> EdgeColouring:
    """Rungs of two vertices; colour 1 joins consecutive rungs, colour 2
    stays inside a rung, far pairs are seeded reserved colours.

    For ``length >= 3`` colour 1 spans with diameter ``length - 1``, so
    up to length 161 ``solve4`` closes the ladder in SingleColour with
    colour 1.
    """
    rng = random.Random(seed)
    n = 2 * length

    def rung(v):
        return v // 2

    def colour(u, v):
        gap = abs(rung(u) - rung(v))
        if gap == 0:
            return 2
        if gap == 1:
            return 1
        return rng.choice((3, 4))

    return EdgeColouring.build(HostGraph.complete(n), 4, colour)


def hub_tails(L: int, seed: int, extra: bool = False) -> EdgeColouring:
    """Hub 0 and tails A = 1..L, B = L+1..2L.  Colour 1 is the path
    0-1-...-L, the hub to B but L+1 and the non-consecutive B-B pairs;
    colour 2 mirrors it on 0-(L+1)-...-2L and A.  A x B takes colours 3
    and 4 from ``default_rng(seed).integers(3, 5, size=(L, L))``,
    row-major.  ``solve4`` closes L = 170 in Intersecting.  With
    ``extra``, a vertex w = 2L+1 joins the hub in colour 2 and every
    other vertex in colour 4; the draws are the same."""
    if L < 1:
        raise ValueError("hub_tails needs tails of at least one vertex")
    n = 2 * L + 1 + extra
    a, b = slice(1, L + 1), slice(L + 1, 2 * L + 1)
    mat = np.zeros((n, n), dtype=np.uint8)  # the upper triangle, mirrored below
    mat[a, a] = mat[0, a] = 2
    mat[b, b] = mat[0, b] = 1
    mat[0, 1], mat[0, L + 1] = 1, 2
    for start, c in ((1, 1), (L + 1, 2)):  # the tails' own paths
        i = np.arange(start, start + L - 1)
        mat[i, i + 1] = c
    mat[a, b] = np.random.default_rng(seed).integers(3, 5, size=(L, L))
    if extra:
        mat[:, -1] = 4
        mat[0, -1] = 2
    mat = np.triu(mat, 1)
    return EdgeColouring.from_matrix(HostGraph.complete(n), 4, mat + mat.T)


def relabelled(colouring: EdgeColouring, seed: int) -> EdgeColouring:
    """A copy of a colouring of K_n with its vertices and colours permuted
    by ``numpy.random.default_rng(seed)``: ``perm = rng.permutation(n)``,
    then ``cp = [0] + list(rng.permutation(k) + 1)``.  New vertex i is old
    vertex ``perm[i]``, and old colour c becomes ``cp[c]``."""
    if not colouring.host.is_complete:
        raise ValueError("relabelled needs a complete host")
    n, k = colouring.n, colouring.k
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    cp = np.array([0] + list(rng.permutation(k) + 1), dtype=np.uint8)
    mat = cp[colouring.matrix()[np.ix_(perm, perm)]]
    return EdgeColouring.from_matrix(HostGraph.complete(n), k, mat)


def layered_adversarial(seed: int, variant: str = "mixed") -> EdgeColouring:
    """Structured families aimed at the solver's non-trivial stages."""
    rng = random.Random(seed)
    if variant == "mixed":
        variant = rng.choice(["four-blocks", "two-paths", "ladder"])
    if variant == "four-blocks":
        return four_blocks(rng.randint(0, 10**9))
    if variant == "two-paths":
        n = rng.randint(170, 300)
        return two_paths(n, rng.randint(0, 10**9))
    if variant == "ladder":
        return ladder(rng.randint(8, 24), rng.randint(0, 10**9))
    raise ValueError(f"unknown adversarial variant {variant!r}")
