"""Two-colour lemmas: spanning colour on K_n, bipartite split, multipartite."""

import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_colouring
from test_graphs import reference_diameter
from monocover.errors import ImpossibleByLemmaError
from monocover.graphs import (DISCONNECTED, EdgeColouring, HostGraph, mask_of,
                              set_diameter)
from monocover.twocolour import (MonoSpanning, Split, bipartite_outcome,
                                 bipartite_two_colour, erdos_rado_cover,
                                 multipartite_colour, multipartite_two_colour)


def complete_two_colouring(n, colour_fn):
    return EdgeColouring.build(HostGraph.complete(n), 2, colour_fn)


def check_split(colouring, out):
    classes = colouring.host.classes
    assert out.a1 | out.b1 == set(classes[0])
    assert out.a2 | out.b2 == set(classes[1])
    assert not (out.a1 & out.b1) and not (out.a2 & out.b2)
    other = 3 - out.colour_aa
    for u, v in list(product(out.a1, out.a2)) + list(product(out.b1, out.b2)):
        assert colouring.colour_of(u, v) == out.colour_aa
    for u, v in list(product(out.a1, out.b2)) + list(product(out.b1, out.a2)):
        assert colouring.colour_of(u, v) == other


def check_mono_spanning(colouring, out, bound):
    diam = set_diameter(colouring, out.colour, range(colouring.n))
    assert diam is not DISCONNECTED
    assert diam == out.diameter
    assert diam <= bound


# -- complete host --------------------------------------------------------


def test_erdos_rado_monochromatic():
    assert erdos_rado_cover(constant_colouring(4, 1, k=2)) == 1


def test_erdos_rado_prefers_smaller_colour():
    # both colours span K4 with diameter <= 3: matching in colour 2, rest 1
    matching = {(0, 1), (2, 3)}
    col = complete_two_colouring(4, lambda u, v: 2 if (u, v) in matching else 1)
    assert erdos_rado_cover(col) == 1
    assert set_diameter(col, 1, range(4)) == 2  # colour-1 graph is a 4-cycle


def test_erdos_rado_exhaustive_small():
    for n in (2, 3, 4, 5):
        pairs = list(combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            cmap = {p: 1 + (bits >> i & 1) for i, p in enumerate(pairs)}
            col = EdgeColouring.from_pairs(HostGraph.complete(n), 2, cmap)
            c = erdos_rado_cover(col)
            diam = set_diameter(col, c, range(n))
            assert diam is not DISCONNECTED and diam <= 3


def test_erdos_rado_output_passes_verifier(rng):
    from monocover.covers import Cover, verify_cover
    for _ in range(50):
        n = rng.randint(2, 8)
        col = complete_two_colouring(
            n, lambda u, v: rng.randint(1, 2))
        c = erdos_rado_cover(col)
        cover = Cover.of([(range(n), c)], bound=3)
        assert verify_cover(col, cover, bound=3, max_parts=1).valid


def test_erdos_rado_rejects_bad_hosts():
    with pytest.raises(ValueError):
        erdos_rado_cover(constant_colouring(3, 1, k=3))
    host = HostGraph(3, missing=[(0, 1)])
    col = EdgeColouring.from_pairs(host, 2, {(0, 2): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        erdos_rado_cover(col)


# -- bipartite host -------------------------------------------------------


def bipartite_colouring(n1, n2, colour_fn):
    host = HostGraph.multipartite([n1, n2])
    return EdgeColouring.build(host, 2, colour_fn)


def test_bipartite_monochromatic():
    col = bipartite_colouring(3, 3, lambda u, v: 1)
    out = bipartite_two_colour(col)
    assert isinstance(out, MonoSpanning) and out.colour == 1
    check_mono_spanning(col, out, 10)
    assert out.diameter == 2


def test_bipartite_split_two_by_two():
    # classes {0,1} and {2,3}; aligned blocks colour 1, crossed blocks colour 2
    aligned = {(0, 2), (1, 3)}
    col = bipartite_colouring(2, 2, lambda u, v: 1 if (u, v) in aligned else 2)
    out = bipartite_two_colour(col)
    assert isinstance(out, Split)
    assert out.a1 == {0} and out.b1 == {1}
    assert out.a2 == {2} and out.b2 == {3}
    assert out.colour_aa == 1
    check_split(col, out)


def test_bipartite_block_colourings_split():
    # Criterion 2's uniform K_{8,8} draws never give a Split, so a wrong
    # Split would pass it; these block colourings give one every time.
    # Random nonempty blocks A1, B1 of side 1 and A2, B2 of side 2: the
    # aligned products A1 x A2 and B1 x B2 take colour 1, the crossed ones 2.
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        a1 = set(rng.sample(range(a), rng.randint(1, a - 1)))
        a2 = set(rng.sample(range(a, a + b), rng.randint(1, b - 1)))
        col = bipartite_colouring(a, b, lambda u, v: 1 if (u in a1) == (v in a2) else 2)
        out = bipartite_two_colour(col)
        assert isinstance(out, Split), (a1, a2)
        check_split(col, out)


def test_bipartite_long_component_forces_other_colour():
    # colour 1 is a path snaking across K_{5,5}: its diameter is 9, so
    # colour 2 must span with diameter <= 9.
    host = HostGraph.multipartite([5, 5])
    order = [0, 5, 1, 6, 2, 7, 3, 8, 4, 9]
    path = {tuple(sorted(p)) for p in zip(order, order[1:])}
    col = EdgeColouring.build(host, 2, lambda u, v: 1 if (u, v) in path else 2)
    out = bipartite_two_colour(col)
    assert isinstance(out, MonoSpanning) and out.colour == 2
    assert out.diameter <= 9


def test_bipartite_outcome_follows_its_rule():
    # For the pair (ca, cb): ca if it spans within 6, else cb within 10,
    # else ca within 10.  Snake paths with a few extra colour-1 edges give
    # colour 1 diameters on both sides of 6, so both pair orders matter.
    preferred = 0
    for a in range(2, 9):
        order = [x for i in range(a) for x in (i, a + i)]
        path = {tuple(sorted(p)) for p in zip(order, order[1:])}
        cross = sorted(set(product(range(a), range(a, 2 * a))) - path)
        rng = random.Random(a)
        for flips in range(4):
            ones = path | set(rng.sample(cross, min(flips, len(cross))))
            col = bipartite_colouring(a, a, lambda u, v: 1 if (u, v) in ones else 2)
            diam = {c: set_diameter(col, c, range(2 * a)) for c in (1, 2)}
            within = {c: diam[c] is not DISCONNECTED and diam[c] <= 10 for c in (1, 2)}
            for ca, cb in ((1, 2), (2, 1)):
                out = bipartite_outcome(col, mask_of(range(a)),
                                        mask_of(range(a, 2 * a)), (ca, cb))
                want = ca if within[ca] and (diam[ca] <= 6 or not within[cb]) else cb
                assert out == want, (a, flips, ca)
                preferred += within[ca] and want == cb
    assert preferred > 0


def bipartite_outcome_exists(col):
    """Independent existence check: a spanning colour of diameter <= 10, or
    rows forming two complementary patterns (which is exactly a split)."""
    for c in (1, 2):
        d = set_diameter(col, c, range(col.n))
        if d is not DISCONNECTED and d <= 10:
            return True
    side1, side2 = col.host.classes
    rows = {u: tuple(col.colour_of(u, w) for w in side2) for u in side1}
    base = rows[side1[0]]
    flip = tuple(3 - c for c in base)
    return all(r in (base, flip) for r in rows.values())


def test_bipartite_random_property_run(rng):
    # complete relative to existence: succeed with a verified outcome
    # whenever one exists, raise exactly when none does
    impossible = 0
    for _ in range(500):
        seed = rng.randint(0, 10**9)
        sub = random.Random(seed)
        col = bipartite_colouring(8, 8, lambda u, v: sub.randint(1, 2))
        try:
            out = bipartite_two_colour(col)
        except ImpossibleByLemmaError:
            assert not bipartite_outcome_exists(col)
            impossible += 1
            continue
        if isinstance(out, MonoSpanning):
            check_mono_spanning(col, out, 10)
        else:
            check_split(col, out)
    assert impossible <= 10  # the degenerate pattern is rare


def no_outcome_bipartite():
    """A K_{8,8} colouring with no outcome: one class holds an all-colour-1
    vertex and an all-colour-2 vertex while the remaining rows break any
    block pattern."""
    def colour(u, v):
        if u == 0:
            return 1
        if u == 1:
            return 2
        return 1 if (u + v) % 3 else 2

    return bipartite_colouring(8, 8, colour)


def test_bipartite_no_outcome_counterexample():
    col = no_outcome_bipartite()
    assert not bipartite_outcome_exists(col)
    with pytest.raises(ImpossibleByLemmaError):
        bipartite_two_colour(col)


def test_bipartite_degenerate_sides():
    col = bipartite_colouring(1, 1, lambda u, v: 2)
    out = bipartite_two_colour(col)
    assert isinstance(out, MonoSpanning) and out.colour == 2


def test_bipartite_rejects_wrong_host():
    with pytest.raises(ValueError):
        bipartite_two_colour(constant_colouring(4, 1, k=2))


# -- multipartite hosts ---------------------------------------------------


def multipartite_colouring(sizes, colour_fn):
    host = HostGraph.multipartite(sizes)
    return EdgeColouring.build(host, 2, colour_fn)


def check_multipartite(col, res):
    diam = set_diameter(col, res.colour, range(col.n))
    assert diam is not DISCONNECTED
    assert diam == res.diameter
    assert diam <= res.bound


def test_multipartite_monochromatic():
    col = multipartite_colouring([2, 2, 2], lambda u, v: 1)
    res = multipartite_two_colour(col)
    assert res.colour == 1 and res.bound == 20 and res.diameter <= 2
    check_multipartite(col, res)


def test_multipartite_blocky_case():
    # All three class pairs take the split outcome with consistent halves;
    # the crossing colour closes into a short spanning cycle.
    blocks = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
    col = multipartite_colouring(
        [2, 2, 2], lambda u, v: 1 if blocks[u] == blocks[v] else 2)
    res = multipartite_two_colour(col)
    assert res.colour == 2 and res.diameter == 3
    check_multipartite(col, res)


def test_multipartite_inconsistent_partitions_case():
    host = HostGraph.multipartite([3, 2, 2])
    ones = {(0, 3), (1, 3), (2, 4), (0, 5), (1, 6), (2, 6), (3, 5), (4, 6)}
    col = EdgeColouring.build(host, 2, lambda u, v: 1 if (u, v) in ones else 2)
    res = multipartite_two_colour(col)
    check_multipartite(col, res)


def first_spanning_colour(col, bound):
    """The first of colours 1, 2 that spans connected within bound, or None."""
    for c in (1, 2):
        d = set_diameter(col, c, range(col.n))
        if d is not DISCONNECTED and d <= bound:
            return c
    return None


def spanning_colour_exists(col, bound):
    """Independent existence check: some colour spans connected within bound."""
    return first_spanning_colour(col, bound) is not None


def no_spanning_multipartite():
    """A K_{2,2,2} colouring with no spanning colour: one vertex sees only
    colour 2, a classmate sees only colour 1, so each colour misses a
    vertex."""
    return multipartite_colouring([2, 2, 2], lambda u, v: 2 if u == 0 else 1)


def test_multipartite_no_spanning_colour_counterexample():
    col = no_spanning_multipartite()
    assert not spanning_colour_exists(col, bound=10**9)
    with pytest.raises(ImpossibleByLemmaError):
        multipartite_two_colour(col)


def test_multipartite_exhaustive_k222_complete_relative_to_existence():
    # The engine must find a verified colour whenever one exists at all and
    # must raise exactly on the instances where none exists (96 of 4096).
    host = HostGraph.multipartite([2, 2, 2])
    pairs = [(u, v) for u, v in combinations(range(6), 2) if host.has_edge(u, v)]
    assert len(pairs) == 12
    impossible = 0
    for bits in range(2 ** 12):
        cmap = {p: 1 + (bits >> i & 1) for i, p in enumerate(pairs)}
        col = EdgeColouring.from_pairs(host, 2, cmap)
        try:
            res = multipartite_two_colour(col)
        except ImpossibleByLemmaError:
            assert not spanning_colour_exists(col, bound=20)
            impossible += 1
        else:
            assert res.bound == 20
            check_multipartite(col, res)
            assert res.colour == first_spanning_colour(col, res.bound)
    assert impossible == 96


def test_multipartite_many_classes(rng):
    for sizes, bound in (([3, 4, 5, 6], 60), ([3, 3, 3], 20)):
        for _ in range(100):
            seed = rng.randint(0, 10**9)
            sub = random.Random(seed)
            col = multipartite_colouring(sizes, lambda u, v: sub.randint(1, 2))
            try:
                res = multipartite_two_colour(col)
            except ImpossibleByLemmaError:
                assert not spanning_colour_exists(col, bound=bound)
            else:
                assert res.bound == bound
                check_multipartite(col, res)
                assert res.colour == first_spanning_colour(col, res.bound)


def test_engines_reject_a_cross_edge_outside_the_pair():
    col = EdgeColouring.build(HostGraph.multipartite([2, 2, 2]), 3,
                              lambda u, v: 3 if (u, v) == (1, 4) else 1)
    message = r"cross edge \(1,4\) coloured outside the pair \(1, 2\)"
    with pytest.raises(ValueError, match=message):
        bipartite_outcome(col, 0b11, 0b110000, (1, 2))
    with pytest.raises(ValueError, match=message):
        multipartite_colour(col, [0b11, 0b1100, 0b110000], (1, 2))


def test_multipartite_rejects_bipartite():
    col = multipartite_colouring([2, 2], lambda u, v: 1)
    with pytest.raises(ValueError):
        multipartite_two_colour(col)


def test_multipartite_rejects_an_empty_group():
    col = multipartite_colouring([2, 2, 2], lambda u, v: 1)
    for masks in ([0b11, 0b1100, 0], [0, 0b11, 0b1100, 0b110000]):
        with pytest.raises(ValueError, match="every group must be nonempty"):
            multipartite_colour(col, masks, (1, 2))


# -- engines against a dense reference --------------------------------------


@st.composite
def grouped_colourings(draw):
    """(colouring, groups, pair) on K_n minus a few pairs, n <= 12: two or
    more disjoint groups (rarely one of them empty) that leave at least
    one vertex outside their union.  Cross-group edges take the pair's
    colours, the first with a drawn share, and rarely one takes another
    colour; every edge at a vertex outside the union takes a colour
    outside the pair, so the engines must never read those rows."""
    r = draw(st.sampled_from([2, 2, 3, 3, 4, 5]))
    n = draw(st.integers(r + 1, 12))
    size = draw(st.integers(r, n - 1))
    verts = draw(st.permutations(range(n)))[:size]
    cuts = sorted(draw(st.sets(st.integers(1, size - 1),
                               min_size=r - 1, max_size=r - 1)))
    groups = [sorted(verts[a:b]) for a, b in zip([0] + cuts, cuts + [size])]
    pair = tuple(draw(st.permutations([1, 2, 3, 4]))[:2])
    others = [c for c in (1, 2, 3, 4) if c not in pair]
    share = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    if rnd.random() < 1 / 16:
        groups[rnd.randrange(r)] = []
    gap = draw(st.sampled_from([0.0, 0.0, 0.15]))
    host = HostGraph(n, [q for q in combinations(range(n), 2) if rnd.random() < gap])
    group_of = {v: i for i, g in enumerate(groups) for v in g}
    cross = [(u, v) for u, v in combinations(range(n), 2)
             if u in group_of and v in group_of and group_of[u] != group_of[v]]
    stray = rnd.choice(cross) if cross and rnd.random() < 1 / 8 else None

    def colour(u, v):
        if u not in group_of or v not in group_of or (u, v) == stray:
            return rnd.choice(others)
        if group_of[u] == group_of[v]:
            return rnd.randint(1, 4)
        return pair[0] if rnd.random() < share else pair[1]

    return EdgeColouring.build(host, 4, colour), groups, pair


def reference_cross_rows(col, groups, pair):
    """Full-length rows of each pair colour over the cross-group edges, read
    pair by pair; raises as the engines do on a pair colour outside 1..k
    and on a cross edge outside the pair."""
    for c in pair:
        if not 1 <= c <= col.k:
            raise ValueError(f"colour {c} out of range 1..{col.k}")
    rows = {c: [0] * col.n for c in pair}
    union = {v for g in groups for v in g}
    for g in groups:
        for v in g:
            for w in sorted(union - set(g)):
                if not col.has_edge(v, w):
                    continue
                c = col.colour_of(v, w)
                if c not in pair:
                    raise ValueError(
                        f"cross edge ({v},{w}) coloured outside the pair {pair}")
                rows[c][v] |= 1 << w
    return rows, mask_of(union)


def reference_spans(rows, union, bound):
    d = reference_diameter(rows, union)
    return d is not DISCONNECTED and d <= bound


def reference_multipartite(col, groups, pair):
    if not all(groups):
        raise ValueError("every group must be nonempty")
    rows, union = reference_cross_rows(col, groups, pair)
    bound = 20 if len(groups) == 3 else 60
    for c in pair:
        if reference_spans(rows[c], union, bound):
            return c
    raise ImpossibleByLemmaError(
        "no spanning colour within the multipartite bound",
        witness={"groups": groups, "pair": pair, "bound": bound})


def reference_bipartite(col, side1, side2, pair):
    if not side1 or not side2:
        raise ValueError("both sides must be nonempty")
    rows, union = reference_cross_rows(col, [side1, side2], pair)
    ca, cb = pair
    for c, bound in ((ca, 6), (cb, 10), (ca, 10)):
        if reference_spans(rows[c], union, bound):
            return c
    present = {u: [w for w in side2 if col.has_edge(u, w)] for u in side1}
    a2 = {w for w in present[side1[0]] if col.colour_of(side1[0], w) == ca}
    b2 = set(side2) - a2
    a1, b1 = set(), set()
    for u in side1:
        seen = {w: col.colour_of(u, w) for w in present[u]}
        if all(c == (ca if w in a2 else cb) for w, c in seen.items()):
            a1.add(u)
        elif all(c == (ca if w in b2 else cb) for w, c in seen.items()):
            b1.add(u)
        else:
            raise ImpossibleByLemmaError(
                "no two-colour bipartite outcome verified",
                witness={"side1": side1, "side2": side2, "pair": pair})
    return Split(frozenset(a1), frozenset(b1), frozenset(a2), frozenset(b2), ca)


def outcome(fn, *args):
    """What a call returns, or the type, message and witness it raises."""
    try:
        return fn(*args)
    except (ValueError, ImpossibleByLemmaError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@settings(max_examples=500, deadline=None)
@given(grouped_colourings())
def test_engines_match_a_dense_reference(case):
    col, groups, pair = case
    if len(groups) == 2:
        got = outcome(bipartite_outcome, col, mask_of(groups[0]),
                      mask_of(groups[1]), pair)
        want = outcome(reference_bipartite, col, groups[0], groups[1], pair)
    else:
        got = outcome(multipartite_colour, col, [mask_of(g) for g in groups], pair)
        want = outcome(reference_multipartite, col, groups, pair)
    assert got == want


# -- three single vertices against the dense reference -----------------------


def test_three_single_vertices_match_the_dense_reference():
    # Every colouring of the three pairs of K_3 from {missing, 1..4} (0
    # marks a pair missing from the host), every ordered pair of colours
    # 0..5, the out-of-range ones included, and every order of the three
    # single-vertex groups.  The answers, raise types, messages and
    # witnesses must be the dense reference's.
    pairs = [(0, 1), (0, 2), (1, 2)]
    triangles = 0
    for colours in product(range(5), repeat=3):
        host = HostGraph(3, [q for q, c in zip(pairs, colours) if c == 0])
        col = EdgeColouring.from_pairs(
            host, 4, {q: c for q, c in zip(pairs, colours) if c})
        for pair in product(range(6), repeat=2):
            triangle = set(colours) <= set(pair) <= {1, 2, 3, 4}
            for order in permutations(range(3)):
                masks = [1 << v for v in order]
                got = outcome(multipartite_colour, col, masks, pair)
                assert got == outcome(reference_multipartite, col,
                                      [[v] for v in order], pair)
                triangles += triangle
        # overlapping singleton groups stay an error
        for a, x in ((0, 1), (2, 0)):
            with pytest.raises(ValueError, match="groups must be disjoint"):
                multipartite_colour(col, [1 << a, 1 << a, 1 << x], (1, 2))
    # per pair of two colours, the 8 triangles in them; per (c, c), one
    assert triangles == 6 * (12 * 8 + 4 * 1)
