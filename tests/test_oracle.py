"""Brute-force oracle: minimal covers, scans, the worked example's impossibility."""

import math
import random
from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, islice, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_colouring, random_colouring
from monocover.covers import Cover, CoverPart, verify_cover
from monocover.generators import section5_example
from monocover.graphs import (EdgeColouring, HostGraph, diameter_within,
                              iter_bits, set_diameter)
from monocover.oracle import (_balls, _canonical_colour_tuples,
                              _class_tuples, _pair_moves, _tuple_codes,
                              exhaustive_colouring_scan, min_cover_bruteforce,
                              minimal_bound)


# -- reference search ------------------------------------------------------
# The oracle's earlier search, kept as an independent reference: one
# partition search per tuple of part colours, compatibility tested vertex
# by vertex on the distance rows, and tables rebuilt on every call.


def reference_min_cover_bruteforce(colouring, max_parts, bound=None):
    n = colouring.n
    max_diam = math.inf if bound is None else bound
    k = colouring.k
    metrics = colouring.metrics
    adj = {c: colouring.adj_rows(c) for c in range(1, k + 1)}
    comp_mask = {c: {} for c in range(1, k + 1)}
    for c in range(1, k + 1):
        for mask in metrics.component_masks(c):
            for v in iter_bits(mask):
                comp_mask[c][v] = mask
    dist = {c: [metrics.distances_from(c, v) for v in range(n)]
            for c in range(1, k + 1)}

    def compatible(c, u, v):
        d = dist[c][u][v]
        if d < 0:
            return False
        return bound is None or d <= bound

    def extend(mask, c):
        if diameter_within(adj[c], mask, max_diam):
            return mask
        first = (mask & -mask).bit_length() - 1
        pool = comp_mask[c][first]
        if mask & ~pool:
            return None
        if bound is not None:
            for v in iter_bits(mask):
                pool &= metrics.ball_mask(c, v, bound)
        if pool == mask:
            return None
        if diameter_within(adj[c], pool, max_diam):
            return pool
        extras = list(iter_bits(pool & ~mask))
        for r in range(1, len(extras) + 1):
            for combo in combinations(extras, r):
                cand = mask
                for v in combo:
                    cand |= 1 << v
                if diameter_within(adj[c], cand, max_diam):
                    return cand
        return None

    def search(p, colours):
        masks = [0] * p

        def assign(v, used):
            if v == n:
                if used < p:
                    return None
                final = []
                for b in range(p):
                    grown = extend(masks[b], colours[b])
                    if grown is None:
                        return None
                    final.append(CoverPart(frozenset(iter_bits(grown)),
                                           colours[b]))
                return Cover(tuple(final), max_diam)
            for b in range(min(used + 1, p)):
                c = colours[b]
                if all(compatible(c, v, u) for u in iter_bits(masks[b])):
                    masks[b] |= 1 << v
                    got = assign(v + 1, max(used, b + 1))
                    if got is not None:
                        return got
                    masks[b] &= ~(1 << v)
            return None

        return assign(0, 0)

    for p in range(1, max_parts + 1):
        for colours in product(range(1, k + 1), repeat=p):
            got = search(p, colours)
            if got is not None:
                return got
    return None


def reference_minimal_bound(colouring, max_parts, start_bound):
    cover = reference_min_cover_bruteforce(colouring, max_parts, start_bound)
    if cover is None:
        return None
    while True:
        worst = max(set_diameter(colouring, p.colour, p.vertices)
                    for p in cover.parts)
        if worst == 0:
            return 0
        lower = reference_min_cover_bruteforce(colouring, max_parts, worst - 1)
        if lower is None:
            return worst
        cover = lower


def reference_balls(rows):
    """``balls[v][r]`` for r < n from a queue BFS over adjacency bitmasks."""
    n = len(rows)
    balls = []
    for v in range(n):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in range(n):
                if rows[u] >> w & 1 and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        balls.append(tuple(sum(1 << w for w, d in dist.items() if d <= r)
                           for r in range(n)))
    return tuple(balls)


def reference_canonical_colour_tuple(codes):
    """The scan's earlier filter: each colour first appears after every
    smaller one."""
    top = 0
    for c in codes:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def filtered_canonical_tuples(m, k):
    """Canonical tuples in the scan's earlier order: every code of
    range(k**m), digit i the colour of pair i, kept if canonical."""
    for code in range(k ** m):
        digits = []
        for _ in range(m):
            digits.append(code % k + 1)
            code //= k
        if reference_canonical_colour_tuple(digits):
            yield tuple(digits)


def k4_colourings():
    pairs = list(combinations(range(4), 2))
    host = HostGraph.complete(4)
    for codes in filtered_canonical_tuples(len(pairs), 3):
        yield EdgeColouring.from_pairs(host, 3, dict(zip(pairs, codes)))


def reference_relabellings(codes, n):
    """The canonical tuples of every vertex relabelling of the colouring
    of K_n whose pairs, in ``combinations`` order, have colours ``codes``:
    colours renamed in order of first appearance."""
    pairs = list(combinations(range(n), 2))
    colour = dict(zip(pairs, codes))
    found = set()
    for perm in permutations(range(n)):
        names = {}
        found.add(tuple(names.setdefault(colour[min(perm[u], perm[v]),
                                                max(perm[u], perm[v])],
                                         len(names) + 1)
                        for u, v in pairs))
    return found


@lru_cache(maxsize=None)
def reference_needs(n, k, parts):
    """``(codes, least bound)`` of every canonical tuple in scan order,
    each colouring built from its pairs and searched on its own."""
    pairs = list(combinations(range(n), 2))
    host = HostGraph.complete(n)
    return tuple(
        (codes, minimal_bound(EdgeColouring.from_pairs(
            host, k, dict(zip(pairs, codes))), parts, None))
        for codes in filtered_canonical_tuples(len(pairs), k))


def reference_scan(n, k, bound, parts, limit=None):
    """``(instances_checked, worst_bound_needed, witnesses, complete)`` of
    a scan that searches every tuple."""
    needs = reference_needs(n, k, parts)
    taken = needs if limit is None else needs[:limit]
    witnesses = [codes for codes, need in taken
                 if need is None or (bound is not None and need > bound)]
    worst = max((need for _, need in taken if need is not None), default=0)
    return len(taken), worst, witnesses, len(taken) == len(needs)


def scan_fields(report):
    return (report.instances_checked, report.worst_bound_needed,
            report.witnesses, report.complete)


# -- minimal covers ----------------------------------------------------------


def test_min_cover_monochromatic():
    col = constant_colouring(5, 1, k=2)
    cover = min_cover_bruteforce(col, max_parts=1, bound=1)
    assert cover is not None
    assert verify_cover(col, cover, bound=1, max_parts=1).valid


def test_min_cover_size_gate():
    col = constant_colouring(15, 1, k=2)
    with pytest.raises(ValueError):
        min_cover_bruteforce(col, max_parts=3, bound=1)


def test_min_cover_respects_bound_monotonicity(rng):
    for _ in range(15):
        col = random_colouring(rng.randint(2, 7), 3, seed=rng.randint(0, 10**6))
        hi = min_cover_bruteforce(col, max_parts=2, bound=6)
        lo = min_cover_bruteforce(col, max_parts=2, bound=2)
        if hi is None:
            assert lo is None
        if lo is not None:
            assert verify_cover(col, lo, bound=2, max_parts=2).valid


def test_min_cover_finds_overlapping_solutions():
    # colour 1 path 0-1-2, colour 2 path 2-3-4: vertex 2 must serve both
    # parts at bound 1, which forces the extension step to overlap them
    from monocover.graphs import EdgeColouring, HostGraph
    host = HostGraph.complete(5)
    ones = {(0, 1), (1, 2)}
    twos = {(2, 3), (3, 4)}
    col = EdgeColouring.build(
        host, 3, lambda u, v: 1 if (u, v) in ones else (2 if (u, v) in twos else 3))
    cover = min_cover_bruteforce(col, max_parts=2, bound=2)
    assert cover is not None
    assert verify_cover(col, cover, bound=2, max_parts=2).valid


def test_minimal_bound_descends():
    col = constant_colouring(6, 2, k=2)
    assert minimal_bound(col, max_parts=1, start_bound=6) == 1


def test_section5_example_impossible_with_two_parts():
    for extra in (1, 2, 3, 4):
        col = section5_example(extra, seed=extra)
        assert min_cover_bruteforce(col, max_parts=2, bound=None) is None
        three = min_cover_bruteforce(col, max_parts=3, bound=None)
        assert three is not None
        assert verify_cover(col, three, bound=math.inf, max_parts=3).valid


def test_scan_k2_n4_spanning_colour():
    report = exhaustive_colouring_scan(4, 2, bound=3, max_parts=1)
    assert report.complete
    assert not report.witnesses
    assert report.worst_bound_needed <= 3
    # One colouring per orbit under colour relabelling (Burnside):
    # 2^6 / 2! for two colours, S(6,1) + S(6,2) + S(6,3) for three.
    assert report.instances_checked == 32
    three = exhaustive_colouring_scan(4, 3, bound=3, max_parts=2)
    assert three.complete and not three.witnesses
    assert three.instances_checked == 122


@pytest.mark.parametrize("k", [2, 3])
def test_scan_reads_inf_bound_as_none(k):
    # inf asks for connectivity only, as in min_cover_bruteforce; with
    # three colours and one part, 27 colourings of K_4 have no spanning
    # colour and are witnesses under either spelling.
    inf = exhaustive_colouring_scan(4, k, math.inf, 1)
    none = exhaustive_colouring_scan(4, k, None, 1)
    assert (inf.instances_checked, inf.worst_bound_needed, inf.witnesses,
            inf.complete) == (none.instances_checked, none.worst_bound_needed,
                              none.witnesses, none.complete)
    assert len(inf.witnesses) == (0 if k == 2 else 27)
    for bad in (-1, 2.5):
        with pytest.raises(ValueError, match="nonnegative integer"):
            exhaustive_colouring_scan(4, k, bad, 1)


@pytest.mark.parametrize("n, k, worst", [(1, 2, 0), (1, 3, 0), (2, 2, 1),
                                          (2, 3, 1), (14, 1, 1)])
def test_scan_of_one_or_two_vertices(n, k, worst):
    # One colouring each: K_1 has no pair, K_2 one pair in colour 1, and
    # K_14 in one colour, scanned without a table of its 14! relabellings.
    for bound in (3, None):
        report = exhaustive_colouring_scan(n, k, bound, 1)
        assert (report.instances_checked, report.worst_bound_needed,
                report.witnesses, report.complete) == (1, worst, [], True)


def test_scan_of_fifteen_vertices_refused():
    with pytest.raises(ValueError, match="oracle limited to 14 vertices"):
        exhaustive_colouring_scan(15, 1, None, 1)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("sampler, n", [("exhaustive", 1), ("exhaustive", 3),
                                        ("random", 4), ("random", 12)])
def test_scan_needs_a_colour(sampler, n, k):
    # Without a colour there is no colouring to scan, not zero of them.
    with pytest.raises(ValueError, match="need at least one colour"):
        exhaustive_colouring_scan(n, k, 3, 1, sampler=sampler, count=1)


def test_scan_limit_flags_incomplete():
    report = exhaustive_colouring_scan(4, 2, bound=3, max_parts=1, limit=5)
    assert not report.complete
    assert report.instances_checked == 5


def test_scan_random_small():
    report = exhaustive_colouring_scan(5, 3, bound=8, max_parts=2,
                                       sampler="random", seed=1, count=40)
    assert report.complete
    assert not report.witnesses


def test_scan_random_large_uses_solver():
    report = exhaustive_colouring_scan(30, 4, bound=160, max_parts=3,
                                       sampler="random", seed=2, count=5)
    assert report.fallbacks == 0
    assert not report.witnesses
    assert report.worst_bound_needed <= 160


@pytest.mark.parametrize("bound, checked", [(math.inf, math.inf),
                                             (None, 160)])
def test_scan_random_large_hands_bound_to_verifier(monkeypatch, bound,
                                                   checked):
    # the verifier takes inf as connectivity only; only None means 160
    from monocover import oracle
    seen = []

    def spy(colouring, cover, bound, max_parts):
        seen.append(bound)
        return verify_cover(colouring, cover, bound=bound, max_parts=max_parts)

    monkeypatch.setattr(oracle, "verify_cover", spy)
    report = exhaustive_colouring_scan(12, 4, bound, 3, sampler="random",
                                       seed=1, count=2)
    assert seen == [checked, checked]
    assert not report.witnesses


def test_scan_random_large_checks_bound_zero():
    # bound 0 is a bound, not "use the default 160": no cover of K_12 by
    # three parts has every part of diameter 0, so every sample is a witness
    report = exhaustive_colouring_scan(12, 4, bound=0, max_parts=3,
                                       sampler="random", seed=1, count=3)
    assert report.fallbacks == 0
    assert len(report.witnesses) == 3


def test_minimal_bound_climb_builds_each_ball_row_once(monkeypatch):
    # Every search of a climb reads the tables built once per colour
    # graph, so from a cleared cache each (colour graph, vertex) ball row
    # is built once, and a second climb on the colouring builds none.
    from monocover import oracle
    rows = Counter()
    bfs_reach = oracle.bfs_reach

    def counted(adj, start_mask, **kwargs):
        rows[tuple(adj), start_mask] += 1
        return bfs_reach(adj, start_mask, **kwargs)

    searches = 0
    search = oracle._search

    def counted_search(*args, **kwargs):
        nonlocal searches
        searches += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "bfs_reach", counted)
    monkeypatch.setattr(oracle, "_search", counted_search)
    oracle._balls.cache_clear()
    col = random_colouring(5, 3, seed=12)  # least bound 2: searches at 1 and 2
    assert minimal_bound(col, max_parts=2, start_bound=8) is not None
    assert searches > 1
    edge_sets = {tuple(col.adj_rows(c)) for c in range(1, 4)}
    assert set(rows) == {(g, 1 << v) for g in edge_sets for v in range(5)}
    assert set(rows.values()) == {1}
    built = sum(rows.values())
    assert minimal_bound(col, max_parts=2, start_bound=8) is not None
    assert sum(rows.values()) == built


def test_minimal_bound_climbs_from_the_lower_bound(monkeypatch):
    # The climb searches lower, lower + 1, ... and stops at the least
    # bound, where lower is 1 unless single vertices can be the parts.
    from monocover import oracle
    searched = []
    search = oracle._search

    def recorded(adj, balls, max_parts, bound):
        searched.append(bound)
        return search(adj, balls, max_parts, bound)

    monkeypatch.setattr(oracle, "_search", recorded)
    # colour 1 a path 0-1-2-3-4, colours 2 and 3 each leave a vertex
    # isolated, so one part needs the whole path: least bound 4
    path = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 2): 2, (0, 3): 2,
            (0, 4): 2, (1, 3): 3, (1, 4): 3, (2, 4): 3}
    cases = [(EdgeColouring.from_pairs(HostGraph.complete(5), 3, path), 1),
             (section5_example(1, seed=1), 2)]  # no cover at any bound
    rng = random.Random(2026101919)
    for _ in range(40):
        n, k, parts = rng.randint(1, 6), rng.randint(1, 3), rng.randint(1, 3)
        cases.append((random_colouring(n, k, seed=rng.randrange(2 ** 31)), parts))
    leasts = Counter()
    for col, parts in cases:
        n = col.n
        lower = 0 if n <= parts else 1
        searched.clear()
        least = minimal_bound(col, parts, None)
        leasts[least] += 1
        assert searched == list(range(lower, n if least is None else least + 1))
        if n > parts:
            assert 0 not in searched
        for start in range(lower):
            searched.clear()
            assert minimal_bound(col, parts, start) is None
            assert searched == []
        for start in range(lower, n + 3):
            got = minimal_bound(col, parts, start)
            if start >= n - 1:
                assert got == least
            else:
                assert got == (least if least is not None and least <= start
                               else None)
    assert leasts[4] == 1 and leasts[0] and leasts[1] and leasts[2] and leasts[None]


@st.composite
def colour_graphs(draw):
    """Adjacency rows of a random, a two-part disconnected or an edgeless
    graph on 1 to 14 vertices."""
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["random", "disconnected", "edgeless"]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    side = [rnd.random() < 0.5 for _ in range(n)]
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if shape == "edgeless" or rnd.random() >= p:
            continue
        if shape == "disconnected" and side[u] != side[v]:
            continue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


@settings(max_examples=300, deadline=None)
@given(colour_graphs())
def test_ball_tables_match_queue_bfs(rows):
    assert _balls(rows) == reference_balls(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32))
def test_searches_agree_cold_and_warm(n, k, parts, seed):
    col = random_colouring(n, k, seed=seed)
    for search in (lambda: minimal_bound(col, parts, n),
                   lambda: min_cover_bruteforce(col, parts, 1),
                   lambda: min_cover_bruteforce(col, parts, None)):
        _balls.cache_clear()
        cold = search()
        assert search() == cold


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("parts", [1, 3])
def test_negative_bound_rejected(n, parts):
    col = random_colouring(n, 2, seed=n)
    with pytest.raises(ValueError, match="nonnegative integer"):
        min_cover_bruteforce(col, max_parts=parts, bound=-1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        minimal_bound(col, max_parts=parts, start_bound=-1)


def test_search_agrees_with_reference():
    rng = random.Random(20261018)
    found = 0
    for _ in range(320):
        n, k, parts = rng.randint(2, 8), rng.randint(2, 4), rng.randint(1, 3)
        bound = rng.choice([None, 0, 1, 2, 3])
        col = random_colouring(n, k, seed=rng.randrange(2 ** 31))
        want = reference_min_cover_bruteforce(col, parts, bound)
        got = min_cover_bruteforce(col, parts, bound)
        assert (got is None) == (want is None), (n, k, parts, bound)
        if got is not None:
            found += 1
            at = math.inf if bound is None else bound
            assert got.claimed_bound == at
            assert verify_cover(col, got, bound=at, max_parts=parts).valid
    # both outcomes are well represented
    assert 60 < found < 260


def test_minimal_bound_agrees_with_reference_on_k4():
    cols = list(k4_colourings())
    assert len(cols) == 122
    for col in cols:
        for parts in (1, 2, 3):
            for start in range(5):
                assert (minimal_bound(col, parts, start)
                        == reference_minimal_bound(col, parts, start))


@pytest.mark.parametrize("n,k,orbits", [(3, 2, 4), (4, 2, 32), (4, 3, 122),
                                        (5, 3, 9842)])
def test_canonical_tuples_in_scan_order(n, k, orbits):
    # Burnside: one tuple per set partition of the m pairs into at most k
    # colour classes, sum of S(m, j) for j <= k.
    m = n * (n - 1) // 2
    got = list(map(tuple, _canonical_colour_tuples(m, k).tolist()))
    assert got == list(filtered_canonical_tuples(m, k))
    assert len(got) == orbits


@pytest.mark.parametrize("m, k, rows", [(15, 2, 16384), (15, 3, 2391485),
                                        (10, 4, 43947)])
def test_canonical_tuple_rows_match_burnside(m, k, rows):
    # ROADMAP's Burnside table: K_6 in three colours, K_5 in four; in two
    # colours 2**(m - 1).  Codes strictly increase down the rows.
    tuples = _canonical_colour_tuples(m, k)
    assert tuples.shape == (rows, m) and tuples.dtype == np.uint8
    assert (np.diff(_tuple_codes(tuples, k)) > 0).all()


@pytest.mark.parametrize("limit", [5, 257, 1000])
def test_scan_limit_takes_the_first_tuples(limit):
    # A cut scan reports the first ``limit`` tuples as if each were
    # searched alone; at bound 1, 2856 of the 9842 are witnesses.
    first = list(islice(filtered_canonical_tuples(10, 3), limit + 1))
    if limit == 1000:
        # tuple 1000 is not the first of its class, so the cut splits it
        assert reference_relabellings(first[limit], 5) & set(first[:limit])
    report = exhaustive_colouring_scan(5, 3, bound=1, max_parts=2, limit=limit)
    assert scan_fields(report) == reference_scan(5, 3, 1, 2, limit)


@pytest.mark.parametrize("limit, complete", [(0, False), (9841, False),
                                             (9842, True), (10 ** 6, True)])
def test_scan_limit_at_the_ends(limit, complete):
    # No tuple, all but the last, exactly all, and more than all.
    report = exhaustive_colouring_scan(5, 3, bound=1, max_parts=2, limit=limit)
    assert report.instances_checked == min(limit, 9842)
    assert report.complete is complete
    assert scan_fields(report) == reference_scan(5, 3, 1, 2, limit)


@pytest.mark.parametrize("n, k", [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3)])
@pytest.mark.parametrize("bound", [8, 1, None])
@pytest.mark.parametrize("parts", [1, 2])
def test_scan_agrees_with_a_search_of_every_tuple(n, k, bound, parts):
    report = exhaustive_colouring_scan(n, k, bound, parts)
    assert scan_fields(report) == reference_scan(n, k, bound, parts)


@pytest.mark.parametrize("n, k, classes", [(4, 2, 6), (5, 2, 18),
                                            (5, 3, 142), (6, 2, 78)])
def test_scan_searches_once_per_class(monkeypatch, n, k, classes):
    # Colourings up to relabelling of vertices and colours (Burnside):
    # 142 of K_5 in three colours; in two, the 11 graphs on 4 vertices, the
    # 34 on 5 and the 156 on 6 paired with their complements, of which one
    # (the path), two and none are self-complementary.
    from monocover import oracle
    searched = []
    bound_of = oracle.minimal_bound

    def recorded(colouring, *args):
        searched.append(colouring)
        return bound_of(colouring, *args)

    monkeypatch.setattr(oracle, "minimal_bound", recorded)
    report = exhaustive_colouring_scan(n, k, bound=8, max_parts=2)
    assert len(searched) == classes and report.complete
    assert report.instances_checked == {(4, 2): 32, (5, 2): 512, (5, 3): 9842,
                                        (6, 2): 16384}[n, k]


@pytest.mark.parametrize("n, k", [(3, 3), (4, 3), (5, 3)])
def test_class_tuples_are_the_relabellings(n, k):
    m = n * (n - 1) // 2
    moves = _pair_moves(n)
    for codes in islice(filtered_canonical_tuples(m, k), 1, 200):
        assert (set(map(tuple, _class_tuples(codes, moves).tolist()))
                == reference_relabellings(codes, n))
