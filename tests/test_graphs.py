"""Graph core: components, balls, set diameters, metric laws, file format."""

import bisect
import io
import math
import random
import re
import tracemalloc
from collections import deque
from collections.abc import Sequence
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import blocks_colouring, constant_colouring, random_colouring
from monocover import graphs
from monocover.covers import verify_cover
from monocover.generators import random_uniform, two_paths
from monocover.graphs import (DISCONNECTED, EdgeColouring, HostGraph,
                              MonoMetrics, bfs_distances, bfs_reach,
                              diameter_of_mask, diameter_within,
                              format_colouring, iter_bits, mask_of,
                              parse_colouring, set_diameter)
from monocover.solver import (BRANCH_LAYER_QUAD, BRANCH_SINGLE_COLOUR,
                              BRANCH_SMALL_DIAM, solve4)


# -- independent oracles --------------------------------------------------


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def components_by_union_find(colouring, c):
    uf = UnionFind(colouring.n)
    for u, v, col in colouring.edges():
        if col == c:
            uf.union(u, v)
    groups = {}
    for v in range(colouring.n):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(groups.values())


def components(metrics, c):
    """The c-components as vertex lists, read from their masks."""
    return [list(iter_bits(m)) for m in metrics.component_masks(c)]


def ball(metrics, c, x, r):
    """B_c(x, r) as a vertex set, read from its mask."""
    return set(iter_bits(metrics.ball_mask(c, x, r)))


def floyd_warshall_induced(colouring, c, vertices):
    verts = sorted(vertices)
    idx = {v: i for i, v in enumerate(verts)}
    m = len(verts)
    inf = math.inf
    d = [[0 if i == j else inf for j in range(m)] for i in range(m)]
    for u, v in combinations(verts, 2):
        if colouring.has_edge(u, v) and colouring.colour_of(u, v) == c:
            d[idx[u]][idx[v]] = d[idx[v]][idx[u]] = 1
    for k in range(m):
        for i in range(m):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(m):
                alt = dik + d[k][j]
                if alt < d[i][j]:
                    d[i][j] = alt
    worst = max(d[i][j] for i in range(m) for j in range(m))
    return DISCONNECTED if worst == inf else int(worst)


# -- host graphs ----------------------------------------------------------


def test_host_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        HostGraph(3, missing=[(1, 1)])
    with pytest.raises(ValueError):
        HostGraph(3, missing=[(0, 5)])


def test_host_classes_must_match_missing():
    HostGraph(4, missing=[(0, 1), (2, 3)], classes=[(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        HostGraph(4, missing=[(0, 1)], classes=[(0, 1), (2, 3)])


def test_multipartite_constructor():
    host = HostGraph.multipartite([2, 3])
    assert host.classes == ((0, 1), (2, 3, 4))
    assert host.missing == frozenset({(0, 1), (2, 3), (2, 4), (3, 4)})
    assert not host.has_edge(2, 3)
    assert host.has_edge(0, 2)


def test_infer_classes_roundtrip():
    host = HostGraph.multipartite([2, 1, 3])
    bare = HostGraph(host.n, host.missing)
    assert bare.infer_classes() == host.classes


def test_infer_classes_rejects_non_clique_missing():
    # missing pattern 0-1, 1-2 is a path, not a union of cliques
    host = HostGraph(4, missing=[(0, 1), (1, 2)])
    assert host.infer_classes() is None


# -- colourings -----------------------------------------------------------


def test_colouring_validation():
    host = HostGraph.complete(3)
    good = {(0, 1): 1, (0, 2): 2, (1, 2): 1}
    bad = [
        ({(0, 1): 1, (0, 2): 1}, "1..2"),  # absent pair
        ({(0, 1): 1, (0, 2): 2, (-1, 1): 1}, "bad pair"),  # -1 would alias 2
        ({(0, 1): 1, (0, 2): 2, (1, 2): 1, (1, 3): 1}, "bad pair"),  # vertex n
        ({**good, (1, 1): 1}, "bad pair"),  # loop
        ({**good, (1, 0): 1}, r"duplicate pair \(0,1\)"),
        ({**good, (0, 1): 0}, "1..2"),
        ({**good, (0, 1): 3}, "1..2"),
        ({**good, (0, 1): 257}, "out of range"),  # a uint8 store would make it 1
    ]
    for colour, message in bad:
        with pytest.raises(ValueError, match=message):
            EdgeColouring.from_pairs(host, 2, colour)
    with pytest.raises(ValueError, match="missing from the host"):
        EdgeColouring.from_pairs(HostGraph(3, missing=[(0, 1)]), 2, good)
    col = EdgeColouring.from_pairs(host, 2, good)
    assert col.colour_of(1, 0) == 1
    with pytest.raises(ValueError):
        col.colour_of(1, 1)


def test_missing_edges_have_no_colour():
    host = HostGraph(3, missing=[(0, 1)])
    col = EdgeColouring.from_pairs(host, 2, {(0, 2): 1, (1, 2): 2})
    assert not col.has_edge(0, 1)
    with pytest.raises(ValueError):
        col.colour_of(0, 1)


def test_recoloured_changes_named_pairs_only():
    col = constant_colouring(4, 1, k=2)
    out = col.recoloured({(0, 1): 2, (3, 2): 2})
    assert [(u, v) for u, v, c in out.edges() if c == 2] == [(0, 1), (2, 3)]
    assert all(c == 1 for _, _, c in col.edges())
    bad = [
        ({(-1, 2): 2}, "bad pair"),  # -1 would alias 3
        ({(0, 4): 2}, "bad pair"),  # vertex n
        ({(1, 1): 2}, "bad pair"),  # loop
        ({(0, 1): 2, (1, 0): 1}, r"duplicate pair \(0,1\)"),
        ({(0, 1): 0}, "1..2"),
        ({(0, 1): 3}, "1..2"),
        ({(0, 1): 257}, "out of range"),  # a uint8 store would make it 1
    ]
    for changes, message in bad:
        with pytest.raises(ValueError, match=message):
            col.recoloured(changes)
    gap = random_colouring(4, 2, seed=1, host=HostGraph(4, missing=[(0, 1)]))
    with pytest.raises(ValueError, match="missing from the host"):
        gap.recoloured({(1, 0): 1})


# -- components -----------------------------------------------------------


def test_components_monochromatic_triangle():
    col = constant_colouring(3, 1, k=2)
    assert components(col.metrics, 1) == [[0, 1, 2]]
    assert components(col.metrics, 2) == [[0], [1], [2]]


def test_components_colour_out_of_range():
    col = constant_colouring(3, 1, k=2)
    with pytest.raises(ValueError):
        components(col.metrics, 3)


def test_components_match_union_find_oracle():
    for seed in range(30):
        col = random_colouring(6, 2, seed=seed)
        assert components(col.metrics, 1) == components_by_union_find(col, 1)
        assert components(col.metrics, 2) == components_by_union_find(col, 2)


def test_component_ids_ordinal_by_lowest_vertex():
    host = HostGraph.complete(4)
    col = EdgeColouring.from_pairs(host, 2, {
        (0, 1): 2, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 1, (2, 3): 2})
    m = MonoMetrics(col)
    # colour-1 components {0,2} and {1,3}, listed by lowest vertex: the
    # grid signatures and the connectivity cover index them in this order
    assert m.component_masks(1) == [0b0101, 0b1010]
    assert components(m, 1) == [[0, 2], [1, 3]]
    # colour 2 is connected: one component
    assert m.component_masks(2) == [0b1111]


# -- balls ----------------------------------------------------------------


def test_ball_radius_zero_is_centre():
    col = random_colouring(5, 3, seed=2)
    m = MonoMetrics(col)
    for v in range(5):
        assert ball(m, 2, v, 0) == {v}


def test_ball_star_of_colour_one():
    col = constant_colouring(4, 1, k=2)
    m = MonoMetrics(col)
    assert ball(m, 1, 2, 1) == {0, 1, 2, 3}


def test_ball_on_embedded_path():
    # colour-1 path 0-1-2-3 inside K4, everything else colour 2
    host = HostGraph.complete(4)
    path = {(0, 1), (1, 2), (2, 3)}
    col = EdgeColouring.build(host, 2, lambda u, v: 1 if (u, v) in path else 2)
    m = MonoMetrics(col)
    assert ball(m, 1, 0, 2) == {0, 1, 2}
    assert ball(m, 1, 0, 3) == {0, 1, 2, 3}


def test_ball_with_full_radius_is_component():
    for seed in range(10):
        col = random_colouring(7, 3, seed=seed)
        m = MonoMetrics(col)
        for c in (1, 2, 3):
            for v in range(7):
                comp = next(cc for cc in components(m, c) if v in cc)
                assert sorted(ball(m, c, v, 7)) == comp


# -- set diameter ---------------------------------------------------------


def test_set_diameter_examples():
    col = constant_colouring(4, 1, k=2)
    assert set_diameter(col, 1, [2]) == 0
    assert set_diameter(col, 1, range(4)) == 1
    host = HostGraph.complete(4)
    path = {(0, 1), (1, 2), (2, 3)}
    col2 = EdgeColouring.build(host, 2, lambda u, v: 1 if (u, v) in path else 2)
    assert set_diameter(col2, 1, range(4)) == 3
    assert floyd_warshall_induced(col2, 1, range(4)) == 3
    assert set_diameter(col2, 1, [0, 2]) is DISCONNECTED
    with pytest.raises(ValueError):
        set_diameter(col2, 1, [])


def test_set_diameter_is_induced_not_restricted():
    # 0 and 2 are at colour-1 distance 2 through vertex 1, but the set {0, 2}
    # induces no colour-1 edge at all.
    host = HostGraph.complete(3)
    col = EdgeColouring.from_pairs(host, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 2})
    m = MonoMetrics(col)
    assert m.dist(1, 0, 2) == 2
    assert set_diameter(col, 1, [0, 2]) is DISCONNECTED


def test_set_diameter_matches_floyd_warshall_oracle(rng):
    cases = []
    for _ in range(40):
        n = rng.randint(2, 8)
        col = random_colouring(n, rng.randint(1, 3), seed=rng.randint(0, 10**6))
        cases.append((col, rng.randint(1, col.k), rng.sample(range(n), rng.randint(1, n))))
    # Colour 1 of two_paths is the path 0..39: from its end, the first BFS,
    # capped at floor(b) levels, misses vertex 39 for bounds below 39 and
    # straddles (39 <= b < 78) above.
    # Colour 2 on these vertices is the path 30..38, 1..9, whose lowest
    # vertex 1 sits in the middle (eccentricity 5, diameter 9), so bounds
    # 5..9 straddle.  The iFUB sweep starts from 1 too (degree 2, lowest
    # on ties), whose last level is {30}; the BFS from 30 finds 9, which
    # ends the sweep at level 4 by the iFUB rule (9 >= 2*4).
    path = two_paths(40, rng.randint(0, 10**6))
    cases.append((path, 1, range(40)))
    cases.append((path, 2, [30, 32, 34, 36, 38, 1, 3, 5, 7, 9]))
    # Colour 1 here is the path 1..7, 0, 8..10 with leaves 11 and 12 on the
    # hub 0 (eccentricity 7, diameter 10), so bounds 7..13 straddle.  The
    # BFS from 1, alone in the hub's last level, finds 10 < 2*6: bounds
    # 7..9 end the sweep by stop_above alone, before any BFS from level 6.
    edges = {(i, i + 1) for i in range(1, 7)} | {
        (0, 7), (0, 8), (8, 9), (9, 10), (0, 11), (0, 12)}
    tailed = EdgeColouring.build(HostGraph.complete(13), 2,
                                 lambda u, v: 1 if (min(u, v), max(u, v)) in edges else 2)
    cases.append((tailed, 1, range(13)))
    for col, c, verts in cases:
        fw = floyd_warshall_induced(col, c, verts)
        assert set_diameter(col, c, verts) == fw
        adj, mask = col.adj_rows(c), mask_of(verts)
        bounds = [b + half for b in range(col.n + 2) for half in (0, 0.5)]
        for b in bounds + [math.inf]:
            assert diameter_within(adj, mask, b) == (fw is not DISCONNECTED and fw <= b)


def reference_diameter(adj, mask):
    """All-sources sweep by a queue BFS over vertex lists, independent of
    the bitmask kernel: the largest distance inside ``mask``, or
    DISCONNECTED."""
    verts = list(iter_bits(mask))
    worst = 0
    for source in verts:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in verts:
                if adj[u] >> v & 1 and v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if len(dist) < len(verts):
            return DISCONNECTED
        worst = max(worst, max(dist.values()))
    return worst


@st.composite
def shaped_graphs(draw):
    """(adjacency rows, mask) of a loopless graph of a drawn shape, its
    vertices relabelled; the mask holds every vertex or a drawn subset.
    A "tree" is a random tree with a few more edges, the shape on which
    levels of the first BFS hold pairs far apart; a "lollipop" is a
    clique with a path hanging off one of its vertices."""
    shape = draw(st.sampled_from(["random", "tree", "path", "cycle", "hub",
                                  "clique", "disconnected", "lollipop"]))
    # The sparse shapes get more vertices: their sweeps run deep enough
    # for a BFS to settle vertices beside its source.
    n = draw(st.integers(1, 40 if shape in ("tree", "path", "lollipop") else 12))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    every = list(combinations(range(n), 2))
    if shape == "clique":
        pairs = set(every)
    elif shape in ("path", "cycle"):
        pairs = {(u, u + 1) for u in range(n - 1)}
        if shape == "cycle" and n > 2:
            pairs.add((0, n - 1))
    elif shape == "lollipop":
        head = rnd.randint(1, n)
        pairs = set(combinations(range(head), 2))
        pairs |= {(u, u + 1) for u in range(head - 1, n - 1)}
    elif shape == "tree":
        pairs = {(rnd.randrange(v), v) for v in range(1, n)}
        pairs |= {pair for pair in every if rnd.random() < p / 10}
    else:
        cut = n // 2 if shape == "disconnected" else n
        pairs = {(u, v) for u, v in every
                 if (v < cut or u >= cut) and rnd.random() < p}
        if shape == "hub":
            pairs |= {(0, v) for v in range(1, n)}
    label = draw(st.permutations(range(n)))
    adj = [0] * n
    for u, v in pairs:
        adj[label[u]] |= 1 << label[v]
        adj[label[v]] |= 1 << label[u]
    full = (1 << n) - 1
    return adj, draw(st.just(full) | st.integers(1, full))


# A 6-vertex graph of diameter 3 whose sweep settles vertices: settling
# one level beyond diam - e_v there loses the only pair at distance 3.
SETTLES_TO_THE_EDGE = ([42, 13, 18, 3, 36, 17], 63)


@settings(max_examples=600, deadline=None)
@given(shaped_graphs(), st.none() | st.integers(0, 40))
@example(SETTLES_TO_THE_EDGE, None)
@example(SETTLES_TO_THE_EDGE, 2)
def test_diameter_of_mask_matches_reference_sweep(graph, stop_above):
    # Exact within stop_above; beyond it, a lower bound that exceeds it.
    adj, mask = graph
    expect = reference_diameter(adj, mask)
    got = diameter_of_mask(adj, mask, stop_above=stop_above)
    if expect is DISCONNECTED or stop_above is None or expect <= stop_above:
        assert got == expect
    else:
        assert stop_above < got <= expect


def test_verify_layer_quad_cover_in_few_bfs_runs():
    # Each part of this cover has a vertex that sees the rest of the part,
    # so eccentricity bounds settle its diameter without the BFS from every
    # vertex (302 runs) that an all-sources sweep makes.
    col = two_paths(300, seed=1)
    cover, trace = solve4(col)
    assert trace.branch == BRANCH_LAYER_QUAD
    before = graphs.BFS_RUNS
    report = verify_cover(col, cover)
    assert report.valid and [r.diameter for r in report.parts] == [2, 2]
    assert graphs.BFS_RUNS - before <= 4


def test_path_diameter_in_few_bfs_runs():
    # Colour 1 of two_paths is the path 0..599, and the sweep starts next
    # to one end (vertex 1: degree 2, the lowest on ties).  A BFS from v
    # settles the vertices within diam - e_v of v, a stretch about twice
    # the last one, so the sweep reaches the iFUB stop after about log2(600)
    # runs, where it took 300 without them (301 with the component BFS).
    col = two_paths(600, seed=1)
    before = graphs.BFS_RUNS
    assert col.metrics.colour_diameter(1) == 599
    assert graphs.BFS_RUNS - before <= 16


def test_part_with_a_hub_reads_few_rows():
    # Vertex 0 of the big part sees the rest of it and vertex 1 does not,
    # so the degree pass stops after their two rows with diameter 2; a
    # full pass reads one row per vertex of the part.
    col = two_paths(300, seed=1)
    cover, trace = solve4(col)
    assert trace.branch == BRANCH_LAYER_QUAD
    part = max(cover.parts, key=lambda p: len(p.vertices))
    adj = CountingRows(col.adj_rows(part.colour))
    assert diameter_of_mask(adj, mask_of(part.vertices)) == 2
    assert adj.reads <= 3


def test_four_blocks_part_diameter_bfs_runs_pinned():
    # Four blocks of 60.  SmallDiam covers block 0 by its own colour 1, at
    # diameter 3; the settled vertices cut the sweep from 38 BFS runs to 14.
    col = blocks_colouring(240, seed=0)
    cover, trace = solve4(col)
    assert trace.branch == BRANCH_SMALL_DIAM
    part = cover.parts[0]
    assert (part.colour, sorted(part.vertices)) == (1, list(range(60)))
    before = graphs.BFS_RUNS
    assert diameter_of_mask(col.adj_rows(1), mask_of(part.vertices)) == 3
    assert graphs.BFS_RUNS - before == 14


def test_bfs_reach_radius_is_ball(rng):
    for _ in range(20):
        col = random_colouring(rng.randint(1, 9), 3, seed=rng.randint(0, 10**6))
        m = MonoMetrics(col)
        for c in range(1, 4):
            for x in range(col.n):
                for r in range(col.n + 1):
                    _, ball = bfs_reach(col.adj_rows(c), 1 << x, radius=r)
                    assert ball == m.ball_mask(c, x, r)


# -- metric laws ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(1, 4))
def test_metric_laws(seed, n, k):
    col = random_colouring(n, k, seed=seed)
    m = MonoMetrics(col)
    rnd = random.Random(seed)
    c = rnd.randint(1, k)
    u, v, w = (rnd.randrange(n) for _ in range(3))
    duv, dvu = m.dist(c, u, v), m.dist(c, v, u)
    assert duv == dvu
    assert (duv == 0) == (u == v)
    if u != v:
        assert (duv == 1) == (col.colour_of(u, v) == c)
    duw, dwv = m.dist(c, u, w), m.dist(c, w, v)
    if duw != math.inf and dwv != math.inf:
        assert duv <= duw + dwv


def test_metric_laws_bulk_sample():
    # >= 10^4 randomized (colouring, colour, triple) probes at n <= 7, k <= 4
    rnd = random.Random(777)
    cols = [random_colouring(rnd.randint(2, 7), rnd.randint(1, 4),
                             seed=rnd.randint(0, 10**6)) for _ in range(150)]
    metrics = [MonoMetrics(c) for c in cols]
    checks = 0
    while checks < 10_000:
        i = rnd.randrange(len(cols))
        col, m = cols[i], metrics[i]
        n = col.n
        c = rnd.randint(1, col.k)
        u, v, w = (rnd.randrange(n) for _ in range(3))
        duv = m.dist(c, u, v)
        assert duv == m.dist(c, v, u)
        assert (duv == 0) == (u == v)
        if u != v:
            assert (duv == 1) == (col.colour_of(u, v) == c)
        duw, dwv = m.dist(c, u, w), m.dist(c, w, v)
        if duw != math.inf and dwv != math.inf:
            assert duv <= duw + dwv
        checks += 1


def test_distance_finite_iff_same_component():
    col = random_colouring(7, 4, seed=99)
    m = MonoMetrics(col)
    for c in range(1, 5):
        for u in range(7):
            for v in range(7):
                same = any(mask >> u & mask >> v & 1 for mask in m.component_masks(c))
                assert (m.dist(c, u, v) < math.inf) == same


def skewed_colouring(n, k, seed):
    """K_n with colour 1 on most pairs and the other colours rare, so that
    they form several components, singletons among them."""
    rng = random.Random(seed)
    weights = [8] + [1] * (k - 1)
    return EdgeColouring.build(HostGraph.complete(n), k,
                               lambda u, v: rng.choices(range(1, k + 1), weights)[0])


def test_levels_cache_agrees_with_the_kernel():
    # Every answer of MonoMetrics is read off cached BFS levels; each must
    # match what the kernel computes directly.  Two passes over one
    # instance ask the same questions cold and then warm, in an order that
    # differs from colouring to colouring.
    rnd = random.Random(2024)
    cols = [skewed_colouring(rnd.randint(1, 14), rnd.choice((1, 2, 3, 3, 4, 4)),
                             seed) for seed in range(60)]
    cols.append(two_paths(40, 1))
    for i, col in enumerate(cols):
        n, m = col.n, MonoMetrics(col)
        full = (1 << n) - 1
        colours = range(1, 3) if col is cols[-1] else range(1, col.k + 1)
        order = ["dist", "comps", "within", "spans"]
        random.Random(i).shuffle(order)
        for _ in range(2):
            for c in colours:
                adj = col.adj_rows(c)
                comps = graphs.components_masks(adj, n)
                for what in order:
                    if what == "dist":
                        for v in range(n):
                            row = bfs_distances(adj, n, v)
                            assert m.distances_from(c, v) == row
                            for r in range(n + 2):
                                want = mask_of(u for u in range(n) if 0 <= row[u] <= r)
                                assert m.ball_mask(c, v, r) == want
                    elif what == "comps":
                        assert m.component_masks(c) == comps
                    else:
                        for b in [*range(n + 2), math.inf]:
                            if what == "within":
                                want = all(diameter_within(adj, x, b) for x in comps)
                                assert m.colour_within(c, b) == want, (i, c, b)
                            else:
                                want = diameter_within(adj, full, b)
                                assert m.spans_within_diameter(c, b) == want, (i, c, b)


class CountingRows(Sequence):
    """Adjacency rows that count how often the BFS reads one."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.rows[i]

    def __len__(self):
        return len(self.rows)


def test_bfs_stops_once_mask_is_reached():
    # On K_n the first level reaches every vertex; a further level would
    # expand all n - 1 of them to find nothing.
    n = 12
    full = (1 << n) - 1
    adj = CountingRows(constant_colouring(n, 1).adj_rows(1))
    assert bfs_reach(adj, 1, within=full) == (1, full)
    assert adj.reads == 1
    adj.reads = 0
    assert diameter_of_mask(adj, full) == 1
    assert adj.reads == n
    adj.reads = 0
    assert bfs_distances(adj, n, 0) == [0] + [1] * (n - 1)
    assert adj.reads == 1


def test_diameter_within_stops_its_first_bfs_at_the_bound():
    # Colour 1 of two_paths is the path 0..599.  The first BFS, from its
    # end, expands one vertex a level and is capped at 160 levels, where
    # without the cap it would walk all 599 before answering.
    col = two_paths(600, seed=1)
    full = (1 << col.n) - 1
    adj = CountingRows(col.adj_rows(1))
    before = graphs.BFS_RUNS
    assert not diameter_within(adj, full, 160)
    assert graphs.BFS_RUNS - before == 1
    assert adj.reads <= 160


def test_dense_part_diameter_reads_few_rows():
    # A BFS in this diameter-2 part reaches the rest of the part in its
    # second level, which without the in-level stop reads the rows of the
    # whole first level: at least 1 + (least degree) rows per BFS.  The
    # stop leaves the runs as they are and the reads under a third.
    col = random_uniform(400, 4, seed=5)
    cover, trace = solve4(col)
    assert trace.branch == BRANCH_SINGLE_COLOUR
    (part,) = cover.parts
    rows, full = col.adj_rows(part.colour), (1 << col.n) - 1
    least = min((row & full).bit_count() for row in rows)
    adj = CountingRows(rows)
    before = graphs.BFS_RUNS
    assert diameter_of_mask(adj, full) == 2
    runs = graphs.BFS_RUNS - before
    assert runs == 276
    assert 3 * adj.reads < runs * (1 + least)


def reference_bfs(adj, n, start_mask, within, radius):
    """Queue BFS over vertex lists, independent of the bitmask kernel:
    ``((levels, reached), dist, fringes)`` as :func:`bfs_reach` reports
    them, ``dist`` -1 outside the vertices reached beyond the start."""
    allowed = set(range(n)) if within is None else set(iter_bits(within))
    level = {v: 0 for v in iter_bits(start_mask)}
    queue = deque(level)
    while queue:
        u = queue.popleft()
        if level[u] == radius:
            continue
        for v in range(n):
            if adj[u] >> v & 1 and v in allowed and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    levels = max(level.values(), default=0)
    dist = [-1] * n
    fringes = [0] * levels
    for v, d in level.items():
        if d:
            dist[v] = d
            fringes[d - 1] |= 1 << v
    return (levels, mask_of(level)), dist, fringes


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 0.9), st.integers(0, 2**32),
       st.data())
def test_bfs_reach_matches_reference_bfs(n, density, seed, data):
    rnd = random.Random(seed)
    adj = [0] * n
    for u, v in combinations(range(n), 2):
        if rnd.random() < density:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    full = (1 << n) - 1
    start = data.draw(st.integers(0, full))
    within = data.draw(st.none() | st.just(full) | st.integers(0, full))
    radius = data.draw(st.none() | st.integers(0, n))
    fringes = []
    got = bfs_reach(adj, start, within=within, radius=radius, fringes=fringes)
    dist = [-1] * n
    for d, level in enumerate(fringes, 1):
        for v in iter_bits(level):
            dist[v] = d
    assert (got, dist, fringes) == reference_bfs(adj, n, start, within, radius)


def test_bfs_distances_restricted_mask():
    col = constant_colouring(5, 1)
    adj = col.adj_rows(1)
    d = bfs_distances(adj, 5, 0, within=0b00111)
    assert d[:3] == [0, 1, 1] and d[3] == -1 and d[4] == -1


# -- file format ----------------------------------------------------------


def test_colouring_file_roundtrip():
    for seed in range(5):
        col = random_colouring(6, 4, seed=seed)
        text = format_colouring(col)
        back = parse_colouring(text)
        assert format_colouring(back) == text
        assert back.k == col.k and back.n == col.n


def test_colouring_file_missing_edges_and_comments():
    text = """
    # a near-complete host
    3 2
    0 1 -
    0 2 1

    1 2 2
    """
    col = parse_colouring(text)
    assert not col.has_edge(0, 1)
    assert col.colour_of(1, 2) == 2
    assert col.host.classes == ((0, 1), (2,))


def test_colouring_file_rejects_duplicates_and_gaps():
    with pytest.raises(ValueError):
        parse_colouring("3 2\n0 1 1\n0 1 2\n0 2 1\n1 2 1\n")
    with pytest.raises(ValueError):
        parse_colouring("3 2\n0 1 1\n0 2 1\n")
    with pytest.raises(ValueError):
        parse_colouring("3 2\n0 1 9\n0 2 1\n1 2 1\n")
    with pytest.raises(ValueError, match=r"duplicate pair \(0,1\)"):
        parse_colouring("3 2\n0 1 1\n1 0 2\n0 2 1\n")


def test_colouring_parser_memory_bounded_by_input():
    # A header asking for n = 100000 must fail on the pair count before
    # anything of size n*n (10^10 bytes) is allocated.
    for text in ("100000 4\n0 1 1\n", "100000 4\n", "2 1000000000\n0 1 1\n",
                 "3 2\n0 1 1\n0 2 1\n1 2 " + "9" * 100_000 + "\n"):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                parse_colouring(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (text[:20], peak)


# -- colouring parser properties ---------------------------------------


def reference_colouring_state(host, k, mat):
    """(k, rows, adj, missing, classes) of the colouring with colour matrix
    ``mat`` (lists of ints), checked and built pair by pair, apart from
    EdgeColouring.from_matrix.  Raises ValueError where it must reject."""
    n = host.n
    if k < 1:
        raise ValueError("need at least one colour")
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError("malformed colour matrix")
    for u in range(n):
        if mat[u][u] != 0:
            raise ValueError("diagonal entries must be uncoloured")
        for v in range(u + 1, n):
            c = mat[u][v]
            if c != mat[v][u]:
                raise ValueError("colour matrix must be symmetric")
            if (u, v) in host.missing:
                if c != 0:
                    raise ValueError(f"missing pair ({u},{v}) must not be coloured")
            elif not 1 <= c <= k:
                raise ValueError(f"pair ({u},{v}) needs a colour in 1..{k}")
    adj = [[0] * n for _ in range(k + 1)]
    for u in range(n):
        for v in range(u + 1, n):
            c = mat[u][v]
            if c:
                adj[c][u] |= 1 << v
                adj[c][v] |= 1 << u
    return k, [bytes(row) for row in mat], adj, host.missing, host.classes


def reference_parse_colouring(text):
    """Line-by-line reading of the format, independent of the numpy parser;
    returns the state of ``reference_colouring_state``."""
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
    missing, seen = [], set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line: {line!r}")
        u, v = sorted((int(parts[0]), int(parts[1])))
        if u == v or not (0 <= u and v < n):
            raise ValueError(f"bad pair ({u},{v})")
        if (u, v) in seen:
            raise ValueError(f"duplicate pair ({u},{v})")
        seen.add((u, v))
        if parts[2] == "-":
            missing.append((u, v))
        else:
            c = int(parts[2])
            if not 1 <= c <= k:
                raise ValueError(f"colour {c} out of range")
            mat[u][v] = mat[v][u] = c
    if len(seen) != n * (n - 1) // 2:
        raise ValueError("every unordered pair must appear exactly once")
    host = HostGraph(n, missing)
    inferred = host.infer_classes()
    if inferred is not None and missing:
        host = HostGraph(n, missing, classes=inferred)
    return reference_colouring_state(host, k, [list(row) for row in mat])


def parsed_state(col):
    return col.k, col._rows, col._adj, col.host.missing, col.host.classes


def assert_same_outcome(text):
    """Both parsers accept ``text`` with equal results, or both reject it."""
    outcomes = []
    for parse in (lambda t: parsed_state(parse_colouring(t)), reference_parse_colouring):
        try:
            outcomes.append(parse(text))
        except ValueError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1], text
    return outcomes[0]


@st.composite
def coloured_hosts(draw, min_n=1):
    """(host, k, colour of each present pair) for a random colouring of a
    complete, complete multipartite or complete-minus-pairs host."""
    kind = draw(st.sampled_from(["complete", "multipartite", "minus-pairs"]))
    if kind == "multipartite":
        host = HostGraph.multipartite(
            draw(st.lists(st.integers(1, 3), min_size=max(1, min_n - 2), max_size=4)
                 .filter(lambda sizes: sum(sizes) >= min_n)))
    else:
        n = draw(st.integers(min_n, 8))
        missing = []
        if kind == "minus-pairs" and n > 1:
            missing = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                                    unique=True))
        host = HostGraph(n, missing)
    k = draw(st.integers(1, 5))
    present = [p for p in combinations(range(host.n), 2) if p not in host.missing]
    colours = draw(st.lists(st.integers(1, k), min_size=len(present),
                            max_size=len(present)))
    return host, k, dict(zip(present, colours))


@st.composite
def colouring_texts(draw, min_n=1):
    """File text of a colouring drawn by ``coloured_hosts``."""
    return format_colouring(EdgeColouring.from_pairs(*draw(coloured_hosts(min_n))))


MATRIX_FLAWS = [None, "asymmetric", "diagonal", "colour-0", "colour-k+1",
                "missing-coloured"]


@settings(max_examples=200, deadline=None)
@given(coloured_hosts(), st.sampled_from(MATRIX_FLAWS), st.data())
def test_from_matrix_matches_reference_build(drawn, flaw, data):
    # from_matrix against the pair-by-pair checks and adjacency build: equal
    # rows and adjacency on valid matrices, and both reject a flawed one.
    host, k, colour = drawn
    n = host.n
    mat = [[0] * n for _ in range(n)]
    for (u, v), c in colour.items():
        mat[u][v] = mat[v][u] = c
    if flaw is not None:
        if flaw == "asymmetric":
            assume(n > 1)
            u, v = data.draw(st.sampled_from(list(permutations(range(n), 2))))
            mat[u][v] = mat[v][u] % (k + 1) + 1
        elif flaw == "diagonal":
            v = data.draw(st.integers(0, n - 1))
            mat[v][v] = data.draw(st.integers(1, k))
        else:
            pool = sorted(host.missing if flaw == "missing-coloured" else colour)
            assume(pool)
            u, v = data.draw(st.sampled_from(pool))
            mat[u][v] = mat[v][u] = {"colour-0": 0, "colour-k+1": k + 1}.get(flaw, 1)
    try:
        expect = reference_colouring_state(host, k, mat)
    except ValueError:
        expect = None
    assert (expect is None) == (flaw is not None)
    try:
        got = parsed_state(EdgeColouring.from_matrix(host, k, np.array(mat, dtype=np.uint8)))
    except ValueError:
        got = None
    assert got == expect


@pytest.mark.parametrize("host", [HostGraph.complete(1), HostGraph.complete(4),
                                  HostGraph.multipartite([2, 1, 2]),
                                  HostGraph(4, [(0, 1), (1, 2)])])
def test_from_matrix_rejects_bad_arrays_and_builds_one_vertex(host):
    n = host.n
    for bad in (np.zeros((n, n + 1), np.uint8), np.zeros((n, n), np.int64),
                np.zeros((1, n, n), np.uint8)):
        with pytest.raises(ValueError, match="uint8"):
            EdgeColouring.from_matrix(host, 3, bad)
    with pytest.raises(ValueError, match="need at least one colour"):
        EdgeColouring.from_matrix(host, 0, np.zeros((n, n), np.uint8))
    if n == 1:
        col = EdgeColouring.from_matrix(host, 2, np.zeros((1, 1), np.uint8))
        assert parsed_state(col) == parsed_state(EdgeColouring.from_pairs(host, 2, {}))
        with pytest.raises(ValueError, match="diagonal"):
            EdgeColouring.from_matrix(host, 2, np.ones((1, 1), np.uint8))


def test_colour_count_is_limited_to_a_byte():
    # A colouring that could be written could not be read back at k > 255.
    host = HostGraph.complete(2)
    with pytest.raises(ValueError, match="^k = 300 exceeds the 255 colours a byte can hold$"):
        EdgeColouring.from_pairs(host, 300, {(0, 1): 1})
    with pytest.raises(ValueError, match="^k = 300 exceeds the 255 colours a byte can hold$"):
        parse_colouring("2 300\n0 1 1\n")
    col = EdgeColouring.from_pairs(host, 255, {(0, 1): 255})
    text = format_colouring(col)
    assert text == "2 255\n0 1 255\n"
    assert parsed_state(parse_colouring(text)) == parsed_state(col)


@settings(max_examples=150, deadline=None)
@given(colouring_texts())
def test_colouring_parser_roundtrip(text):
    assert format_colouring(parse_colouring(text)) == text
    assert assert_same_outcome(text) is not None


@settings(max_examples=150, deadline=None)
@given(colouring_texts(), st.data())
def test_colouring_parser_ignores_layout(text, data):
    seps = st.sampled_from([" ", "\t", "  ", " \t "])
    comments = st.sampled_from(["", " # note", "#0 1 2", "\t# \u00e9 \u221e #"])
    out = []
    for line in text.splitlines():
        if data.draw(st.booleans()):
            out.append(data.draw(st.sampled_from(["", "   ", "# comment", "\t#"])))
        lead = data.draw(st.sampled_from(["", " ", "\t"]))
        out.append(lead + data.draw(seps).join(line.split()) + data.draw(comments))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    noisy = eol.join(out) + data.draw(st.sampled_from(["", eol]))
    assert assert_same_outcome(noisy) == parsed_state(parse_colouring(text))


MUTATIONS = ["drop", "duplicate", "move-pair", "colour-0", "colour-k+1",
             "non-digit", "extra-token", "missing-token", "dash-number",
             "loop", "vertex-n"]


@settings(max_examples=300, deadline=None)
@given(colouring_texts(min_n=3), st.sampled_from(MUTATIONS), st.data())
def test_colouring_parser_rejects_mutations(text, mutation, data):
    lines = text.splitlines()
    k = int(lines[0].split()[1])
    i = data.draw(st.integers(1, len(lines) - 1), label="line")
    fields = lines[i].split()
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(data.draw(st.integers(1, len(lines))), lines[i])
    elif mutation == "move-pair":
        j = data.draw(st.integers(1, len(lines) - 1).filter(lambda j: j != i))
        u, v = lines[j].split()[:2]
        if data.draw(st.booleans()):
            u, v = v, u
        lines[i] = f"{u} {v} {fields[2]}"
    elif mutation in ("colour-0", "colour-k+1"):
        lines[i] = f"{fields[0]} {fields[1]} {0 if mutation == 'colour-0' else k + 1}"
    elif mutation == "non-digit":
        i = data.draw(st.integers(0, len(lines) - 1), label="any line")
        fields = lines[i].split()
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
            st.sampled_from(["x", "1.0", "0x1", "1e2", "--", "-1", "1-", "\x00"]))
        lines[i] = " ".join(fields)
    elif mutation == "extra-token":
        i = data.draw(st.integers(0, len(lines) - 1), label="any line")
        lines[i] += " " + data.draw(st.sampled_from(["1", "-", "0"]))
    elif mutation == "missing-token":
        i = data.draw(st.integers(0, len(lines) - 1), label="any line")
        lines[i] = " ".join(lines[i].split()[:-1])
    elif mutation == "loop":
        lines[i] = f"{fields[0]} {fields[0]} {fields[2]}"
    elif mutation == "vertex-n":
        fields[data.draw(st.integers(0, 1))] = lines[0].split()[0]
        lines[i] = " ".join(fields)
    else:
        # a vertex column, or n or k on the header
        i = data.draw(st.integers(0, len(lines) - 1), label="any line")
        fields = lines[i].split()
        fields[data.draw(st.integers(0, 1))] = "-"
        lines[i] = " ".join(fields)
    bad = "\n".join(lines) + "\n"
    with pytest.raises(ValueError):
        parse_colouring(bad)
    assert_same_outcome(bad)


def chunked_lines(n, seed):
    """Lines, each with its break, of a noisy file of a random 4-colouring
    of K_n several parser chunks long, and the pairs given a `-` colour.

    A comment block longer than one chunk comes first, so the header is in
    a later chunk.  Pair lines carry tabs, comments, blank lines, CRLF and
    \\x1c breaks; the nearest pair line on each side of each chunk cut has
    `-` for its colour.  The last line is the pair (n-2, n-1)."""
    rng = random.Random(seed)
    lines = ["# " + "padding " * 8 + "\n"] * (graphs._CHUNK // 60) + [f"{n} 4\r\n"]
    pos = sum(map(len, lines))
    colour_at, where = [], []  # per pair: text offset; line index and column
    for u, v in combinations(range(n), 2):
        body = (rng.choice(["", " ", "\t"]) + f"{u}" + rng.choice([" ", "\t", " \t "])
                + f"{v}" + rng.choice([" ", "\t"]))
        colour_at.append(pos + len(body))
        where.append((len(lines), len(body)))
        line = body + f"{rng.randint(1, 4)}" + rng.choice(["", " # 0 1 2", "\t#"])
        lines.append(line + rng.choice(["\n", "\r\n", "\x1c"]))
        pos += len(lines[-1])
        if rng.random() < 0.05 and (u, v) != (n - 2, n - 1):
            lines.append(rng.choice(["\n", "\t# note\r\n", "  \x1c"]))
            pos += len(lines[-1])
    lines[-1] = lines[-1].rstrip("\x1c\r\n") + "\n"
    # the cuts parse_colouring makes: after the last line break of each
    # block of _CHUNK characters (bytes too, as the text is ASCII), but
    # not at the text's own end
    text, cuts = "".join(lines), []
    for start in range(0, len(text) - 1, graphs._CHUNK):
        block = text[start:min(start + graphs._CHUNK, len(text) - 1)]
        cuts.append(start + max(map(block.rfind, "\n\r\x1c")))
    pairs = list(combinations(range(n), 2))
    dashed = set()
    for cut in cuts:
        i = bisect.bisect(colour_at, cut)
        for j in (i - 1, i):
            if 0 <= j < len(pairs):
                # each colour is one digit, so a '-' moves no cut
                dashed.add(pairs[j])
                k, col = where[j]
                lines[k] = lines[k][:col] + "-" + lines[k][col + 1:]
    return lines, dashed


def test_colouring_parser_across_chunks():
    # The chunked parser against the line-by-line reference on a text of
    # several chunks, with layout noise and '-' colours at the cuts.
    lines, dashed = chunked_lines(300, 1)
    text = "".join(lines)
    assert len(text) > 3 * graphs._CHUNK
    assert text.index("300 4") > text.find("\n", graphs._CHUNK)
    assert len(dashed) >= 5
    state = assert_same_outcome(text)
    assert state is not None and state[3] == dashed


def test_colouring_parser_rejects_mutations_in_the_last_chunk():
    # Each MUTATIONS kind, made on the last line of a text several chunks
    # long, is caught with the message it gets in a one-chunk text.
    lines, _ = chunked_lines(300, 2)
    u, v, c = lines[-1].split("#")[0].split()
    body, m = lines[:-1], 300 * 299 // 2
    count = "every unordered pair must appear exactly once: {} pair lines for n = 300"
    cases = {
        "drop": (body, count.format(m - 1)),
        "duplicate": (lines + lines[-1:], count.format(m + 1)),
        "move-pair": (body + [f"0 1 {c}\n"], "duplicate pair (0,1)"),
        "colour-0": (body + [f"{u} {v} 0\n"], f"colour 0 out of range on pair ({u},{v})"),
        "colour-k+1": (body + [f"{u} {v} 5\n"], f"colour 5 out of range on pair ({u},{v})"),
        "non-digit": (body + [f"{u} {v} x\n"], f"bad token 'x' in line: '{u} {v} x'"),
        "extra-token": (body + [f"{u} {v} {c} 1\n"], f"bad edge line: '{u} {v} {c} 1'"),
        "missing-token": (body + [f"{u} {v}\n"], f"bad edge line: '{u} {v}'"),
        "dash-number": (body + [f"{u} - {c}\n"], f"bad token '-' in line: '{u} - {c}'"),
        "loop": (body + [f"{u} {u} {c}\n"], f"bad pair ({u},{u})"),
        "vertex-n": (body + [f"{u} 300 {c}\n"], f"bad pair ({u},300)"),
    }
    assert sorted(cases) == sorted(MUTATIONS)
    for mutation, (mutated, message) in cases.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_colouring("".join(mutated))


def test_colouring_parser_reads_a_file_as_its_text(tmp_path):
    # An open file, binary or text, is read a block at a time and cut where
    # its text as a str is, with '-' colours next to each cut; a binary
    # file, as the CLI reads it, and a text file read with newlines
    # translated give the same colouring too.
    lines, dashed = chunked_lines(300, 3)
    text = "".join(lines)
    path = tmp_path / "c.col"
    path.write_text(text, encoding="utf-8", newline="")
    pieces = list(graphs._pieces(text))
    with open(path, "rb") as fh:
        assert list(graphs._pieces(fh)) == pieces
    with open(path, encoding="utf-8", newline="\n") as fh:
        assert list(graphs._pieces(fh)) == pieces
    want = assert_same_outcome(text)
    assert want is not None and want[3] == dashed
    with open(path, "rb") as fh:
        assert parsed_state(parse_colouring(fh)) == want
    for newline in ("\n", None):
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert parsed_state(parse_colouring(fh)) == want


@pytest.mark.parametrize("faults", [("9", "x"), ("1 1", "x")],
                         ids=["colour-then-token", "width-then-token"])
def test_cli_and_str_name_the_same_of_two_faults(tmp_path, capsys, faults):
    # Faults in two chunks of a file several chunks long: `monocover
    # verify` reports the one that parse_colouring(text) reports.
    from monocover.cli import main
    lines, _ = chunked_lines(300, 4)
    pair_lines = [i for i, line in enumerate(lines)
                  if len(line.split("#")[0].split()) == 3]
    picked = [pair_lines[len(pair_lines) // 10], pair_lines[-10]]
    for i, fault in zip(picked, faults):
        u, v, _ = lines[i].split("#")[0].split()
        lines[i] = f"{u} {v} {fault}\n"
    text = "".join(lines)
    ends = np.cumsum([len(p) for _, p in graphs._pieces(text)])
    at = [int(np.searchsorted(ends, sum(map(len, lines[:i])), side="right"))
          for i in picked]
    assert at[0] < at[1]
    with pytest.raises(ValueError) as exc:
        parse_colouring(text)
    col_path, cov_path = tmp_path / "c.col", tmp_path / "c.cov"
    col_path.write_text(text, encoding="utf-8", newline="")
    cov_path.write_text("parts=1 bound=1\n1: 0 1\n")
    assert main(["verify", str(col_path), str(cov_path)]) == 4
    assert capsys.readouterr().err == f"monocover: error: {exc.value}\n"


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e"],
                         ids=["lf", "cr", "crlf", "vt", "ff", "fs", "gs", "rs"])
def test_every_line_break_is_read_in_bounded_pieces(tmp_path, brk):
    # A file several blocks long whose lines end in any one of README's
    # breaks, each after an empty comment, is cut at them, into pieces of
    # at most a block and a line, and parses from a binary file, a text
    # file and a str as its '\n' twin does.
    twin = format_colouring(random_uniform(400, 4, 5))
    text = twin.replace("\n", " #" + brk)
    assert len(text) > 2 * graphs._CHUNK
    longest = max(map(len, text.splitlines(keepends=True)))
    want = parsed_state(parse_colouring(twin))
    path = tmp_path / "c.col"
    path.write_text(text, encoding="utf-8", newline="")
    with open(path, "rb") as binary, open(path, encoding="utf-8", newline="") as textual:
        for source in (binary, textual, text):
            pieces = [piece for _, piece in graphs._pieces(source)]
            assert len(pieces) > 2
            assert max(map(len, pieces)) <= graphs._CHUNK + longest
            if source is not text:
                source.seek(0)
            assert parsed_state(parse_colouring(source)) == want


def test_line_breaks_are_the_bytes_the_tokenizer_breaks_lines_at():
    # Between a header and a pair line, exactly the bytes of _LINE_BREAKS,
    # where the reader cuts, end a line.
    ends = set()
    for b in range(256):
        try:
            parse_colouring(io.BytesIO(b"2 1" + bytes([b]) + b"0 1 1\n"))
        except ValueError:
            continue
        ends.add(b)
    assert ends == set(graphs._LINE_BREAKS)


def test_colouring_parser_peak_is_at_most_four_times_the_text():
    text = format_colouring(random_uniform(800, 4, 1))
    tracemalloc.start()
    try:
        parse_colouring(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text), peak / len(text)


def test_colouring_parser_accepts_ascii_digits_only():
    # Narrower than int(): the reference reader takes these tokens.
    base = "2 40\n0 1 {}\n"
    assert parse_colouring(base.format("0003")).colour_of(0, 1) == 3
    with pytest.raises(ValueError):  # 2**64 + 3 must not wrap round to 3
        parse_colouring(base.format(2**64 + 3))
    with pytest.raises(ValueError):  # '-' stands only for a colour
        parse_colouring("2 -\n0 1 1\n")
    for token in ("+3", "3_0", "\u0663", "\uff13"):
        assert reference_parse_colouring(base.format(token))[1][0][1] in (3, 30)
        with pytest.raises(ValueError):
            parse_colouring(base.format(token))


@pytest.mark.parametrize("text, message", [
    ("", "empty colouring file"),
    ("# only a comment\n", "empty colouring file"),
    ("0 4\n", "n and k must be positive"),
    ("3 0\n0 1 1\n0 2 1\n1 2 1\n", "n and k must be positive"),
    ("3 2\n0 1 1\n1 1 2\n1 2 1\n", "bad pair (1,1)"),
    ("3 2\n0 1 1\n0 3 1\n1 2 1\n", "bad pair (0,3)"),
])
def test_colouring_parser_rejects_empty_files_headers_and_pairs(text, message):
    for parse in (parse_colouring, reference_parse_colouring):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse(text)
