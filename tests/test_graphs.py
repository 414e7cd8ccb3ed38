"""Graph core: components, balls, set diameters, metric laws, file format."""

import math
import random
import tracemalloc
from collections.abc import Sequence
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_colouring, random_colouring
from monocover.generators import two_paths
from monocover.graphs import (DISCONNECTED, EdgeColouring, HostGraph,
                              MonoMetrics, bfs_distances, bfs_reach,
                              diameter_of_mask, diameter_within,
                              format_colouring, mask_of, mono_ball,
                              mono_components, parse_colouring, set_diameter)


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
    with pytest.raises(ValueError):
        EdgeColouring.from_pairs(host, 2, {(0, 1): 1, (0, 2): 1})  # absent pair
    with pytest.raises(ValueError):
        EdgeColouring.from_pairs(host, 2, {(0, 1): 3, (0, 2): 1, (1, 2): 1})
    col = EdgeColouring.from_pairs(host, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    assert col.colour_of(1, 0) == 1
    assert col.colours_at(0) == {1, 2}
    with pytest.raises(ValueError):
        col.colour_of(1, 1)


def test_missing_edges_have_no_colour():
    host = HostGraph(3, missing=[(0, 1)])
    col = EdgeColouring.from_pairs(host, 2, {(0, 2): 1, (1, 2): 2})
    assert not col.has_edge(0, 1)
    with pytest.raises(ValueError):
        col.colour_of(0, 1)


def test_colour_permutation():
    col = random_colouring(6, 3, seed=5)
    perm = {1: 3, 2: 1, 3: 2}
    swapped = col.with_colours_permuted(perm)
    for u, v, c in col.edges():
        assert swapped.colour_of(u, v) == perm[c]


def test_recoloured_changes_named_pairs_only():
    col = constant_colouring(4, 1, k=2)
    out = col.recoloured({(0, 1): 2, (2, 3): 2})
    assert out.colour_of(0, 1) == 2
    assert out.colour_of(0, 2) == 1


# -- components -----------------------------------------------------------


def test_components_monochromatic_triangle():
    col = constant_colouring(3, 1, k=2)
    assert mono_components(col, 1) == [[0, 1, 2]]
    assert mono_components(col, 2) == [[0], [1], [2]]


def test_components_colour_out_of_range():
    col = constant_colouring(3, 1, k=2)
    with pytest.raises(ValueError):
        mono_components(col, 3)


def test_components_match_union_find_oracle():
    for seed in range(30):
        col = random_colouring(6, 2, seed=seed)
        assert mono_components(col, 1) == components_by_union_find(col, 1)
        assert mono_components(col, 2) == components_by_union_find(col, 2)


def test_component_ids_ordinal_by_lowest_vertex():
    host = HostGraph.complete(4)
    col = EdgeColouring.from_pairs(host, 2, {
        (0, 1): 2, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 1, (2, 3): 2})
    m = MonoMetrics(col)
    # colour-1 components: {0,2} and {1,3}
    assert m.component_id(1, 0) == 1
    assert m.component_id(1, 2) == 1
    assert m.component_id(1, 1) == 2


# -- balls ----------------------------------------------------------------


def test_ball_radius_zero_is_centre():
    col = random_colouring(5, 3, seed=2)
    m = MonoMetrics(col)
    for v in range(5):
        assert mono_ball(m, 2, v, 0) == {v}


def test_ball_star_of_colour_one():
    col = constant_colouring(4, 1, k=2)
    m = MonoMetrics(col)
    assert mono_ball(m, 1, 2, 1) == {0, 1, 2, 3}


def test_ball_on_embedded_path():
    # colour-1 path 0-1-2-3 inside K4, everything else colour 2
    host = HostGraph.complete(4)
    path = {(0, 1), (1, 2), (2, 3)}
    col = EdgeColouring.build(host, 2, lambda u, v: 1 if (u, v) in path else 2)
    m = MonoMetrics(col)
    assert mono_ball(m, 1, 0, 2) == {0, 1, 2}
    assert mono_ball(m, 1, 0, 3) == {0, 1, 2, 3}


def test_ball_with_full_radius_is_component():
    for seed in range(10):
        col = random_colouring(7, 3, seed=seed)
        m = MonoMetrics(col)
        for c in (1, 2, 3):
            for v in range(7):
                comp = next(cc for cc in m.components(c) if v in cc)
                assert sorted(mono_ball(m, c, v, 7)) == comp


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
    # Colour 1 of two_paths is the path 0..39: from its end, the first BFS
    # exits early for bounds below 39 and straddles (39 <= b < 78) above.
    # Colour 2 on these vertices is the path 30..38, 1..9, whose lowest
    # vertex 1 sits in the middle (eccentricity 5, diameter 9): bounds
    # 5..8 stop the all-sources sweep at its first eccentricity above b.
    path = two_paths(40, rng.randint(0, 10**6))
    cases.append((path, 1, range(40)))
    cases.append((path, 2, [30, 32, 34, 36, 38, 1, 3, 5, 7, 9]))
    for col, c, verts in cases:
        fw = floyd_warshall_induced(col, c, verts)
        assert set_diameter(col, c, verts) == fw
        adj, mask = col.adj_rows(c), mask_of(verts)
        for b in range(col.n + 2):
            assert diameter_within(adj, mask, b) == (fw is not DISCONNECTED and fw <= b)


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
                same = m.component_id(c, u) == m.component_id(c, v)
                assert (m.dist(c, u, v) < math.inf) == same


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


def reference_parse_colouring(text):
    """Line-by-line reading of the format, independent of the numpy parser."""
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
    return EdgeColouring(host, k, [bytes(r) for r in mat])


def parsed_state(col):
    return col.k, col._rows, col._adj, col.host.missing, col.host.classes


def assert_same_outcome(text):
    """Both parsers accept ``text`` with equal results, or both reject it."""
    outcomes = []
    for parse in (parse_colouring, reference_parse_colouring):
        try:
            outcomes.append(parsed_state(parse(text)))
        except ValueError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1], text
    return outcomes[0]


@st.composite
def colouring_texts(draw, min_n=1):
    """File text of a random colouring of a complete, complete multipartite
    or complete-minus-pairs host."""
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
    return format_colouring(EdgeColouring.from_pairs(host, k, dict(zip(present, colours))))


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
             "non-digit", "extra-token", "missing-token", "dash-number"]


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


def test_colouring_parser_accepts_ascii_digits_only():
    # Narrower than int(): the reference reader takes these tokens.
    base = "2 40\n0 1 {}\n"
    assert parse_colouring(base.format("0003")).colour_of(0, 1) == 3
    with pytest.raises(ValueError):  # 2**64 + 3 must not wrap round to 3
        parse_colouring(base.format(2**64 + 3))
    with pytest.raises(ValueError):  # '-' stands only for a colour
        parse_colouring("2 -\n0 1 1\n")
    for token in ("+3", "3_0", "\u0663", "\uff13"):
        assert reference_parse_colouring(base.format(token)).colour_of(0, 1) in (3, 30)
        with pytest.raises(ValueError):
            parse_colouring(base.format(token))
