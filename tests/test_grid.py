"""Grid product graph geometry: classifiers, covers, search, converters."""

import hashlib
import random
from itertools import combinations, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blocks_colouring, constant_colouring, random_colouring, rejects
from monocover import grid
from monocover.errors import ImpossibleByLemmaError
from monocover.generators import layered_adversarial, random_uniform, relabelled
from monocover.graphs import EdgeColouring, HostGraph, iter_bits
from monocover.grid import (Coplanar5, GridCoverPart, GridPointSet, SearchResult,
                            Struct1, Struct2, Struct3, ThreeLines,
                            bounded_degree_search, classify_independent4,
                            classify_independent5, colouring_from_points,
                            cover_G3, exists_two_part_cover, format_points,
                            grid_adjacent, parse_points, points_from_colouring,
                            signature_fibres, verify_grid_cover, _g3_components)
from monocover.solver import BRANCH_SMALL_DIAM, solve4

SHARPNESS_X = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
               (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def independent(pts):
    return all(not grid_adjacent(x, y) for x, y in combinations(pts, 2))


def recheck4(pts, res):
    pts = set(pts)
    if isinstance(res, Struct1):
        assert all(p[res.axis] == res.value for p in pts)
        return
    if isinstance(res, Struct2):
        (a, b, c), q1, q2, q3 = res.roles
        ap, bp, cp = q1[0], q1[1], q2[2]
        assert {a != ap, b != bp, c != cp} == {True}
        assert q1 == (ap, bp, c) and q2 == (ap, b, cp) and q3 == (a, bp, cp)
        assert set(res.roles) == pts
        return
    assert isinstance(res, Struct3)
    view = [tuple(p[i] for i in res.axes) for p in res.roles]
    (a, b, c), r1, r2, r3 = view
    assert r1 == (a, b, r1[2]) and r1[2] != c
    assert r2[0] == a and r2[1] != b
    assert r3[1] == b and r3[0] != a and r3[2] == r2[2]
    assert set(res.roles) == pts


def recheck5(pts, res):
    pts = set(pts)
    if isinstance(res, Coplanar5):
        assert all(p[res.axis] == res.value for p in pts)
        return
    assert isinstance(res, ThreeLines)
    for p in pts:
        agree = [i for i in range(3) if p[i] == res.apex[i]]
        assert len(agree) >= 2
        assert res.line_axis[p] in range(3)


# -- adjacency --------------------------------------------------------------


def test_adjacency_examples():
    assert grid_adjacent((0, 0, 0), (1, 1, 1))
    assert not grid_adjacent((0, 0, 0), (1, 1, 0))
    with pytest.raises(ValueError):
        grid_adjacent((0, 0), (0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_adjacency_matches_loop_oracle(l, data):
    x = tuple(data.draw(st.integers(0, 3)) for _ in range(l))
    y = tuple(data.draw(st.integers(0, 3)) for _ in range(l))
    want = True
    for i in range(l):
        if x[i] == y[i]:
            want = False
    assert grid_adjacent(x, y) == want


# -- independent 4-sets ------------------------------------------------------


def test_classify4_known_instances():
    res = classify_independent4([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert isinstance(res, Struct2)
    recheck4([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)], res)

    flat = [(0, 1, 5), (1, 0, 5), (2, 3, 5), (3, 2, 5)]
    res = classify_independent4(flat)
    assert res == Struct1(axis=2, value=5)

    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2)]
    res = classify_independent4(pts)
    assert isinstance(res, Struct3)
    recheck4(pts, res)


def test_classify4_rejects_adjacent_points():
    with pytest.raises(ValueError):
        classify_independent4([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)])
    with pytest.raises(ValueError):
        classify_independent4([(0, 0, 0), (0, 0, 1), (0, 1, 0)])


def iter_independent_sets(grid_range, size):
    pts = list(product(grid_range, repeat=3))
    adj = {p: {q for q in pts if grid_adjacent(p, q)} for p in pts}

    def extend(chosen, start):
        if len(chosen) == size:
            yield tuple(chosen)
            return
        for i in range(start, len(pts)):
            p = pts[i]
            if all(p not in adj[q] for q in chosen):
                chosen.append(p)
                yield from extend(chosen, i + 1)
                chosen.pop()

    yield from extend([], 0)


def test_classify4_exhaustive_small_grid():
    count = 0
    for quad in iter_independent_sets(range(3), 4):
        res = classify_independent4(quad)
        recheck4(quad, res)
        count += 1
    assert count > 1000


# -- independent 5-sets ------------------------------------------------------


def test_classify5_examples():
    flat = [(0, 1, 0), (1, 0, 0), (2, 3, 0), (3, 2, 0), (4, 5, 0)]
    assert classify_independent5(flat) == Coplanar5(axis=2, value=0)

    pts = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2)]
    res = classify_independent5(pts)
    assert isinstance(res, ThreeLines)
    assert res.apex == (0, 0, 0)
    recheck5(pts, res)


def test_classify5_exhaustive_small_grid():
    count = 0
    for five in iter_independent_sets(range(3), 5):
        res = classify_independent5(five)
        recheck5(five, res)
        count += 1
    assert count > 500


# -- collinearity and coplanarity lemmas -------------------------------------


def on_one_line(pts):
    for i, j in combinations(range(3), 2):
        if len({p[i] for p in pts}) == 1 and len({p[j] for p in pts}) == 1:
            return True
    return False


def on_one_plane(pts):
    return any(len({p[i] for p in pts}) == 1 for i in range(3))


def test_pairwise_collinear_triples_lie_on_a_line():
    # exhaustive over {0..3}^3
    pts = list(product(range(4), repeat=3))
    checked = 0
    for triple in combinations(pts, 3):
        if all(on_one_line([x, y]) for x, y in combinations(triple, 2)):
            assert on_one_line(triple)
            checked += 1
    assert checked


def test_triplewise_coplanar_quadruples_lie_on_a_plane(rng):
    # exhaustive over {0..2}^3, sampled over {0..3}^3
    for quad in combinations(list(product(range(3), repeat=3)), 4):
        if all(on_one_plane(t) for t in combinations(quad, 3)):
            assert on_one_plane(quad)
    pts4 = list(product(range(4), repeat=3))
    for _ in range(4000):
        quad = rng.sample(pts4, 4)
        if all(on_one_plane(t) for t in combinations(quad, 3)):
            assert on_one_plane(quad)


# -- cover_G3 ----------------------------------------------------------------


def test_cover_few_components_returned_directly():
    ps = GridPointSet.of([(0, 0, 0), (1, 1, 1), (5, 5, 5)])
    parts = cover_G3(ps)
    assert all(p.kind == "connected" for p in parts)
    assert verify_grid_cover(ps, parts)


def test_cover_sharpness_set():
    ps = GridPointSet.of(SHARPNESS_X)
    parts = cover_G3(ps)
    assert len(parts) <= 3
    assert verify_grid_cover(ps, parts)
    assert not exists_two_part_cover(ps)


def test_two_part_cover_exists_for_easy_sets():
    ps = GridPointSet.of([(0, 0, 0), (0, 1, 2), (3, 0, 1), (1, 2, 0)])
    assert exists_two_part_cover(ps)


def test_cover_random_point_sets(rng):
    for _ in range(120):
        size = rng.randint(1, 25)
        pts = {tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(size)}
        ps = GridPointSet.of(pts)
        parts = cover_G3(ps)
        assert len(parts) <= 3
        assert verify_grid_cover(ps, parts)


def _frontier_components(pts):
    """Grid components by a frontier loop over point sets, sorted, in
    order of their least point."""
    left = set(pts)
    comps = []
    for p in sorted(left):
        if p in left:
            comp = frontier = {p}
            left.discard(p)
            while frontier:
                frontier = {q for q in left if any(grid_adjacent(q, r) for r in frontier)}
                left -= frontier
                comp = comp | frontier
            comps.append(sorted(comp))
    return comps


def test_g3_components_match_a_frontier_loop(rng):
    assert _g3_components([]) == []
    for _ in range(200):
        arity = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 3) for _ in range(arity))
               for _ in range(rng.randint(1, 20))]
        assert _g3_components(pts) == _frontier_components(pts)


def test_cover_many_singleton_components(rng):
    # concurrent-lines style inputs: isolated points on three axis lines
    apex = (2, 2, 2)
    pts = [(2, 2, 5), (2, 2, 7), (2, 6, 2), (2, 9, 2), (4, 2, 2), (8, 2, 2)]
    ps = GridPointSet.of(pts)
    parts = cover_G3(ps)
    assert verify_grid_cover(ps, parts)
    assert len(parts) <= 3


def test_cover_four_singletons():
    # The even-weight corners of the unit cube: four isolated points, no
    # three on one plane, but two parallel planes hold them all.
    ps = GridPointSet.of([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert cover_G3(ps) == [
        GridCoverPart("hyperplane", frozenset({(0, 0, 0), (0, 1, 1)}), 0, 0),
        GridCoverPart("hyperplane", frozenset({(1, 1, 0), (1, 0, 1)}), 0, 1)]


def _fewest_parts(pts):
    """The least number of whole components and whole plane slices whose
    union is ``pts``; any cover widens to one of these with as many parts."""
    pts = set(pts)
    candidates = [set(c) for c in _g3_components(pts)]
    candidates += [{p for p in pts if p[i] == v}
                   for i in range(3) for v in {p[i] for p in pts}]
    for r in range(1, len(candidates) + 1):
        if any(set().union(*combo) == pts for combo in combinations(candidates, r)):
            return r


def test_cover_uses_the_fewest_parts(rng):
    cube2 = list(product(range(2), repeat=3))
    cube3 = list(product(range(3), repeat=3))
    sets = [[p for j, p in enumerate(cube2) if mask >> j & 1]
            for mask in range(1, 1 << len(cube2))]
    sets += [rng.sample(cube3, rng.randint(1, len(cube3))) for _ in range(300)]
    for pts in sets:
        ps = GridPointSet.of(pts)
        parts = cover_G3(ps)
        assert verify_grid_cover(ps, parts)
        assert len(parts) == _fewest_parts(pts) <= 3, pts


def test_cover_rejects_other_arity():
    with pytest.raises(ValueError):
        cover_G3(GridPointSet.of([(0, 0)]))


# -- bounded-degree search ----------------------------------------------------


def naive_longest_induced_path(l, m):
    pts = list(product(range(m), repeat=l))
    best = 1

    def extend(seq):
        nonlocal best
        if len(seq) > best:
            best = len(seq)
        last = seq[-1]
        for cand in pts:
            if cand in seq or not grid_adjacent(cand, last):
                continue
            if any(grid_adjacent(cand, p) for p in seq[:-1]):
                continue
            seq.append(cand)
            extend(seq)
            seq.pop()

    for start in pts:
        extend([start])
    return best


def check_induced_path(witness):
    for i, p in enumerate(witness):
        for j in range(i + 1, len(witness)):
            adjacent = grid_adjacent(p, witness[j])
            assert adjacent == (j == i + 1)


def test_search_one_dimension_paths_cap_at_two():
    res = bounded_degree_search(1, 2, 5, mode="path")
    assert res.size == 2 and res.complete


def test_search_matches_naive_dfs_small():
    for l, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        res = bounded_degree_search(l, 2, m, mode="path")
        assert res.complete
        check_induced_path(res.witness)
        assert res.size == naive_longest_induced_path(l, m)


def test_search_budget_flagging():
    res = bounded_degree_search(3, 2, 4, mode="path", budget=50)
    assert not res.complete
    assert res.size >= 1


def test_search_any_connected_mode():
    res = bounded_degree_search(2, 2, 3, mode="any-connected", budget=20000)
    check = res.witness
    assert res.size == len(check)
    # degrees bounded by 2 in the witness
    for p in check:
        assert sum(grid_adjacent(p, q) for q in check if q != p) <= 2


# -- equivalence converters ---------------------------------------------------


def test_colouring_from_points_examples():
    col, order = colouring_from_points(GridPointSet.of([(0, 0, 0), (1, 1, 1)]))
    assert col.k == 4 and col.colour_of(0, 1) == 4
    col, order = colouring_from_points(GridPointSet.of([(0, 0, 0), (0, 1, 1)]))
    assert col.colour_of(0, 1) == 1


def test_points_from_monochromatic_colouring():
    # all edges colour 4: colours 1..3 fall apart into singleton components,
    # so the signatures form the 5-point diagonal (a clique of G_3)
    from conftest import constant_colouring
    col = constant_colouring(5, 4, k=4)
    ps, fibres = points_from_colouring(col)
    assert ps.points == {(i, i, i) for i in range(1, 6)}
    assert all(len(f) == 1 for f in fibres.values())


def test_points_from_connected_small_colours():
    # colours 1..3 each spanning-connected: a single signature fibre
    col = random_colouring(12, 4, seed=1)
    from monocover.graphs import MonoMetrics
    m = MonoMetrics(col)
    if all(len(m.component_masks(c)) == 1 for c in (1, 2, 3)):
        ps, fibres = points_from_colouring(col)
        assert ps.points == {(1, 1, 1)}
        assert fibres[(1, 1, 1)] == frozenset(range(12))


def test_roundtrip_points_to_colouring_and_back():
    ps = GridPointSet.of(SHARPNESS_X)
    col, order = colouring_from_points(ps)
    back, fibres = points_from_colouring(col)
    # fibres are singletons and signatures are distinct per point
    assert len(back.points) == len(ps.points)
    assert all(len(f) == 1 for f in fibres.values())


def test_fibres_partition_and_cross_edges(rng):
    for _ in range(30):
        col = random_colouring(rng.randint(2, 30), 4, seed=rng.randint(0, 10**6))
        ps, fibres = points_from_colouring(col)
        everything = sorted(v for f in fibres.values() for v in f)
        assert everything == list(range(col.n))
        for x, y in combinations(sorted(ps.points), 2):
            if grid_adjacent(x, y):
                for u in fibres[x]:
                    for v in fibres[y]:
                        assert col.colour_of(u, v) == 4


def reference_signature_fibres(colouring, axes):
    """The per-vertex labelling: each vertex's signature tuple built up
    axis by axis, then its bit OR-ed into that signature's mask in vertex
    order."""
    sigs = [()] * colouring.n
    for c in axes:
        for cid, comp in enumerate(colouring.metrics.component_masks(c), start=1):
            for v in iter_bits(comp):
                sigs[v] += (cid,)
    fibres = {}
    for v, sig in enumerate(sigs):
        fibres[sig] = fibres.get(sig, 0) | 1 << v
    return fibres


def sparse_colouring(n, p, seed):
    """K_n with each of colours 1..3 on about a ``p`` share of the pairs
    and colour 4 on the rest: at n = 600 and p = 0.002, colours 1..3 have
    hundreds of components each."""
    rng = np.random.default_rng(seed)
    rare = rng.integers(1, 4, size=(n, n), dtype=np.uint8)
    mat = np.triu(np.where(rng.random((n, n)) < 3 * p, rare, np.uint8(4)), 1)
    return EdgeColouring.from_matrix(HostGraph.complete(n), 4, mat + mat.T)


def guarded(colouring, axes):
    """True iff ``signature_fibres`` labels vertex by vertex: the product
    of the axes' component counts, which bounds the fibres, exceeds n."""
    return prod(len(colouring.metrics.component_masks(c)) for c in axes) > colouring.n


def smalldiam_pinned():
    """The pinned ``layered_adversarial`` instances that close in SmallDiam;
    only the four-blocks and ladder draws (n < 60) are solved, since every
    two-paths draw (n >= 170) closes in LayerQuad."""
    return [col for col in map(layered_adversarial, range(200))
            if col.n < 60 and solve4(col)[1].branch == BRANCH_SMALL_DIAM]


def test_relabelled_copy_pinned():
    col = layered_adversarial(0)
    copy = relabelled(col, 0)
    assert copy.n == col.n == 277 and copy.k == col.k
    assert hashlib.sha256(copy.matrix().tobytes()).hexdigest() == (
        "74ff46463c47ce280c416a7dc761f6e397bda16c33f568c517d6e6ef1826ef52")
    # the same colour classes up to the colour map, and the same fibre sizes
    assert (sorted(np.bincount(copy.matrix().ravel()))
            == sorted(np.bincount(col.matrix().ravel())))
    sizes = [sorted(m.bit_count() for m in signature_fibres(c, (1, 2, 3)).values())
             for c in (col, copy)]
    assert sizes[0] == sizes[1]
    with pytest.raises(ValueError, match="complete host"):
        relabelled(EdgeColouring.from_matrix(HostGraph.multipartite([1, 2]), 1,
                                             np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]],
                                                      dtype=np.uint8)), 0)


def test_signature_fibres_match_the_per_vertex_labelling():
    cases = [blocks_colouring(n, seed) for n in (40, 100, 400) for seed in (1, 2)]
    pinned = smalldiam_pinned()
    assert len(pinned) == 52
    cases += [relabelled(col, seed) for col in pinned for seed in (0, 1, 2)]
    cases += [random_uniform(n, 4, seed) for n in (30, 200) for seed in (1, 2)]
    cases += [sparse_colouring(600, 0.002, 1), sparse_colouring(300, 0.004, 2)]
    paths = {True: 0, False: 0}
    for col in cases:
        for axes in ((1, 2, 3), (2, 4, 1)):
            paths[guarded(col, axes)] += 1
            assert (list(signature_fibres(col, axes).items())
                    == list(reference_signature_fibres(col, axes).items()))
    # the pinned copies have 8-48 vertices, and most are labelled per vertex
    assert paths[False] >= 40 and paths[True] >= 200


@pytest.mark.parametrize("k", [3, 5])
def test_points_from_colouring_match_the_per_vertex_labelling(k):
    rng = random.Random(k)
    cases = [random_colouring(rng.randint(2, 24), k, seed=rng.randint(0, 10**6))
             for _ in range(60)]
    cases += [random_colouring(n, k, seed=n) for n in (60, 120)]
    cases += [constant_colouring(n, k) for n in (3, 20)]
    paths = {True: 0, False: 0}
    for col in cases:
        axes = range(1, k)
        paths[guarded(col, axes)] += 1
        ps, fibres = points_from_colouring(col)
        want = reference_signature_fibres(col, axes)
        assert ps == GridPointSet(k - 1, frozenset(want))
        assert list(fibres.items()) == [(p, frozenset(iter_bits(m)))
                                        for p, m in want.items()]
    assert min(paths.values()) >= 5


def test_four_blocks_fibres_take_no_per_vertex_pass(monkeypatch):
    # The refinement reads whole masks; the per-vertex labelling walks the
    # bits of every component of every axis, one iter_bits call each.
    calls = []
    real = grid.iter_bits

    def counting(mask):
        calls.append(mask)
        return real(mask)

    monkeypatch.setattr(grid, "iter_bits", counting)
    col = blocks_colouring(400, 1)
    assert len(signature_fibres(col, (1, 2, 3))) == 4 and calls == []
    col = sparse_colouring(600, 0.002, 1)
    comps = sum(len(col.metrics.component_masks(c)) for c in (1, 2, 3))
    assert comps > 600 and guarded(col, (1, 2, 3))
    signature_fibres(col, (1, 2, 3))
    assert len(calls) == comps


def test_points_file_roundtrip():
    ps = GridPointSet.of(SHARPNESS_X)
    text = format_points(ps)
    assert parse_points(text) == ps
    with pytest.raises(ValueError):
        parse_points("2\n0 0 0\n")


def test_points_file_errors_quote_the_line():
    cases = [("x\n0 0\n", "bad point header 'x'"),
             ("2\n0 x\n", "bad point line '0 x'"),
             ("2\n0 0 0\n", "bad point line '0 0 0': want 2 coordinates, got 3"),
             ("2\n+1 0\n", "bad point line '\\+1 0'"),
             ("2\n1_6 0\n", "bad point line '1_6 0'"),
             ("2\n\u0663 0\n", "bad point line '\u0663 0'")]
    for text, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_points(text)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda l: st.frozensets(
    st.tuples(*[st.integers(0, 30)] * l), min_size=1, max_size=8)), st.data())
def test_points_file_roundtrip_and_mutations(points, data):
    ps = GridPointSet.of(points)
    lines = format_points(ps).splitlines()
    assert parse_points("\n".join(lines) + "\n") == ps
    commented = ["# points", lines[0] + " # arity", "  # note"] + lines[1:]
    assert parse_points("\n".join(commented)) == ps
    i = data.draw(st.integers(1, len(lines) - 1), label="point line")
    mutants = {
        "header not an integer": ["x"] + lines[1:],
        "no point lines": lines[:1],
        "coordinate not an integer": lines[:i] + [lines[i] + " x"] + lines[i + 1:],
        "point of the wrong arity": lines[:i] + [lines[i] + " 0"] + lines[i + 1:],
        "coordinate with a sign": lines[:i] + ["+" + lines[i]] + lines[i + 1:],
        "coordinate with underscores": lines[:i] + [lines[i] + "_0"] + lines[i + 1:],
        "non-ASCII digit": lines[:i] + [lines[i][:-1] + "\u0663"] + lines[i + 1:],
        "19-digit coordinate": lines[:i] + [lines[i] + "0" * 19] + lines[i + 1:],
        "header with a sign": ["+" + lines[0]] + lines[1:],
    }
    assert [what for what, mutant in mutants.items()
            if not rejects(parse_points, "\n".join(mutant) + "\n")] == []
