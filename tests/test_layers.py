"""Layer mappings, distant sets, and the distant-set cover constructions."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_colouring
from monocover import graphs, layers
from monocover.covers import verified, verify_cover
from monocover.errors import ImpossibleByLemmaError
from monocover.generators import two_paths
from monocover.graphs import (EdgeColouring, HostGraph, MonoMetrics, iter_bits,
                              set_diameter)
from monocover.layers import (LayerMapping, build_layer_mapping,
                              cover_from_dist3_quad, cover_from_dist3_triple,
                              cover_from_dist3_triple_ext,
                              cover_from_dist7_triple, find_k_distant,
                              has_rich_coordinates, is_k_distant)
from monocover.twocolour import multipartite_colour


# -- engineered layered colourings ----------------------------------------


def ladder_colouring(length, cross_colour, within_colour=2, n_per=2):
    """Rungs of ``n_per`` vertices; colour 1 joins consecutive rungs, colour 2
    stays inside a rung, and ``cross_colour(u, v, gap)`` picks 3 or 4 for the
    remaining pairs (rung gap >= 2)."""
    def rung(v):
        return v // n_per

    def colour(u, v):
        gap = abs(rung(u) - rung(v))
        if gap == 0:
            return within_colour
        if gap == 1:
            return 1
        return cross_colour(u, v, gap)

    return EdgeColouring.build(HostGraph.complete(length * n_per), 4, colour), rung


def strips_colouring(cross_colour):
    """Two orthogonal strips and a lone vertex.

    Vertices 0..27 form a colour-1 path with a colour-2 hub 28; vertices
    29..56 form a colour-2 path with a colour-1 hub 57; vertex 58 is alone
    in both generating colours.  Every other pair takes
    ``cross_colour(u, v)`` in {3, 4}.
    """
    n = 59
    special = {}
    for i in range(27):
        special[(i, i + 1)] = 1
    for j in range(28):
        special[(j, 28)] = 2
    for j in range(29, 56):
        special[(j, j + 1)] = 2
    for j in range(29, 57):
        special[(j, 57)] = 1

    def colour(u, v):
        got = special.get((u, v))
        return got if got is not None else cross_colour(u, v)

    return EdgeColouring.build(HostGraph.complete(n), 4, colour)


def seeded_cross(seed):
    rng = random.Random(seed)
    table = {}

    def cross(u, v, gap=None):
        key = (u, v)
        if key not in table:
            table[key] = rng.choice((3, 4))
        return table[key]

    return cross


def check_layer_invariants(lm):
    col = lm.colouring
    n = col.n
    # layers partition the vertex set and agree with the coordinates
    seen = set()
    for p in lm.points:
        layer = set(iter_bits(lm.layer_mask(p)))
        assert layer and not (layer & seen)
        seen |= layer
        for v in layer:
            assert lm.coords[v] == p
    assert seen == set(range(n))
    for u in range(n):
        du = lm.coords[u]
        for v in range(u + 1, n):
            dv = lm.coords[v]
            c = col.colour_of(u, v)
            if c == lm.c1:
                assert abs(du[0] - dv[0]) <= 1
            if c == lm.c2:
                assert abs(du[1] - dv[1]) <= 1
            if abs(du[0] - dv[0]) >= 2 and abs(du[1] - dv[1]) >= 2:
                assert c in (lm.c3, lm.c4)


# -- construction ----------------------------------------------------------


def test_single_vertex_mapping():
    col = EdgeColouring.build(HostGraph.complete(1), 4, lambda u, v: 1)
    lm = build_layer_mapping(col, 1, 2)
    assert lm.points == ((0, 0),)
    assert lm.layer_mask((0, 0)) == 1 << 0


def test_connected_colours_give_distance_coordinates():
    col = random_colouring(12, 4, seed=1)
    m = MonoMetrics(col)
    assert len(m.component_masks(1)) == len(m.component_masks(2)) == 1
    lm = build_layer_mapping(col, 1, 2, seeds=[0])
    for v in range(12):
        assert lm.coords[v] == (m.dist(1, 0, v), m.dist(2, 0, v))
    check_layer_invariants(lm)


def test_two_components_zero_policy_restarts_at_zero():
    # colour 1 forms two disjoint paths; both their coordinate ranges start at 0
    edges1 = {(0, 1), (1, 2), (3, 4), (4, 5)}
    col = EdgeColouring.build(
        HostGraph.complete(6), 4,
        lambda u, v: 1 if (u, v) in edges1 else (2 if u == 0 else 3))
    lm = build_layer_mapping(col, 1, 2)
    firsts = [lm.coords[v][0] for v in range(6)]
    assert firsts[0] == 0 and firsts[3] == 0
    check_layer_invariants(lm)


def test_spread_policy_separates_components():
    edges1 = {(0, 1), (2, 3)}
    col = EdgeColouring.build(
        HostGraph.complete(4), 4,
        lambda u, v: 1 if (u, v) in edges1 else 3)
    lm = build_layer_mapping(col, 1, 2, value_policy="spread")
    d0, d2 = lm.coords[0][0], lm.coords[2][0]
    assert abs(d0 - d2) >= 7
    check_layer_invariants(lm)


def test_seeds_reorder_processing():
    col = random_colouring(10, 4, seed=3)
    lm = build_layer_mapping(col, 1, 2, seeds=[5, 2])
    assert lm.coords[5] == (0, 0)
    check_layer_invariants(lm)


def test_invalid_arguments():
    col = random_colouring(5, 4, seed=1)
    with pytest.raises(ValueError):
        build_layer_mapping(col, 1, 1)
    with pytest.raises(ValueError):
        build_layer_mapping(col, 0, 2)
    with pytest.raises(ValueError):
        build_layer_mapping(col, 1, 2, value_policy="negative")
    col3 = random_colouring(5, 3, seed=1)
    with pytest.raises(ValueError):
        build_layer_mapping(col3, 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 14), st.booleans())
def test_layer_invariants_random(seed, n, spread):
    col = random_colouring(n, 4, seed=seed)
    rnd = random.Random(seed)
    c1, c2 = rnd.sample(range(1, 5), 2)
    lm = build_layer_mapping(col, c1, c2,
                             value_policy="spread" if spread else "zero")
    check_layer_invariants(lm)


# -- distant sets ----------------------------------------------------------


def test_find_k_distant_examples():
    assert find_k_distant([(0, 0), (7, 7), (14, 14)], 7, 3) == \
        ((0, 0), (7, 7), (14, 14))
    assert find_k_distant([(0, 0), (1, 5)], 2, 2) is None
    assert find_k_distant([(3, 4)], 1, 1) == ((3, 4),)
    with pytest.raises(ValueError):
        find_k_distant([(0, 0)], 0, 1)


def brute_force_k_distant(points, k, size):
    for sub in combinations(sorted(points), size):
        if is_k_distant(sub, k):
            return sub
    return None


def pruned_k_distant(points, k, size):
    """The first k-distant subset in lexicographic order, by a search that
    extends a chosen prefix only with later points far from all of it."""
    pts = sorted(points)

    def far(p, q):
        return abs(p[0] - q[0]) >= k and abs(p[1] - q[1]) >= k

    def extend(chosen, start):
        if len(chosen) == size:
            return tuple(chosen)
        for j in range(start, len(pts)):
            if all(far(p, pts[j]) for p in chosen):
                got = extend(chosen + [pts[j]], j + 1)
                if got is not None:
                    return got
        return None

    return extend([], 0)


def hard_points(rng, k):
    """Point sets that stress the row construction: large gaps between
    clusters (as the "spread" policy's bases n + 7 apart), differences of
    exactly k and k - 1, and repeated x or y values."""
    m = rng.randint(1, 80)
    kind = rng.randrange(4)
    if kind == 0:    # clusters at bases far apart
        gap = rng.randint(k + 8, 90)
        def coord():
            return rng.randrange(4) * gap + rng.randint(0, 2 * k)
    elif kind == 1:  # a lattice of step k, with some points one below
        def coord():
            return rng.randint(0, 8) * k - rng.randint(0, 1)
    else:            # few distinct values in one coordinate
        few = [rng.randint(0, 4 * k) for _ in range(rng.randint(1, 3))]
        def coord():
            return rng.choice(few)
    def wide():
        return rng.randint(0, 12 * k)
    fx, fy = [(coord, coord), (coord, coord), (coord, wide), (wide, coord)][kind]
    return {(fx(), fy()) for _ in range(m)}


def test_find_k_distant_matches_bruteforce(rng):
    for _ in range(150):
        m = rng.randint(1, 40)
        pts = {(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(m)}
        k = rng.randint(1, 7)
        size = rng.randint(1, 4)
        got = find_k_distant(pts, k, size)
        want = brute_force_k_distant(pts, k, size)
        assert got == want
    found = 0
    for _ in range(400):
        k = rng.randint(1, 7)
        pts = hard_points(rng, k)
        size = rng.randint(1, 5)
        want = pruned_k_distant(pts, k, size)
        assert find_k_distant(pts, k, size) == want, (sorted(pts), k, size)
        found += want is not None
    assert 100 <= found <= 300
    # A layer mapping's points come sorted and unique, and are searched as
    # they are; the same points shuffled, with repeats, are sorted first.
    for seed in range(40):
        lm = build_layer_mapping(random_colouring(rng.randint(2, 40), 4, seed),
                                 1, 2, value_policy=rng.choice(("zero", "spread")))
        mixed = list(lm.points) + rng.choices(lm.points, k=rng.randint(1, 9))
        rng.shuffle(mixed)
        for k, size in ((1, 2), (2, 2), (3, 4), (7, 3)):
            want = find_k_distant(lm.points, k, size)
            assert want == brute_force_k_distant(lm.points, k, size)
            assert find_k_distant(mixed, k, size) == want
            assert find_k_distant(tuple(mixed), k, size) == want


def test_find_k_distant_builds_rows_only_where_it_searches(monkeypatch):
    # The (1, 2) mapping of two_paths(600, 1) has 600 points, and the
    # search meets its quadruple after extending through three of them,
    # so only those three build a compat row.  Building a row takes one
    # bisect_right, the y-order one, so its calls count the rows.
    lm = build_layer_mapping(two_paths(600, 1), 1, 2)
    assert len(lm.points) == 600
    real, calls = layers.bisect_right, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(layers, "bisect_right", counted)
    assert find_k_distant(lm.points, 3, 4) == ((0, 0), (3, 301), (6, 3), (9, 304))
    assert len(calls) == 3


# -- dist-3 triple covers --------------------------------------------------


def ladder_mapping(length, cross, policy="spread"):
    col, _ = ladder_colouring(length, cross)
    lm = build_layer_mapping(col, 1, 2, value_policy=policy)
    check_layer_invariants(lm)
    return col, lm


def test_triple_cover_all_one_reserved_colour():
    col, lm = ladder_mapping(10, lambda u, v, gap: 3)
    triple = find_k_distant(lm.points, 3, 3)
    assert triple is not None
    c, union = cover_from_dist3_triple(lm, triple)
    assert c == 3 and set_diameter(col, c, iter_bits(union)) <= 2
    assert union == lm.union_mask(triple)


def test_triple_cover_random_instances(rng):
    for _ in range(20):
        col, lm = ladder_mapping(10, seeded_cross(rng.randint(0, 10**9)))
        triple = find_k_distant(lm.points, 3, 3)
        c, union = cover_from_dist3_triple(lm, triple)
        assert c in (3, 4) and set_diameter(col, c, iter_bits(union)) <= 20
        assert union == lm.union_mask(triple)


def test_triple_cover_rejects_close_points():
    col, lm = ladder_mapping(10, lambda u, v, gap: 3)
    with pytest.raises(ValueError):
        cover_from_dist3_triple(lm, lm.points[:3])


def test_extended_triple_cover_with_self_certificate(rng):
    # H is the other-coloured triple union itself when that happens to be
    # connected; engineer it so all cross edges of gap >= 2 are colour 4 and
    # the triple connects in colour 3 via... instead simply use colour-3
    # cross edges and certify H as a colour-4 connected superset.
    for seed in range(8):
        cross = seeded_cross(seed)
        col, lm = ladder_mapping(12, cross)
        triple = find_k_distant(lm.points, 3, 3)
        c, union = cover_from_dist3_triple(lm, triple)
        cprime = 7 - c  # other of {3,4}
        pair = [p for p in triple]
        for a, b in combinations(pair, 2):
            h = lm.union_mask((a, b))
            if set_diameter(col, cprime, iter_bits(h)) in (0, 1, 2):
                cover = cover_from_dist3_triple_ext(lm, triple, h)
                rep = verify_cover(col, cover, bound=cover.claimed_bound, max_parts=3)
                assert rep.valid
                break


def test_extended_triple_cover_degenerate_point_set():
    # only the triple's layers exist: the cover is the single core part
    cmap = {(0, 1): 3, (0, 2): 3, (1, 2): 4}
    col = EdgeColouring.from_pairs(HostGraph.complete(3), 4, cmap)
    lm = build_layer_mapping(col, 1, 2, value_policy="spread")
    assert len(lm.points) == 3
    triple = find_k_distant(lm.points, 3, 3)
    assert triple == lm.points
    c, union = cover_from_dist3_triple(lm, triple)
    assert c == 3 and union == 0b111
    cover = cover_from_dist3_triple_ext(lm, triple, 0b110)
    assert len(cover.parts) == 1
    assert cover.claimed_bound == 40
    assert verify_cover(col, cover, bound=40, max_parts=3).valid


def test_extended_triple_cover_invalid_certificate():
    col, lm = ladder_mapping(10, lambda u, v, gap: 3)
    triple = find_k_distant(lm.points, 3, 3)
    with pytest.raises(ValueError):
        cover_from_dist3_triple_ext(lm, triple, 0b1)  # misses two layers


# -- dist-3 quadruple covers ------------------------------------------------


def test_quad_cover_single_base_colour():
    col, lm = ladder_mapping(14, lambda u, v, gap: 3)
    quad = find_k_distant(lm.points, 3, 4)
    assert quad is not None
    cover = cover_from_dist3_quad(lm, quad)
    rep = verify_cover(col, cover, bound=160, max_parts=3)
    assert rep.valid
    assert len(cover.parts) == 1  # everything joins the base colour


def test_quad_cover_random_instances(rng):
    for _ in range(25):
        col, lm = ladder_mapping(14, seeded_cross(rng.randint(0, 10**9)))
        quad = find_k_distant(lm.points, 3, 4)
        cover = cover_from_dist3_quad(lm, quad)
        rep = verify_cover(col, cover, bound=160, max_parts=3)
        assert rep.valid
        assert len(cover.parts) <= 3


def test_quad_cover_places_a_two_vertex_layer_by_bfs(monkeypatch):
    # Anchors (0, 0), (3, 3), (6, 6), (9, 9) and single-vertex layers
    # (0, 9) and (12, 1) (vertices 0-4 and 7) are joined in colour 3; the
    # layer (20, 20) holds vertices 5 and 6, which take colour 4 to
    # everything.  Its placement with anchors (0, 0) and (3, 3) is not a
    # triangle, so the engine builds cross rows: colour 3 misses vertex 5,
    # and colour 4 takes a BFS and spans, so the layer joins the anchor
    # pair in colour 4.  The single-vertex layers are placed by the
    # triangle rule on their vertices and never reach the engine.
    coords = [(0, 0), (3, 3), (6, 6), (9, 9), (0, 9), (20, 20), (20, 20), (12, 1)]
    col = EdgeColouring.build(HostGraph.complete(len(coords)), 4,
                              lambda u, v: 4 if {u, v} & {5, 6} else 3)
    lm = LayerMapping(col, 1, 2, coords)
    assert lm.layer_mask((20, 20)) == 0b1100000
    real, runs = layers.multipartite_colour, {}

    def counted(colouring, masks, pair):
        before = graphs.BFS_RUNS
        got = real(colouring, masks, pair)
        if len(masks) == 3:
            runs[masks[2]] = graphs.BFS_RUNS - before
        return got

    monkeypatch.setattr(layers, "multipartite_colour", counted)
    cover = cover_from_dist3_quad(lm, coords[:4])
    assert runs == {0b1100000: 1}
    assert [(p.vertices, p.colour) for p in cover.parts] == [
        ({0, 1, 2, 3, 4, 7}, 3), ({0, 1, 5, 6}, 4)]
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def reference_quad_cover(lm, quad):
    """The quadruple cover with every layer placed point by point, by the
    multipartite engine alone."""
    quad = tuple(sorted(quad))
    col, reserved = lm.colouring, lm.reserved_pair
    cbase = multipartite_colour(col, [lm.layer_mask(p) for p in quad], reserved)
    cbar = lm.c4 if cbase == lm.c3 else lm.c3
    base, groups = lm.union_mask(quad), {}
    for point in lm.points:
        if point in quad:
            continue
        pair = layers._distant(quad, point)[:2]
        mx = lm.layer_mask(point)
        c_pt = multipartite_colour(col, [lm.layer_mask(p) for p in pair] + [mx],
                                   reserved)
        if c_pt == cbase:
            base |= mx
        else:
            groups[pair] = groups.get(pair, 0) | mx
    parts = [(base, cbase)]
    pairs = sorted(groups)
    if len(pairs) == 1 or any(set(p) & set(q) for p, q in combinations(pairs, 2)):
        parts.append((lm.union_mask(sum(pairs, ())) | sum(groups.values()), cbar))
    else:
        parts += [(lm.union_mask(p) | groups[p], cbar) for p in pairs]
    return verified(col, parts, layers.QUAD_COVER_BOUND, "quadruple cover",
                    {"quad": quad, "base_colour": cbase})


def random_quad_mapping(rng):
    """A mapping from bare coordinates around a 3-distant quadruple, its
    anchors single vertices or not, with repeated points (multi-vertex
    layers), on a complete or multipartite host, coloured mostly in the
    reserved pair of a random ordered generating pair."""
    n = rng.randint(6, 45)
    if rng.random() < 0.3:
        cuts = sorted(rng.sample(range(1, n), rng.randint(2, min(6, n - 1))))
        host = HostGraph.multipartite([b - a for a, b in zip([0] + cuts, cuts + [n])])
    else:
        host = HostGraph.complete(n)
    c1, c2 = rng.sample(range(1, 5), 2)
    reserved = [c for c in range(1, 5) if c not in (c1, c2)]
    stray = rng.choice((0.0, 0.0, 0.01, 0.05))
    weight = rng.random()
    col = EdgeColouring.build(host, 4, lambda u, v: rng.choice((c1, c2))
                              if rng.random() < stray else
                              reserved[rng.random() < weight])
    xs, ys = [0], [0]
    for _ in range(3):
        xs.append(xs[-1] + rng.randint(3, 5))
        ys.append(ys[-1] + rng.randint(3, 5))
    rng.shuffle(ys)
    quad = list(zip(xs, ys))
    top = max(xs + ys) + 2
    coords = []
    for q in quad:
        coords += [q] * (1 if rng.random() < 0.9 else 2)
    while len(coords) < n:
        if coords[4:] and rng.random() < 0.2:
            coords.append(rng.choice(coords[4:]))
        else:
            coords.append((rng.randint(-1, top), rng.randint(-1, top)))
    coords = coords[:n]
    rng.shuffle(coords)
    return LayerMapping(col, c1, c2, coords), quad


def quad_outcome(build, lm, quad):
    try:
        cover = build(lm, quad)
    except (ValueError, ImpossibleByLemmaError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return [(sorted(p.vertices), p.colour) for p in cover.parts], cover.claimed_bound


def test_quad_cover_regions_match_point_by_point(rng):
    # cover_from_dist3_quad places single-vertex layers by regions, with
    # mask algebra on four adjacency rows; the reference places every
    # layer on its own.  Covers, and raises with message and witness, agree.
    seen = Counter()
    for _ in range(500):
        lm, quad = random_quad_mapping(rng)
        if set(quad) - set(lm.points):
            continue
        got = quad_outcome(cover_from_dist3_quad, lm, quad)
        assert got == quad_outcome(reference_quad_cover, lm, quad), (lm.coords, quad)
        seen[type(got[0]).__name__] += 1
        col, anchors = lm.colouring, [lm.layer_mask(q) for q in quad]
        if all(m.bit_count() == 1 for m in anchors):
            vs = [m.bit_length() - 1 for m in anchors]
            seen.update("ab=c3" if col.colour_of(a, b) == lm.c3 else "ab=c4"
                        for a, b in combinations(vs, 2) if col.has_edge(a, b)
                        and col.colour_of(a, b) in lm.reserved_pair)
        seen["multipartite"] += not lm.colouring.host.is_complete
        seen["multi-vertex layer"] += len(lm.points) < lm.colouring.n
    assert seen["list"] >= 50 and seen["str"] >= 20, seen
    assert min(seen["ab=c3"], seen["ab=c4"], seen["multipartite"],
               seen["multi-vertex layer"]) >= 20, seen


def test_quad_cover_on_two_paths_takes_no_triangle_call(monkeypatch):
    # All 300 layers of two_paths(300, 1)'s (1, 2) mapping are single
    # vertices, and the region rule places every one of them: the only
    # engine call left is the quadruple's own.
    lm = build_layer_mapping(two_paths(300, 1), 1, 2)
    quad = find_k_distant(lm.points, 3, 4)
    engines = record_calls(monkeypatch, "multipartite_colour")
    cover = cover_from_dist3_quad(lm, quad)
    assert [len(args[1]) for args, _ in engines] == [4]
    assert quad_outcome(cover_from_dist3_quad, lm, quad) == \
        quad_outcome(reference_quad_cover, lm, quad)
    assert verify_cover(lm.colouring, cover, bound=160, max_parts=3).valid


def test_quad_cover_leaves_the_engine_no_reserved_triangle(monkeypatch, rng):
    # The region rule settles every single-vertex layer whose triangle with
    # its anchor pair lies in the reserved pair, so each three-group engine
    # call of the quadruple cover has a multi-vertex group, or a pair of
    # the three that is missing or coloured outside the reserved pair.
    engines = record_calls(monkeypatch, "multipartite_colour")
    singles = 0
    cases = [random_quad_mapping(rng) for _ in range(300)]
    lm = build_layer_mapping(two_paths(300, 1), 1, 2)
    cases.append((lm, find_k_distant(lm.points, 3, 4)))
    for lm, quad in cases:
        if set(quad) - set(lm.points):
            continue
        engines.clear()
        quad_outcome(cover_from_dist3_quad, lm, quad)
        col = lm.colouring
        for (_, masks, pair), _ in engines:
            if len(masks) != 3 or any(m & (m - 1) for m in masks):
                continue
            singles += 1
            a, b, x = (m.bit_length() - 1 for m in masks)
            assert pair == lm.reserved_pair
            assert not all(col.has_edge(u, v) and col.colour_of(u, v) in pair
                           for u, v in ((a, b), (a, x), (b, x))), (lm.coords, quad)
    assert singles >= 50, singles


def test_quad_cover_rejects_non_distant():
    col, lm = ladder_mapping(14, lambda u, v, gap: 3)
    with pytest.raises(ValueError):
        cover_from_dist3_quad(lm, lm.points[:4])


# -- 7-distant triple covers -------------------------------------------------


def test_dist7_strips_basic(rng):
    for seed in range(10):
        cross = seeded_cross(seed)
        col = strips_colouring(lambda u, v: cross(u, v))
        lm = build_layer_mapping(col, 1, 2, value_policy="spread")
        check_layer_invariants(lm)
        assert has_rich_coordinates(lm.points)
        assert find_k_distant(lm.points, 3, 4) is None
        triple = find_k_distant(lm.points, 7, 3)
        assert triple is not None
        cover = cover_from_dist7_triple(lm, triple)
        rep = verify_cover(col, cover, bound=160, max_parts=3)
        assert rep.valid


PILLAR_TRIPLE = ((0, 0), (10, 10), (20, 20))


def pillar_mapping(second_far_x, colour=lambda u, v: 3):
    """A hand-built mapping on K_70, all colour 3 by default, that takes
    cover_from_dist7_triple past its attach loop: the anchors
    PILLAR_TRIPLE (vertices 0-2), 31 first-far points (30 + i, 0) (3-33),
    31 second-far points (second_far_x, 30 + i) (34-64), and five points
    close to anchors in both coordinates: one per group (65-67), one
    pillar pattern (68) and one equal pair (69)."""
    coords = list(PILLAR_TRIPLE)
    coords += [(30 + i, 0) for i in range(31)]
    coords += [(second_far_x, 30 + i) for i in range(31)]
    coords += [(10, 0), (20, 0), (10, 20), (0, 10), (1, 1)]
    col = EdgeColouring.build(HostGraph.complete(len(coords)), 4, colour)
    lm = LayerMapping(col, 1, 2, coords)
    assert has_rich_coordinates(lm.points)
    return col, lm


def record_calls(monkeypatch, name):
    """Wrap ``layers.<name>`` and return the list of its call arguments."""
    real, calls = getattr(layers, name), []

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(layers, name, wrapped)
    return calls


def test_dist7_with_pillar_groups(monkeypatch):
    # Pillars X = (30, 0) and Y = (10, 30) are far in one coordinate each;
    # (10, 0), (20, 0) and (10, 20) fall in the three groups.  The core
    # colour 3 takes all of K_70 within radius 40, so one part covers.
    col, lm = pillar_mapping(10)
    balls = record_calls(monkeypatch, "bfs_reach")
    cover = cover_from_dist7_triple(lm, PILLAR_TRIPLE)
    assert [kw.get("radius") for _, kw in balls] == [40]
    assert [(len(p.vertices), p.colour) for p in cover.parts] == [(70, 3)]
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


@pytest.mark.parametrize("join, groups23", [(3, {66, 67}), (4, {3, 34, 66, 67})])
def test_dist7_pillar_groups_outside_the_core_ball(join, groups23):
    # The group vertices 65-67 take colour 4 to everything but the pair
    # 66-67, so the core ball misses them.  Groups 2 and 3 join in colour
    # 3 when their own bipartite colour is the core's (join 3), else with
    # their pillars X (vertex 3) and Y (vertex 34) in colour 4; group 1
    # joins anchor (20, 20) in colour 4.
    def colour(u, v):
        if (u, v) == (66, 67):
            return join
        return 4 if v in (65, 66, 67) or u in (65, 66, 67) else 3

    col, lm = pillar_mapping(10, colour)
    cover = cover_from_dist7_triple(lm, PILLAR_TRIPLE)
    core, part23, part1 = cover.parts
    assert (len(core.vertices), core.colour) == (67, 3)
    assert (part23.vertices, part23.colour) == (groups23, join)
    assert (part1.vertices, part1.colour) == ({2, 65}, 4)
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def test_dist7_pillar_quad_when_second_far_points_share_an_anchor(monkeypatch):
    # Every second-far point (0, 30 + i) is first-close to the anchor
    # (0, 0) that X = (30, 0) is second-close to: X, Y = (0, 30) and the
    # other two anchors are a 3-distant quadruple, before any core ball.
    col, lm = pillar_mapping(0)
    balls = record_calls(monkeypatch, "bfs_reach")
    quads = record_calls(monkeypatch, "cover_from_dist3_quad")
    cover = cover_from_dist7_triple(lm, PILLAR_TRIPLE)
    assert balls == []
    assert [args[1] for args, _ in quads] == [((30, 0), (0, 30), (10, 10), (20, 20))]
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def test_dist7_requires_rich_coordinates():
    col, lm = ladder_mapping(24, lambda u, v, gap: 3)
    triple = find_k_distant(lm.points, 7, 3)
    if triple is None:
        pytest.skip("no 7-distant triple")
    if not has_rich_coordinates(lm.points):
        with pytest.raises(ValueError):
            cover_from_dist7_triple(lm, triple)


def test_dist7_delegates_to_quad_when_possible(rng):
    # a long ladder has 3-distant quadruples, so the 7-distant entry point
    # must reduce to the quadruple construction and still verify
    col, lm = ladder_mapping(30, seeded_cross(77))
    assert has_rich_coordinates(lm.points)
    triple = find_k_distant(lm.points, 7, 3)
    assert triple is not None
    cover = cover_from_dist7_triple(lm, triple)
    rep = verify_cover(col, cover, bound=160, max_parts=3)
    assert rep.valid
