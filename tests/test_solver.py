"""Solver cascade: stages, generators, determinism, connectivity cover."""

import hashlib
import json
import math
import random
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from conftest import blocks_colouring, constant_colouring, random_colouring
from monocover import graphs
from monocover.covers import Cover, CoverPart, format_cover, verify_cover
from monocover.generators import (four_blocks, hub_tails, ladder,
                                  layered_adversarial, random_uniform,
                                  relabelled, section5_example, sharpness_x,
                                  two_paths)
from monocover.graphs import (DISCONNECTED, EdgeColouring, HostGraph, MonoMetrics,
                              diameter_of_mask, iter_bits, set_diameter)
from monocover.solver import (BRANCH_FALLBACK, BRANCH_INTERSECTING,
                              BRANCH_LAYER_QUAD, BRANCH_LAYER_TRIPLE7,
                              BRANCH_SINGLE_COLOUR, BRANCH_SMALL_DIAM,
                              BRANCH_TWO_BALLS, SMALL_DIAMETER,
                              _disjoint_pairs, disjoint_corollary,
                              gyarfas_connectivity_cover,
                              reduce_small_diameters, solve4,
                              solve_connected_case, solve_intersecting_case,
                              two_balls)
from monocover.twocolour import multipartite_colour


def check_solved(colouring, cover, trace, bound=160):
    assert trace.branch != BRANCH_FALLBACK
    rep = verify_cover(colouring, cover, bound=bound, max_parts=3)
    assert rep.valid, (trace.branch, trace.anomalies, rep)


# -- connectivity cover ------------------------------------------------------


def test_gyarfas_single_colour():
    col = constant_colouring(6, 1, k=4)
    cover = gyarfas_connectivity_cover(col)
    assert len(cover.parts) == 1
    assert verify_cover(col, cover, bound=math.inf, max_parts=3).valid


def test_gyarfas_sharpness_instance():
    col = sharpness_x()
    cover = gyarfas_connectivity_cover(col)
    assert len(cover.parts) <= 3
    assert verify_cover(col, cover, bound=math.inf, max_parts=3).valid


def test_fallback_when_every_stage_declines(monkeypatch, tmp_path):
    # No instance family reaches the fallback, so every stage is made to
    # decline: the connectivity cover closes, the trace says so, and
    # `monocover solve` exits 3 with a verified cover.
    from monocover import solver
    from monocover.cli import main
    monkeypatch.setattr(solver, "_STAGES", tuple(
        (name, lambda col, notes: (None, None, None)) for name, _ in solver._STAGES))
    col = random_uniform(40, 4, 2)
    cover, trace = solve4(col)
    assert trace.branch == BRANCH_FALLBACK
    assert [r.name for r in trace.stages] == [name for name, _ in solver._STAGES]
    assert all(r.outcome == "n/a" for r in trace.stages)
    assert len(cover.parts) <= 3
    assert verify_cover(col, cover, bound=math.inf, max_parts=3).valid
    metrics = MonoMetrics(col)
    assert trace.details == {
        "colour_diameters": {c: metrics.colour_diameter(c) for c in range(1, 5)},
        "component_counts": {c: len(metrics.component_masks(c)) for c in range(1, 5)}}
    col_path, trace_path = tmp_path / "c.col", tmp_path / "t.json"
    col_path.write_text(graphs.format_colouring(col))
    assert main(["solve", str(col_path), "-o", str(tmp_path / "c.cov"),
                 "--trace", str(trace_path)]) == 3
    payload = json.loads(trace_path.read_text())
    assert payload["branch"] == BRANCH_FALLBACK and payload["valid"] is True


def test_connectivity_cover_parts_are_distinct():
    # Four blocks of 20.  Two singleton grid parts promote to the same
    # colour-1 component, which the cover must take only once.
    col = blocks_colouring(80, seed=0)
    cover, trace = solve4(col)
    check_solved(col, cover, trace)
    assert len(set(cover.parts)) == len(cover.parts)


def test_gyarfas_random_instances(rng):
    for _ in range(60):
        n = rng.randint(1, 60)
        col = random_uniform(n, 4, rng.randint(0, 10**9))
        cover = gyarfas_connectivity_cover(col)
        rep = verify_cover(col, cover, bound=math.inf, max_parts=3)
        assert rep.valid


# -- stage 1 -----------------------------------------------------------------


def test_reduce_small_diameters_fires_on_blocks():
    col = four_blocks(seed=0)
    cover = reduce_small_diameters(col, 160)
    assert cover is not None
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def test_reduce_small_diameters_small_bound():
    # every colour has tiny components; even N1 = 2 works, giving bound 30
    col = four_blocks(seed=3)
    cover = reduce_small_diameters(col, 2)
    if cover is not None:
        assert verify_cover(col, cover, bound=30, max_parts=3).valid


def test_reduce_small_diameters_not_applicable():
    col = two_paths(200, seed=1)
    assert reduce_small_diameters(col, 160) is None


def test_recolouring_preserves_small_components():
    # the reduction only moves edges out of the leftover colour
    col = four_blocks(seed=5)
    from monocover.graphs import MonoMetrics
    metrics = MonoMetrics(col)
    smalls = [c for c in range(1, 5) if metrics.colour_diameter(c) <= 160][:3]
    big = next(c for c in range(1, 5) if c not in smalls)
    ids = {c: [0] * col.n for c in smalls}
    for c in smalls:
        for cid, comp in enumerate(metrics.component_masks(c)):
            for v in iter_bits(comp):
                ids[c][v] = cid
    changes = {}
    for u, v, c in col.edges():
        if c == big:
            for cs in smalls:
                if ids[cs][u] == ids[cs][v]:
                    changes[(u, v)] = cs
                    break
    if changes:
        modified = col.recoloured(changes)
        m2 = MonoMetrics(modified)
        for cs in smalls:
            assert metrics.component_masks(cs) == m2.component_masks(cs)
        # leftover-colour components only shrink
        big_masks = metrics.component_masks(big)
        for new_mask in m2.component_masks(big):
            assert any(new_mask & old == new_mask for old in big_masks)


def _recoloured_reduction(col, n1=160):
    # The reduction as the paper's proof states it: each leftover-colour pair
    # whose ends share a component of the first, else second, else third
    # small colour takes that colour; the small colours become 1, 2, 3 and
    # the leftover colour 4; the connectivity cover of that copy is mapped
    # back to the original colours.
    metrics = col.metrics
    smalls = [c for c in range(1, 5) if metrics.colour_diameter(c) <= n1][:3]
    if len(smalls) < 3:
        return None
    big = next(c for c in range(1, 5) if c not in smalls)
    ids = {c: {v: i for i, comp in enumerate(metrics.component_masks(c))
               for v in iter_bits(comp)} for c in smalls}
    relabel = {smalls[0]: 1, smalls[1]: 2, smalls[2]: 3, big: 4}
    pairs = {}
    for u, v, c in col.edges():
        if c == big:
            c = next((cs for cs in smalls if ids[cs][u] == ids[cs][v]), c)
        pairs[(u, v)] = relabel[c]
    copy = EdgeColouring.from_pairs(col.host, 4, pairs)
    inverse = {new: old for old, new in relabel.items()}
    conn = gyarfas_connectivity_cover(copy)
    return Cover.of(((p.vertices, inverse[p.colour]) for p in conn.parts),
                    max(n1, 30))


def test_small_diameter_reduction_matches_recoloured_copy():
    # reduce_small_diameters builds its cover on the colouring it is given;
    # the cover must be the one the recoloured copy's connectivity cover
    # gives, under every colour order.  At n1 = 160 every colour is small;
    # at n1 = 3 and 2 some instances have one larger colour, in each of the
    # four colour positions.
    cols = [blocks_colouring(80, seed) for seed in range(3)]
    for seed in range(8):
        base = four_blocks(seed)
        for order in ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2)):
            table = np.zeros(256, dtype=np.uint8)
            table[1:5] = order
            cols.append(EdgeColouring.from_matrix(base.host, 4, table[base.matrix()]))
    large = Counter()  # the larger colour, in instances that have one
    for i, col in enumerate(cols):
        for n1 in (160, 3, 2):
            cover = reduce_small_diameters(col, n1)
            expect = _recoloured_reduction(col, n1)
            assert (cover is None) == (expect is None), (i, n1)
            if cover is None:
                assert n1 < 160, i
                continue
            assert format_cover(cover) == format_cover(expect), (i, n1)
            small = [c for c in range(1, 5) if col.metrics.colour_diameter(c) <= n1]
            if len(small) == 3:
                large[next(c for c in range(1, 5) if c not in small)] += 1
    assert sorted(large) == [1, 2, 3, 4], large


def test_small_diameter_reduction_builds_no_colouring(monkeypatch):
    col = four_blocks(seed=2)
    built = []
    from_matrix = EdgeColouring.from_matrix
    monkeypatch.setattr(EdgeColouring, "from_matrix", classmethod(
        lambda cls, *args: built.append(args) or from_matrix(*args)))
    assert reduce_small_diameters(col, 160) is not None
    assert built == []


# -- stage 0 and the stage records ---------------------------------------------


def test_single_colour_stage_returns_through_verification(monkeypatch):
    # A metrics answer that claims a non-spanning colour spans must not let
    # a bad one-part cover out: stage 0 records the failure, witness and
    # all, and a later stage closes.
    col = four_blocks(seed=1)
    assert not col.metrics.spans_within_diameter(1, 160)
    real = MonoMetrics.spans_within_diameter
    monkeypatch.setattr(MonoMetrics, "spans_within_diameter",
                        lambda self, c, bound: c == 1 or real(self, c, bound))
    cover, trace = solve4(col)
    check_solved(col, cover, trace)
    assert trace.branch == BRANCH_SMALL_DIAM
    first = trace.stages[0]
    assert (first.name, first.outcome) == ("single colour", "anomaly")
    [anomaly] = first.anomalies
    assert anomaly["message"] == "single colour: single colour: cover failed verification"
    assert anomaly["witness"] == {
        "colour": 1, "uncovered": [],
        "parts": [(list(range(col.n)), 1, repr(set_diameter(col, 1, range(col.n))))]}


def test_layer_stage_records_a_failed_quad_and_goes_on(monkeypatch):
    # A quadruple cover that raises is recorded with its witness; the same
    # mapping then closes through its 7-distant triple.
    from monocover import solver
    from monocover.errors import ImpossibleByLemmaError
    real, quads = solver.cover_from_dist3_quad, []

    def fail_once(lm, quad):
        quads.append(quad)
        if len(quads) == 1:
            raise ImpossibleByLemmaError("forced", {"quad": list(quad)})
        return real(lm, quad)

    monkeypatch.setattr(solver, "cover_from_dist3_quad", fail_once)
    col = two_paths(200, seed=3)
    cover, trace = solve4(col)
    check_solved(col, cover, trace)
    assert trace.branch == BRANCH_LAYER_TRIPLE7
    assert (trace.details["pair"], trace.details["policy"]) == ((1, 2), "zero")
    layer = trace.stages[2]
    assert (layer.name, layer.outcome) == ("layer mappings", "closed")
    assert layer.anomalies == [{"message": "layer quad (1,2,zero): forced",
                                "witness": {"quad": list(quads[0])}}]
    assert trace.anomalies == ("layer quad (1,2,zero): forced",)


def test_layer_stage_skips_spread_for_connected_pairs(monkeypatch):
    # Colour 4 is one edge, so it is disconnected; colours 1-3 are connected.
    # A connected pair's "spread" mapping equals its "zero" one, and the
    # stage builds only the latter.
    from monocover import solver
    from monocover.layers import build_layer_mapping
    rng = random.Random(1)
    pairs = {(u, v): rng.randint(1, 3) for u in range(12) for v in range(u + 1, 12)}
    pairs[(0, 1)] = 4
    col = EdgeColouring.from_pairs(HostGraph.complete(12), 4, pairs)
    assert [len(col.metrics.component_masks(c)) for c in range(1, 5)] == [1, 1, 1, 11]
    assert (build_layer_mapping(col, 1, 2, value_policy="zero").coords
            == build_layer_mapping(col, 1, 2, value_policy="spread").coords)
    built = []
    monkeypatch.setattr(solver, "build_layer_mapping", lambda c, c1, c2, **kw:
                        built.append((c1, c2)) or build_layer_mapping(c, c1, c2, **kw))
    assert solver._layer_mappings(col, []) == (None, None, None)
    assert Counter(built) == {(1, 2): 1, (1, 3): 1, (2, 3): 1,
                              (1, 4): 2, (2, 4): 2, (3, 4): 2}


def test_distant_triple_value_error_has_a_witness():
    # Both coordinates take 3 values, fewer than the 28 that a 7-distant
    # triple cover needs: the recorded ValueError names the pair, the
    # triple and the value counts.
    from monocover import solver
    from monocover.layers import LayerMapping
    lm = LayerMapping(constant_colouring(3, 1, k=4), 2, 3, [(0, 0), (7, 7), (14, 14)])
    anomalies = []
    assert solver._try_distant_triples(lm, (0, 0), (7, 7), [2], anomalies, "t") is None
    assert anomalies == [{
        "message": "t: layer index set must take >= 28 values per coordinate",
        "witness": {"pair": [2, 3], "triple": [[0, 0], [7, 7], [14, 14]],
                    "coordinate_values": [3, 3]}}]


def test_stage_records_count_bfs_runs():
    col = two_paths(200, seed=3)
    before = graphs.BFS_RUNS
    _, trace = solve4(col)
    runs = [s.bfs_runs for s in trace.stages]
    assert sum(runs) == graphs.BFS_RUNS - before
    assert trace.branch == BRANCH_LAYER_QUAD and all(r > 0 for r in runs)
    assert [s["bfs_runs"] for s in trace.to_json()["stages"]] == runs
    # the count depends on the colouring only, given a cold metrics cache
    _, again = solve4(two_paths(200, seed=3))
    assert [s.bfs_runs for s in again.stages] == runs


def test_layer_stage_bfs_runs_pinned():
    # The quad cover places each of the other 296 layers, three single
    # vertices, by the triangle rule (the first colour of the pair that
    # holds two of the three edges) with no BFS.  The mapping's coordinate
    # rows come from the levels that stage 0 cached for vertex 0 in
    # colours 1 and 2, with no BFS either.  The 3 runs left are the
    # quadruple's own four-layer call and the checks of the cover's two
    # parts.
    _, trace = solve4(two_paths(300, seed=1))
    assert trace.branch == BRANCH_LAYER_QUAD
    (stage,) = [s for s in trace.stages if s.name == "layer mappings"]
    assert stage.bfs_runs == 3


def test_each_colour_and_source_takes_one_bfs_per_colouring():
    # Cold, stage 0 runs one BFS from vertex 0 per colour and keeps its
    # levels.  Stage 1 reads colours 1 and 2 (paths) from them and runs
    # one more BFS in colours 3 and 4, from vertex 1, the lowest vertex
    # outside vertex 0's component (vertex 0 has no colour-3 edge, vertex
    # 1 no colour-4 edge).  The layer stage is as pinned above.  Warm,
    # only the constructions' own checks run.
    col = two_paths(300, seed=1)
    _, cold = solve4(col)
    _, warm = solve4(col)
    assert cold.branch == warm.branch == BRANCH_LAYER_QUAD
    assert [s.bfs_runs for s in cold.stages] == [4, 2, 3]
    assert [s.bfs_runs for s in warm.stages] == [0, 0, 3]


def test_pair_search_stages_bfs_runs_pinned():
    # Each pair search runs capped BFS from one source at a time and stops
    # at the first source that settles it.  On hub_tails(170, 0) the
    # intersecting stage finds its pair from vertex 0 in one run capped at
    # 40 levels; the layer mapping adds one BFS and the checks of the two
    # balls left after the one inside another is dropped two more.  On
    # hub_tails(161, 0, extra=True) the disjoint corollary settles "not
    # near" and its far pair from vertex 0 in three runs capped at 12, 6
    # and 6 levels; the layer mapping adds one more.  The two-ball stage
    # after it reads cached levels and checks its two parts.
    _, trace = solve4(hub_tails(170, 0))
    assert trace.branch == BRANCH_INTERSECTING
    assert trace.stages[-1].name == "intersecting case"
    assert trace.stages[-1].bfs_runs == 4
    _, trace = solve4(hub_tails(161, 0, extra=True))
    assert trace.branch == BRANCH_TWO_BALLS
    assert [s.name for s in trace.stages[-2:]] == ["disjoint corollary", "two balls"]
    assert [s.bfs_runs for s in trace.stages[-2:]] == [4, 2]


def test_multipartite_colour_skips_a_colour_with_an_isolated_vertex():
    # In K_{2,2,2}, vertex 0 sees only colour 2, so colour 1 is
    # disconnected and only colour 2 (vertex 0 adjacent to every other
    # class, and 1-2) takes a BFS.
    col = EdgeColouring.build(HostGraph.multipartite([2, 2, 2]), 2,
                              lambda u, v: 2 if u == 0 or (u, v) == (1, 2) else 1)
    before = graphs.BFS_RUNS
    assert multipartite_colour(col, [0b11, 0b1100, 0b110000], (1, 2)) == 2
    assert graphs.BFS_RUNS - before == 1


# -- stage 2 through the cascade ----------------------------------------------


def test_two_paths_exercises_layer_machinery():
    col = two_paths(180, seed=4)
    cover, trace = solve4(col)
    check_solved(col, cover, trace)
    assert trace.branch in (BRANCH_LAYER_QUAD, "LayerTriple7",
                            "SingleComponent", "Intersecting")


def test_two_paths_various_sizes():
    for n, seed in ((170, 0), (201, 1), (280, 2)):
        col = two_paths(n, seed)
        cover, trace = solve4(col)
        check_solved(col, cover, trace)


# -- stages 3..5 engaged directly ----------------------------------------------


def connected_paths_colouring(n):
    """Four spanning connected colours: two long paths plus two perfect-ish
    matchings extended by stars; diameters are large for colours 1..2."""
    # colour 1: path. colour 2: evens-then-odds path. colours 3/4: chords
    # split so that both stay connected through vertex hubs.
    evens = list(range(0, n, 2))
    odds = list(range(1, n, 2))
    order = evens + odds
    path2 = set()
    for a, b in zip(order, order[1:]):
        path2.add((min(a, b), max(a, b)))

    def colour(u, v):
        if v - u == 1:
            return 1
        if (u, v) in path2:
            return 2
        return 3 if (u * 3 + v) % 5 < 2 else 4

    return EdgeColouring.build(HostGraph.complete(n), 4, colour)


def test_connected_case_engages_below_gate():
    # All four colours connected, but colours 3 and 4 have diameters 3
    # and 2, within even a gate of 20: the stage must decline.
    col = connected_paths_colouring(60)
    assert all(len(col.metrics.component_masks(c)) == 1 for c in range(1, 5))
    assert [col.metrics.colour_diameter(c) for c in (3, 4)] == [3, 2]
    assert solve_connected_case(col, min_diameter=20) is None


def test_connected_case_gate_rejects_small_diameters():
    col = random_uniform(30, 4, 5)
    assert solve_connected_case(col) is None


def hub_colouring(n, seed):
    """Colour 1 a long path; random dense chords keep 2, 3, 4 connected."""
    rng = random.Random(seed)

    def colour(u, v):
        if v - u == 1:
            return 1
        return rng.choice((2, 3, 4))

    return EdgeColouring.build(HostGraph.complete(n), 4, colour)


def test_connected_case_ball_route():
    # dense colour 2 means no pair at distance >= 40 exists: the explicit
    # three-ball cover closes the instance
    col = hub_colouring(50, 3)
    from monocover.graphs import MonoMetrics
    m = MonoMetrics(col)
    assert all(len(m.component_masks(c)) == 1 for c in range(1, 5))
    cover = solve_connected_case(col, min_diameter=1)
    assert cover is not None
    assert verify_cover(col, cover, bound=160, max_parts=3).valid
    assert [p.colour for p in cover.parts] == [2, 3, 4]


def test_connected_case_walk_route():
    # two long paths admit the distance-pattern pair; the geodesic walk
    # hands over a distant-set cover
    col = connected_paths_colouring(60)
    cover = solve_connected_case(col, min_diameter=1)
    assert cover is not None
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def disjoint_components_colouring(n=48, path_len=36):
    """Colour 1: a long induced path on the first vertices; colour 2: a
    clique on the rest (disjoint from the path component); colours 3/4
    split the remaining pairs by parity."""
    def colour(u, v):
        if v < path_len and v - u == 1:
            return 1
        if u >= path_len:
            return 2
        return 3 if (u + v) % 2 == 0 else 4

    return EdgeColouring.build(HostGraph.complete(n), 4, colour)


def test_disjoint_corollary_direct():
    col = disjoint_components_colouring()
    cover = disjoint_corollary(col, min_diameter=30)
    assert cover is not None
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def test_direct_call_pair_searches_pinned():
    # The covers and anomaly messages of the direct-call routes whose
    # pairs come from the connected case's and the disjoint corollary's
    # searches, hashed: a change that moves any searched pair turns this
    # red.  hub_colouring takes the ball route; the two path colourings
    # take the walk route through _geodesic and _try_distant_triples.
    routes = [
        (solve_connected_case, hub_colouring(50, 3), {"min_diameter": 1}),
        (solve_connected_case, connected_paths_colouring(60), {"min_diameter": 1}),
        (solve_connected_case, connected_paths_colouring(300), {"min_diameter": 1}),
        (disjoint_corollary, disjoint_components_colouring(), {"min_diameter": 30}),
    ]
    digest = hashlib.sha256()
    for solve, col, kwargs in routes:
        notes = []
        cover = solve(col, anomalies=notes, **kwargs)
        assert verify_cover(col, cover, bound=160, max_parts=3).valid
        digest.update(json.dumps([format_cover(cover),
                                  [a["message"] for a in notes]]).encode())
    assert digest.hexdigest() == (
        "74d56bc4f3b6edc8a9a88da7cd8861a771fe206b9d394ac37c37579755aef1b4")


def found_colouring(n=1500):
    """Colour 1 the path 0..n-1; every other pair coloured 2-4 at random."""
    rng = np.random.default_rng(1)
    mat = np.triu(rng.integers(2, 5, size=(n, n), dtype=np.uint8), 1)
    mat += mat.T
    i = np.arange(n - 1)
    mat[i, i + 1] = mat[i + 1, i] = 1
    return EdgeColouring.from_matrix(HostGraph.complete(n), 4, mat)


def test_connected_case_without_a_pair_on_a_long_path():
    # No vertex pair is at colour-1 distance 25..27 and colour-2 distance
    # >= 40, since colour 2 is dense: the three balls around vertex 0
    # close.  The search's capped runs stay out of the levels cache, which
    # holds the four runs from vertex 0 that the gates and balls read.
    col = found_colouring()
    cover = solve_connected_case(col, min_diameter=1)
    assert [(len(p.vertices), p.colour) for p in cover.parts] == [
        (1500, 2), (490, 3), (501, 4)]
    assert hashlib.sha256(format_cover(cover).encode()).hexdigest() == (
        "e5b058d8618f516f8080dcefbd4a65a0fb61e2e5dc1cc18d2e2b689ab12990b0")
    assert len(col.metrics._bfs) == 4


def test_intersecting_case_gate():
    # disjoint large component pairs make the stage inapplicable
    col = disjoint_components_colouring()
    assert solve_intersecting_case(col) is None


def test_hub_tails_closes_in_intersecting():
    # The hub family passes stages 0-2 by construction and reaches
    # solve_intersecting_case past its gate: the straddling pair is found,
    # no 7-distant triple closes, and the three-ball cover does.  Its
    # colour-3 ball {0} lies inside the colour-1 ball, so two parts are left.
    digest = hashlib.sha256()
    for seed in range(3):
        col = hub_tails(170, seed)
        cover, trace = solve4(col)
        assert trace.branch == BRANCH_INTERSECTING
        assert verify_cover(col, cover, bound=160, max_parts=3).valid
        assert [(len(p.vertices), p.colour) for p in cover.parts] == [
            (221, 1), (340, 3)]
        digest.update(json.dumps([format_cover(cover),
                                  list(trace.anomalies)]).encode())
    assert digest.hexdigest() == (
        "bea12368a6a25663eb978252b4ed5d6de9fd84e417d37e6d10f7b2aa84b5717c")


def test_hub_tails_extra_has_a_two_ball_cover():
    # The hub's radius-2 balls in colours 1 and 2 cover hub_tails_w, with
    # diameter 4.  solve4 closes the instance in the two-ball stage with the
    # radius-1 balls inside them (test_hub_tails_extra_closes_in_two_balls).
    col = hub_tails(161, 0, extra=True)
    assert col.n == 324
    cover = Cover.of([(iter_bits(col.metrics.ball_mask(c, 0, 2)), c)
                      for c in (1, 2)], 4)
    assert [len(p.vertices) for p in cover.parts] == [164, 165]
    assert verify_cover(col, cover, bound=4, max_parts=3).valid


def test_hub_tails_extra_closes_before_the_fallback():
    col = hub_tails(161, 0, extra=True)
    cover, trace = solve4(col)
    assert trace.branch != BRANCH_FALLBACK
    assert verify_cover(col, cover, bound=160, max_parts=3).valid


def test_hub_tails_extra_closes_in_two_balls():
    # Every stage before it declines both instances; root 0's colour-1
    # ball of radius 1 and colour-2 ball of radius 1 cover them.
    digest = hashlib.sha256()
    for L, seed in ((161, 0), (200, 2)):
        col = hub_tails(L, seed, extra=True)
        cover, trace = solve4(col)
        assert trace.branch == BRANCH_TWO_BALLS
        c1, c2, a, b = reference_two_balls(col)
        assert trace.details == {"pair": (c1, c2), "radii": (a, b)}
        assert cover.parts == (
            CoverPart(frozenset(iter_bits(col.metrics.ball_mask(1, 0, 1))), 1),
            CoverPart(frozenset(iter_bits(col.metrics.ball_mask(2, 0, 1))), 2))
        assert verify_cover(col, cover, bound=160, max_parts=3).valid
        digest.update(json.dumps([format_cover(cover), trace.branch,
                                  list(trace.anomalies)]).encode())
    assert digest.hexdigest() == (
        "6de952dd825b5ca3f9b08d2d44644f67aa920d11a58c2aa04fdc5bbcd69b1009")


def reference_two_balls(col, radius=80):
    """(c1, c2, a, b) of the first ordered colour pair and least a, with
    b the largest c2-distance from vertex 0 beyond c1-distance a, that fit
    the radius, from whole distance rows."""
    inf = float("inf")
    for c1, c2 in permutations(range(1, 5), 2):
        d1, d2 = ([inf if d < 0 else d for d in
                   graphs.bfs_distances(col.adj_rows(c), col.n, 0)]
                  for c in (c1, c2))
        for a in range(radius + 1):
            b = max((d2[v] for v in range(col.n) if d1[v] > a), default=0)
            if b <= radius:
                return c1, c2, a, b
    return None


def test_two_balls_matches_whole_rows(rng):
    cols = [hub_tails(L, s, extra=extra) for L, s, extra in
            ((161, 0, True), (170, 1, False), (90, 2, True))]
    cols += [two_paths(n, s) for n, s in ((200, 1), (401, 2))]
    cols += [four_blocks(s) for s in range(3)]
    cols += [random_colouring(rng.randint(1, 30), 4, s) for s in range(20)]
    for col in cols:
        want = reference_two_balls(col)
        cover = two_balls(col)
        if want is None:
            assert cover is None
            continue
        c1, c2, a, b = want
        assert [(set(p.vertices), p.colour) for p in cover.parts] == [
            (set(iter_bits(col.metrics.ball_mask(c1, 0, a))), c1),
            (set(iter_bits(col.metrics.ball_mask(c2, 0, b))), c2)]


def _exact_disjoint_pairs(col, min_diameter):
    """_disjoint_pairs with its gate on exact component diameters."""
    metrics = col.metrics
    for c in range(1, 5):
        for mask in metrics.component_masks(c):
            if diameter_of_mask(col.adj_rows(c), mask) < min_diameter:
                continue
            for c2 in range(1, 5):
                if c2 != c:
                    for mask2 in metrics.component_masks(c2):
                        if not mask & mask2:
                            yield c, mask, c2, mask2


def test_component_gates_match_exact_diameters():
    # The disjoint-pair gate and the intersecting case's big colours decide
    # by threshold; both must keep what exact diameters kept.  two_paths(n)
    # has colour-1 and colour-2 diameter n - 1, around the bound 30.
    cols = [random_colouring(n, 4, seed) for n in (5, 8, 12) for seed in range(4)]
    cols += [four_blocks(seed) for seed in range(8)]
    cols += [two_paths(n, 7) for n in (30, 31, 32)]
    for col in cols:
        metrics = col.metrics
        for m in (0, 1, 3, 30):
            assert (list(_disjoint_pairs(metrics, m))
                    == list(_exact_disjoint_pairs(col, m))), m
        for big in (0, 1, 3, 30, SMALL_DIAMETER):
            assert ([c for c in range(1, 5) if not metrics.colour_within(c, big)]
                    == [c for c in range(1, 5)
                        if max(diameter_of_mask(col.adj_rows(c), mask)
                               for mask in metrics.component_masks(c)) > big])


# -- solve4 end-to-end ----------------------------------------------------------


def test_solve_monochromatic():
    col = constant_colouring(10, 1, k=4)
    cover, trace = solve4(col)
    assert trace.branch == BRANCH_SINGLE_COLOUR
    assert len(cover.parts) == 1
    check_solved(col, cover, trace)


def test_solve_single_vertex():
    col = EdgeColouring.build(HostGraph.complete(1), 4, lambda u, v: 1)
    cover, trace = solve4(col)
    check_solved(col, cover, trace)


def test_solve_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        solve4(constant_colouring(5, 1, k=3))
    host = HostGraph(3, missing=[(0, 1)])
    col = EdgeColouring.from_pairs(host, 4, {(0, 2): 1, (1, 2): 2})
    with pytest.raises(ValueError):
        solve4(col)


def test_solve_random_instances(rng):
    for _ in range(40):
        n = rng.randint(2, 80)
        col = random_uniform(n, 4, rng.randint(0, 10**9))
        cover, trace = solve4(col)
        check_solved(col, cover, trace)


def test_solve_adversarial_instances():
    for seed in range(25):
        col = layered_adversarial(seed)
        cover, trace = solve4(col)
        check_solved(col, cover, trace)


def test_solve_blocks_branch():
    col = four_blocks(seed=11)
    cover, trace = solve4(col)
    check_solved(col, cover, trace)
    assert trace.branch in (BRANCH_SINGLE_COLOUR, BRANCH_SMALL_DIAM)


def test_solve_deterministic():
    col = layered_adversarial(7)
    c1, t1 = solve4(col)
    c2, t2 = solve4(col)
    assert c1 == c2 and t1.branch == t2.branch


def test_solve4_outputs_pinned():
    # The cover, branch, details and anomaly messages of solve4 on a fixed
    # set of 220 instances, hashed: a change that alters any of them turns
    # this red.  The branch counts say which kind of instance moved.
    cols = [layered_adversarial(seed) for seed in range(200)]
    cols += [two_paths(n, random.Random(i).randrange(2**31))
             for n in (300, 400, 500, 600) for i in range(1, 6)]
    digest = hashlib.sha256()
    branches = Counter()
    for col in cols:
        cover, trace = solve4(col)
        branches[trace.branch] += 1
        digest.update(json.dumps(
            [format_cover(cover), trace.branch,
             json.dumps(trace.details, sort_keys=True, default=repr),
             list(trace.anomalies)]).encode())
    assert branches == {BRANCH_SINGLE_COLOUR: 83, BRANCH_SMALL_DIAM: 52,
                        BRANCH_LAYER_QUAD: 85}
    assert digest.hexdigest() == (
        "7d2c45449691fa6b5e49728a4e96f648590551d415c7c80a6467b402282a888f")


def test_relabelled_layer_quad_anomalies_pinned():
    # The instances of test_solve4_outputs_pinned that close in LayerQuad
    # are its two_paths draws.  A relabelled copy of one often sinks the
    # layer stage's quadruple cover in a degenerate multipartite_colour
    # call, and a later stage closes it.  The count documents that defect
    # until the layer stage is mended.  Here are the 65 draws of
    # layered_adversarial, copied with seed 0; all 85 instances with
    # seeds 0-2 give 224 of 255 copies with a layer-stage anomaly, 427
    # anomalies, and Intersecting 203, LayerQuad 31, LayerTriple7 21.
    seeds = [s for s in range(200) if random.Random(s).choice(
        ["four-blocks", "two-paths", "ladder"]) == "two-paths"]
    assert len(seeds) == 65
    with_anomaly, layer_anomalies, anomalies = 0, 0, 0
    branches = Counter()
    for seed in seeds:
        col = relabelled(layered_adversarial(seed), 0)
        cover, trace = solve4(col)
        check_solved(col, cover, trace)
        branches[trace.branch] += 1
        layer = [r for r in trace.stages if r.name == "layer mappings"]
        found = len(layer[0].anomalies) if layer else 0
        with_anomaly += found > 0
        layer_anomalies += found
        anomalies += len(trace.anomalies)
    assert (with_anomaly, layer_anomalies, anomalies) == (56, 107, 107)
    assert branches == {BRANCH_INTERSECTING: 51, BRANCH_LAYER_QUAD: 9,
                        BRANCH_LAYER_TRIPLE7: 5}


def test_sharpness_colouring_three_parts():
    col = sharpness_x()
    cover, trace = solve4(col)
    check_solved(col, cover, trace)


def test_section5_example_shape():
    col = section5_example(1, seed=0)
    assert col.n == 7 and col.k == 3
    assert len(col.host.missing) == 3
    assert col.colour_of(0, 2) == 1   # v1 v3
    assert col.colour_of(1, 3) == 2   # v2 v4
    assert col.colour_of(1, 2) == 3   # v2 v3
    assert not col.has_edge(0, 1)
