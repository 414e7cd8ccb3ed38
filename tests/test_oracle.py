"""Brute-force oracle: minimal covers, scans, the worked example's impossibility."""

import math
from collections import Counter

import pytest

from conftest import constant_colouring, random_colouring
from monocover.covers import verify_cover
from monocover.generators import section5_example
from monocover.oracle import (exhaustive_colouring_scan, min_cover_bruteforce,
                              minimal_bound)


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


def test_scan_random_large_checks_bound_zero():
    # bound 0 is a bound, not "use the default 160": no cover of K_12 by
    # three parts has every part of diameter 0, so every sample is a witness
    report = exhaustive_colouring_scan(12, 4, bound=0, max_parts=3,
                                       sampler="random", seed=1, count=3)
    assert report.fallbacks == 0
    assert len(report.witnesses) == 3


def test_minimal_bound_descent_shares_one_metrics_cache(monkeypatch):
    # Every min_cover_bruteforce call of a descent reads the colouring's one
    # MonoMetrics, so each (colour, vertex) distance row is computed once.
    from monocover import graphs, oracle
    rows = Counter()
    bfs_distances = graphs.bfs_distances

    def counted(adj, n, source, within=None):
        rows[id(adj), source] += 1
        return bfs_distances(adj, n, source, within)

    searches = 0
    bruteforce = oracle.min_cover_bruteforce

    def counted_search(*args, **kwargs):
        nonlocal searches
        searches += 1
        return bruteforce(*args, **kwargs)

    monkeypatch.setattr(graphs, "bfs_distances", counted)
    monkeypatch.setattr(oracle, "min_cover_bruteforce", counted_search)
    col = random_colouring(5, 3, seed=4)
    assert col.metrics is col.metrics
    assert minimal_bound(col, max_parts=2, start_bound=8) is not None
    assert searches > 1
    assert len(rows) == 3 * 5
    assert set(rows.values()) == {1}
