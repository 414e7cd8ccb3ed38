"""Cover verifier: validity rules, monotonicity, oracle agreement, file I/O."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_colouring, random_colouring, rejects
from monocover.covers import (Cover, CoverPart, format_cover, parse_cover,
                              verified, verify_cover)
from monocover.errors import ImpossibleByLemmaError
from monocover.graphs import DISCONNECTED, EdgeColouring, HostGraph, iter_bits, mask_of
from test_graphs import floyd_warshall_induced


def test_valid_single_part_cover():
    col = constant_colouring(5, 1, k=4)
    cover = Cover.of([(range(5), 1)], bound=1)
    rep = verify_cover(col, cover, bound=1, max_parts=3)
    assert rep.valid
    assert rep.parts[0].connected and rep.parts[0].diameter == 1
    assert not rep.uncovered


def test_invalid_cover_reports_disconnection_and_uncovered():
    col = constant_colouring(5, 1, k=4)
    cover = Cover.of([([0, 1], 2)], bound=1)
    rep = verify_cover(col, cover, bound=1, max_parts=3)
    assert not rep.valid
    assert rep.parts[0].diameter is DISCONNECTED
    assert rep.uncovered == {2, 3, 4}


def test_part_count_rule():
    col = constant_colouring(4, 1, k=2)
    cover = Cover.of([([0, 1], 1), ([2, 3], 1)], bound=1)
    rep = verify_cover(col, cover, bound=1, max_parts=1)
    assert not rep.part_count_ok and not rep.valid
    assert verify_cover(col, cover, bound=1, max_parts=2).valid


def test_default_bound_and_max_parts():
    col = constant_colouring(4, 1, k=3)
    cover = Cover.of([(range(4), 1)], bound=1)
    assert verify_cover(col, cover).valid  # bound 1, max_parts k-1 = 2


def test_overlapping_parts_allowed():
    col = constant_colouring(4, 1, k=2)
    cover = Cover.of([([0, 1, 2], 1), ([2, 3], 1)], bound=1)
    assert verify_cover(col, cover, bound=1, max_parts=2).valid


def test_out_of_range_inputs_raise():
    col = constant_colouring(3, 1, k=2)
    with pytest.raises(ValueError):
        verify_cover(col, Cover.of([([0, 7], 1)], 1), bound=1)
    with pytest.raises(ValueError):
        verify_cover(col, Cover.of([([0, 1], 5)], 1), bound=1)
    with pytest.raises(ValueError):
        Cover.of([], bound=1)
    with pytest.raises(ValueError):
        CoverPart(frozenset(), 1)
    cover = Cover.of([(range(3), 1)], 1)
    for bound in (-1, 1.5, -math.inf):
        with pytest.raises(ValueError, match="bound must be"):
            verify_cover(col, cover, bound=bound)
    for max_parts in (0, -2):
        with pytest.raises(ValueError, match="max_parts must be"):
            verify_cover(col, cover, max_parts=max_parts)
    assert verify_cover(col, cover, bound=math.inf, max_parts=1).valid


def test_monotone_in_bound_and_deterministic(rng):
    for _ in range(25):
        n = rng.randint(2, 9)
        col = random_colouring(n, 3, seed=rng.randint(0, 10**6))
        parts = []
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, n)
            parts.append((rng.sample(range(n), size), rng.randint(1, 3)))
        cover = Cover.of(parts, bound=2)
        reports = [verify_cover(col, cover, bound=b, max_parts=2) for b in range(n + 2)]
        assert reports == [verify_cover(col, cover, bound=b, max_parts=2)
                           for b in range(n + 2)]
        for lo, hi in zip(reports, reports[1:]):
            if lo.valid:
                assert hi.valid


def test_part_diameters_agree_with_all_pairs_oracle(rng):
    for _ in range(20):
        n = rng.randint(2, 12)
        col = random_colouring(n, 4, seed=rng.randint(0, 10**6))
        verts = rng.sample(range(n), rng.randint(1, n))
        c = rng.randint(1, 4)
        cover = Cover.of([(verts, c)], bound=n)
        rep = verify_cover(col, cover, bound=n, max_parts=3)
        assert rep.parts[0].diameter == floyd_warshall_induced(col, c, verts)


def skewed_colouring(n, rng):
    """A 4-colouring of K_n whose colour weights are drawn per instance, so
    that a rare colour gives long induced paths and large eccentricities."""
    weights = [rng.random() ** 3 + 0.01 for _ in range(4)]
    colour = {(u, v): rng.choices((1, 2, 3, 4), weights)[0]
              for u in range(n) for v in range(u + 1, n)}
    return EdgeColouring.from_pairs(HostGraph.complete(n), 4, colour)


def random_part(col, rng):
    n, c = col.n, rng.randint(1, 4)
    kind = rng.randrange(4)
    if kind == 0:    # any subset, often disconnected
        vs = rng.sample(range(n), rng.randint(1, n))
    elif kind == 1:  # a ball, connected with eccentricity up to r from x
        vs = iter_bits(col.metrics.ball_mask(c, rng.randrange(n), rng.randint(0, n)))
    elif kind == 2:  # a whole component
        vs = iter_bits(rng.choice(col.metrics.component_masks(c)))
    else:
        vs = range(n)
    return CoverPart(frozenset(vs), c)


def as_masks(parts):
    """The ``(mask, colour)`` pairs that ``verified`` takes."""
    return [(mask_of(p.vertices), p.colour) for p in parts]


def test_verified_agrees_with_verify_cover():
    # verified decides by threshold; it must accept exactly the covers
    # verify_cover calls valid with at most k-1 parts, and on a failure
    # give the witness made from verify_cover's exact report.
    rng = random.Random(20261018)
    outcomes = {"valid": 0, "invalid": 0, "ValueError": 0}
    for case in range(1500):
        n = rng.randint(1, 14)
        col = skewed_colouring(n, rng)
        parts = [random_part(col, rng) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:   # cover the rest with one part, maybe disconnected
            left = set(range(n)).difference(*(p.vertices for p in parts))
            if left:
                parts.append(CoverPart(frozenset(left), rng.randint(1, 4)))
        if rng.random() < 0.1:   # a colour or a vertex out of range
            i = rng.randrange(len(parts))
            bad = (CoverPart(parts[i].vertices, rng.choice((0, 5))) if rng.random() < 0.5
                   else CoverPart(parts[i].vertices | {rng.choice((-1, n))}, parts[i].colour))
            parts[i] = bad
        bound = math.inf if rng.random() < 0.1 else rng.randint(0, n + 1)
        cover = Cover(tuple(parts), bound)
        try:
            report = verify_cover(col, cover, bound=bound)
        except ValueError as exc:
            # a mask cannot hold vertex -1, so verified never sees it
            if all(v >= 0 for p in parts for v in p.vertices):
                with pytest.raises(ValueError) as got:
                    verified(col, as_masks(parts), bound, "case", {"case": case})
                assert str(got.value) == str(exc)
            outcomes["ValueError"] += 1
            continue
        if report.valid:
            assert verified(col, as_masks(parts), bound, "case", {"case": case}) == cover
            outcomes["valid"] += 1
            continue
        with pytest.raises(ImpossibleByLemmaError) as got:
            verified(col, as_masks(parts), bound, "case", {"case": case})
        assert str(got.value) == "case: cover failed verification"
        assert got.value.witness == {
            "case": case, "uncovered": sorted(report.uncovered),
            "parts": [(sorted(p.vertices), p.colour, repr(r.diameter))
                      for p, r in zip(parts, report.parts)]}
        outcomes["invalid"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_verified_rejects_vertices_beyond_n():
    # a part whose lowest vertex lies beyond n has no adjacency row to read
    col = EdgeColouring.build(HostGraph.complete(4), 3, lambda u, v: 1)
    for mask in (1 << 4, 1 << 4 | 1 << 9, 1 << 4 | 1):
        cover = Cover.of([(iter_bits(mask), 1), (range(4), 1)], 3)
        with pytest.raises(ValueError, match="part vertex out of range"):
            verify_cover(col, cover, bound=3)
        with pytest.raises(ValueError, match="part vertex out of range"):
            verified(col, [(mask, 1), (15, 1)], 3, "case")


def test_verify_cover_rejects_a_huge_vertex_before_building_a_mask():
    # a cover file may name any vertex of up to 18 digits; the range check
    # must come before the part's mask, whose top bit would be that vertex
    col = constant_colouring(3, 1, k=2)
    cover = Cover.of([([0, 10**18 - 1], 1), ([0, 1, 2], 1)], 1)
    with pytest.raises(ValueError, match="part vertex out of range"):
        verify_cover(col, cover, bound=1)


def test_cover_file_roundtrip():
    cover = Cover.of([([0, 1, 2], 1), ([2, 4], 3)], bound=160)
    text = format_cover(cover)
    assert text.splitlines()[0] == "parts=2 bound=160"
    back = parse_cover(text)
    assert back == cover
    inf_cover = Cover.of([([0], 1)], bound=math.inf)
    assert parse_cover(format_cover(inf_cover)) == inf_cover


def test_cover_file_rejects_bad_headers():
    with pytest.raises(ValueError):
        parse_cover("parts=2 bound=1\n1: 0\n")
    with pytest.raises(ValueError):
        parse_cover("bound=1\n1: 0\n")


def test_cover_file_errors_quote_the_line():
    cases = [("parts 1 bound=1\n1: 0\n", "bad cover header: 'parts 1 bound=1'"),
             ("parts=1 bound=1\n1 0 1\n", "bad cover part line '1 0 1'"),
             ("parts=1 bound=1\n1: 0 x\n", "bad cover part line '1: 0 x'"),
             ("parts=1 bound=1\n1:\n", "bad cover part line '1:'"),
             ("parts=2 bound=1\n1: 0\n", "announces 2 parts, the file lists 1")]
    cases += [("parts=1 bound=1_6_0\n1: 0\n", "bad cover header: 'parts=1 bound=1_6_0'"),
              ("parts=1 bound=1\n+1: 0\n", "bad cover part line '\\+1: 0'"),
              ("parts=1 bound=1\n1: \u0663\n", "bad cover part line '1: \u0663'")]
    cases += [("parts=9 parts=1 bound=5 colour=7 bound=1\n1: 0 1\n",
               "bad cover header: 'parts=9 parts=1 bound=5 colour=7 bound=1'"),
              ("parts=1 bound=1 parts=1\n1: 0\n",
               "bad cover header: 'parts=1 bound=1 parts=1'"),
              ("parts=1 bound=1 colour=1\n1: 0\n",
               "bad cover header: 'parts=1 bound=1 colour=1'")]
    for text, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_cover(text)
    # a comment runs to the end of its line, indented or not
    text = "# cover\nparts=1 bound=1  # one part\n  # indented\n1: 0 1 # tail\n"
    assert parse_cover(text) == Cover.of([([0, 1], 1)], bound=1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.frozensets(st.integers(0, 40), min_size=1),
                          st.integers(1, 4)), min_size=1, max_size=4),
       st.one_of(st.just(math.inf), st.integers(0, 500)), st.data())
def test_cover_file_roundtrip_and_mutations(parts, bound, data):
    cover = Cover(tuple(CoverPart(vs, c) for vs, c in parts), bound)
    lines = format_cover(cover).splitlines()
    assert parse_cover("\n".join(lines) + "\n") == cover
    commented = ["# a cover", lines[0] + " # header", "  # note"] + lines[1:]
    assert parse_cover("\n".join(commented)) == cover
    i = data.draw(st.integers(1, len(lines) - 1), label="part line")
    j = data.draw(st.integers(0, 1), label="header token")
    mutants = {
        "part line dropped": lines[:i] + lines[i + 1:],
        "part line duplicated": lines[:i + 1] + lines[i:],
        "header token without '='": [lines[0].replace("=", " ", 1)] + lines[1:],
        "header value not an integer": [lines[0] + "x"] + lines[1:],
        "vertex not an integer": lines[:i] + [lines[i] + " x"] + lines[i + 1:],
        "colour not an integer": lines[:i] + ["x" + lines[i]] + lines[i + 1:],
        "part line without ':'": lines[:i] + [lines[i].replace(":", "")] + lines[i + 1:],
        "vertex with a sign": lines[:i] + [lines[i] + " +1"] + lines[i + 1:],
        "vertex with underscores": lines[:i] + [lines[i] + " 0_1"] + lines[i + 1:],
        "non-ASCII digit": lines[:i] + [lines[i] + " \u0663"] + lines[i + 1:],
        "19-digit vertex": lines[:i] + [lines[i] + " " + "1" * 19] + lines[i + 1:],
        "colour with a sign": lines[:i] + ["+" + lines[i]] + lines[i + 1:],
        "part count with underscores": [lines[0].replace("parts=", "parts=0_", 1)] + lines[1:],
        "a header token duplicated": [lines[0] + " " + lines[0].split()[j]] + lines[1:],
    }
    assert [what for what, mutant in mutants.items()
            if not rejects(parse_cover, "\n".join(mutant) + "\n")] == []
