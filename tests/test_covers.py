"""Cover verifier: validity rules, monotonicity, oracle agreement, file I/O."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_colouring, random_colouring, rejects
from monocover.covers import (Cover, CoverPart, format_cover, parse_cover,
                              verify_cover)
from monocover.graphs import DISCONNECTED
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
    mutants = {
        "part line dropped": lines[:i] + lines[i + 1:],
        "part line duplicated": lines[:i + 1] + lines[i:],
        "header token without '='": [lines[0].replace("=", " ", 1)] + lines[1:],
        "header value not an integer": [lines[0] + "x"] + lines[1:],
        "vertex not an integer": lines[:i] + [lines[i] + " x"] + lines[i + 1:],
        "colour not an integer": lines[:i] + ["x" + lines[i]] + lines[i + 1:],
        "part line without ':'": lines[:i] + [lines[i].replace(":", "")] + lines[i + 1:],
    }
    assert [what for what, mutant in mutants.items()
            if not rejects(parse_cover, "\n".join(mutant) + "\n")] == []
