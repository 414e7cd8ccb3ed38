"""Cover data model and the verifier every solver output must pass.

:func:`verify_cover` judges a cover and reports exact part diameters,
which the CLI's ``verify`` lines and the oracle read.  It checks
each part's lowest and highest vertex against the range before it builds
the part's vertex mask, which a vertex from a cover file could make
huge.  It then takes that mask once, settles coverage with one OR, and
reads the diameter from :func:`graphs.diameter_of_mask`: a part with a
vertex that sees all the rest needs no BFS, and its degree pass ends as
soon as it has met such a vertex and one that does not; otherwise an
iFUB sweep runs, which skips each vertex whose eccentricity an earlier
BFS bounds by the largest one found, and in a dense part each BFS ends
its level after the few adjacency rows that hold the rest of the part.
:func:`verified` is the verify-or-raise step that every construction in
``solver`` and ``layers`` returns through.  The constructions hold
vertex sets as bitmasks and hand :func:`verified` ``(mask, colour)``
pairs; it is the one place where they become :class:`CoverPart`
frozensets, each mask's vertex list read in one numpy step by
:func:`graphs.bits_of`.  It decides by threshold: one BFS per part
settles "diameter <= bound" unless the bound lies between an
eccentricity and twice it, so exact diameters are computed only by
:func:`verify_cover`, and by :func:`verified` only for the witness of a
cover that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ImpossibleByLemmaError
from .graphs import (DISCONNECTED, EdgeColouring, bits_of, diameter_of_mask,
                     diameter_within, iter_bits, mask_of, parse_decimal)


def _check_bound(bound: float, name: str) -> None:
    if bound != math.inf and (bound < 0 or int(bound) != bound):
        raise ValueError(f"{name} must be a nonnegative integer or inf")


@dataclass(frozen=True)
class CoverPart:
    vertices: frozenset[int]
    colour: int

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("cover parts must be nonempty")


@dataclass(frozen=True)
class Cover:
    """Claimed cover: (vertex set, colour) pairs plus a claimed diameter bound.

    Parts may overlap; whether the union spans and each part is connected
    within its claimed bound is the verifier's job, not the constructor's.
    ``claimed_bound`` is an integer or ``math.inf`` for connectivity-only
    covers.
    """

    parts: tuple[CoverPart, ...]
    claimed_bound: float

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a cover needs at least one part")
        _check_bound(self.claimed_bound, "claimed_bound")

    @classmethod
    def of(cls, parts: Iterable[tuple[Iterable[int], int]], bound: float) -> "Cover":
        return cls(tuple(CoverPart(frozenset(vs), c) for vs, c in parts), bound)


@dataclass(frozen=True)
class PartReport:
    connected: bool
    diameter: object  # int, or DISCONNECTED


@dataclass(frozen=True)
class CoverReport:
    valid: bool
    parts: tuple[PartReport, ...]
    uncovered: frozenset[int]
    part_count_ok: bool


def _check_part(colouring: EdgeColouring, colour: int, in_range: bool) -> None:
    """Raise for a part colour out of range, then for a part vertex out of
    range, which the caller has settled in ``in_range``."""
    if colour < 1 or colour > colouring.k:
        raise ValueError(f"part colour {colour} out of range")
    if not in_range:
        raise ValueError("part vertex out of range")


def verify_cover(colouring: EdgeColouring, cover: Cover,
                 bound: float | None = None,
                 max_parts: int | None = None) -> CoverReport:
    """Judge a claimed cover; pure and deterministic.

    Valid iff the parts cover every vertex, each part induces a connected
    monochromatic subgraph of diameter <= bound, and there are at most
    ``max_parts`` parts (default k-1).  Each part's diameter is exact.
    A bound that is negative or not an integer (``math.inf`` is allowed)
    or a ``max_parts`` below 1 raises ValueError.
    """
    if bound is None:
        bound = cover.claimed_bound
    _check_bound(bound, "bound")
    if max_parts is None:
        max_parts = colouring.k - 1
    elif max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    n = colouring.n
    covered = 0
    reports = []
    all_ok = True
    for part in cover.parts:
        _check_part(colouring, part.colour,
                    min(part.vertices) >= 0 and max(part.vertices) < n)
        mask = mask_of(part.vertices)
        diam = diameter_of_mask(colouring.adj_rows(part.colour), mask)
        connected = diam is not DISCONNECTED
        reports.append(PartReport(connected, diam))
        if not connected or diam > bound:
            all_ok = False
        covered |= mask
    uncovered = frozenset(iter_bits(~covered & ((1 << n) - 1)))
    part_count_ok = len(cover.parts) <= max_parts
    valid = all_ok and not uncovered and part_count_ok
    return CoverReport(valid, tuple(reports), uncovered, part_count_ok)


def verified(colouring: EdgeColouring, parts: Iterable[tuple[int, int]],
             bound: float, what: str, witness: dict | None = None) -> Cover:
    """The cover of ``parts``, ``(vertex mask, colour)`` pairs, at ``bound``,
    if :func:`verify_cover` would call it valid with at most k-1 parts.

    Constructions return through this helper, and it alone turns their
    masks into :class:`CoverPart` frozensets.  It decides each part by
    :func:`graphs.diameter_within`, a threshold test that costs one BFS
    when twice the part's eccentricity is within the bound, and raises
    the same ``ValueError`` as :func:`verify_cover` for a colour or vertex
    out of range.  Only a failing cover is passed to :func:`verify_cover`:
    the :class:`ImpossibleByLemmaError` then raised has a witness that adds
    to ``witness`` the uncovered vertices and, per part, its full sorted
    vertex list, colour and exact diameter, enough to replay the check.
    """
    parts = list(parts)
    cover = Cover.of(((bits_of(mask), c) for mask, c in parts), bound)
    valid = len(parts) <= colouring.k - 1
    n = colouring.n
    covered = 0
    for mask, c in parts:
        _check_part(colouring, c, not mask >> n)
        covered |= mask
        valid = valid and diameter_within(colouring.adj_rows(c), mask, bound)
    if valid and covered == (1 << n) - 1:
        return cover
    report = verify_cover(colouring, cover, bound=bound)
    witness = dict(witness or {})
    witness["uncovered"] = sorted(report.uncovered)
    witness["parts"] = [(sorted(p.vertices), p.colour, repr(r.diameter))
                        for p, r in zip(cover.parts, report.parts)]
    raise ImpossibleByLemmaError(f"{what}: cover failed verification", witness)


# -- cover file format ----------------------------------------------------


def format_cover(cover: Cover) -> str:
    bound = "inf" if cover.claimed_bound == math.inf else str(int(cover.claimed_bound))
    out = [f"parts={len(cover.parts)} bound={bound}"]
    for part in cover.parts:
        vs = " ".join(str(v) for v in sorted(part.vertices))
        out.append(f"{part.colour}: {vs}")
    return "\n".join(out) + "\n"


def parse_cover(text: str) -> Cover:
    """Parse a cover file; ``#`` starts a comment that runs to the end of
    its line.  Numbers are 1 to 18 ASCII decimal digits, as in colouring
    files.  A malformed file raises ValueError quoting the bad line."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty cover file")
    try:
        toks = [tok.split("=", 1) for tok in lines[0].split()]
        head = dict(toks)
        if len(toks) != 2 or head.keys() != {"parts", "bound"}:
            raise ValueError("want 'parts=N bound=B', each key once")
        count = parse_decimal(head["parts"])
        bound = math.inf if head["bound"] == "inf" else parse_decimal(head["bound"])
    except ValueError as exc:
        raise ValueError(f"bad cover header: {lines[0]!r}") from exc
    if len(lines) - 1 != count:
        raise ValueError(f"header {lines[0]!r} announces {count} parts, "
                         f"the file lists {len(lines) - 1}")
    parts = []
    for line in lines[1:]:
        colour, colon, rest = line.partition(":")
        try:
            if not colon:
                raise ValueError("want 'colour: v1 v2 ...'")
            parts.append(CoverPart(frozenset(map(parse_decimal, rest.split())),
                                   parse_decimal(colour.strip())))
        except ValueError as exc:
            raise ValueError(f"bad cover part line {line!r}: {exc}") from exc
    return Cover(tuple(parts), bound)
