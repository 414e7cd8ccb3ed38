"""Brute-force ground truth: minimal covers at tiny sizes, exhaustive scans.

Everything here is independent of the constructive solvers: covers are
found by enumerating canonical vertex partitions with per-part colour
tuples, pruning on component membership and ambient distances, and
finishing each part with an exact extension search inside its candidate
pool.  Scans canonicalize colourings up to colour permutation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product

from .covers import Cover, CoverPart, verify_cover
from .graphs import (EdgeColouring, HostGraph, diameter_within, iter_bits,
                     set_diameter)
from .solver import BRANCH_FALLBACK, solve4

MAX_ORACLE_VERTICES = 14


def min_cover_bruteforce(colouring: EdgeColouring, max_parts: int,
                         bound: int | None = None) -> Cover | None:
    """A valid cover within the bound and part budget, or None if none exists.

    ``bound=None`` asks for connectivity only.  Exhaustive: vertices are
    assigned to base parts in canonical order (parts indexed by first
    contained vertex), partial assignments are pruned by component
    membership and ambient distance, and each base part may then grow
    inside its feasibility pool, which is complete for existence because
    any valid superset lives inside the pool.
    """
    n = colouring.n
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices")
    if max_parts < 1:
        raise ValueError("need a positive part budget")
    if bound is not None and bound == math.inf:
        bound = None
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

    def compatible(c, u, v) -> bool:
        d = dist[c][u][v]
        if d < 0:
            return False
        return bound is None or d <= bound

    def extend(mask, c) -> int | None:
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

    def search(p, colours) -> Cover | None:
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
                return Cover(tuple(final), math.inf if bound is None else bound)
            for b in range(min(used + 1, p)):
                c = colours[b]
                ok = all(compatible(c, v, u) for u in iter_bits(masks[b]))
                if ok:
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


def minimal_bound(colouring: EdgeColouring, max_parts: int,
                  start_bound: int) -> int | None:
    """Smallest bound at which a cover exists, descending from start_bound."""
    cover = min_cover_bruteforce(colouring, max_parts, start_bound)
    if cover is None:
        return None
    while True:
        worst = max(set_diameter(colouring, p.colour, p.vertices)
                    for p in cover.parts)
        if worst == 0:
            return 0
        lower = min_cover_bruteforce(colouring, max_parts, worst - 1)
        if lower is None:
            return worst
        cover = lower


@dataclass
class ScanReport:
    params: dict
    instances_checked: int = 0
    worst_bound_needed: int = 0
    witnesses: list = field(default_factory=list)
    fallbacks: int = 0
    complete: bool = True

    def summary(self) -> str:
        lines = [
            "scan " + " ".join(f"{k}={v}" for k, v in self.params.items()),
            f"instances_checked     {self.instances_checked}",
            f"worst_bound_needed    {self.worst_bound_needed}",
            f"witnesses             {len(self.witnesses)}",
            f"fallbacks             {self.fallbacks}",
            f"complete              {self.complete}",
        ]
        return "\n".join(lines)


def _canonical_colour_tuple(codes: tuple[int, ...]) -> bool:
    """True iff the edge-colour tuple is minimal over colour permutations.

    That is: each colour first appears after every smaller one.
    """
    top = 0
    for c in codes:
        if c > top + 1:
            return False
        top = max(top, c)
    return True


def exhaustive_colouring_scan(n: int, k: int, bound: int | None,
                              max_parts: int, sampler: str = "exhaustive",
                              seed: int = 0, count: int = 0,
                              limit: int | None = None) -> ScanReport:
    """Scan colourings for instances needing more than the stated bound.

    Exhaustive mode enumerates colourings of K_n up to colour permutation
    and computes the minimal achievable bound per instance; random mode
    samples ``count`` seeds and uses the oracle at tiny sizes or the
    4-colour solver plus the verifier at larger ones.  ``limit`` caps the
    number of instances processed; exceeding it flags the report.
    """
    params = {"n": n, "k": k, "bound": bound, "max_parts": max_parts,
              "sampler": sampler}
    report = ScanReport(params=params)
    pairs = list(combinations(range(n), 2))
    host = HostGraph.complete(n)
    if sampler == "exhaustive":
        total = k ** len(pairs)
        if total > 10 ** 8:
            raise ValueError("exhaustive scan too large")
        for code in range(total):
            digits = []
            x = code
            for _ in pairs:
                digits.append(x % k + 1)
                x //= k
            codes = tuple(digits)
            if not _canonical_colour_tuple(codes):
                continue
            if limit is not None and report.instances_checked >= limit:
                report.complete = False
                break
            colouring = EdgeColouring.from_pairs(
                host, k, dict(zip(pairs, codes)))
            report.instances_checked += 1
            need = minimal_bound(colouring, max_parts,
                                 n if bound is None else max(bound, n))
            if need is None or (bound is not None and need > bound):
                report.witnesses.append(codes)
            if need is not None:
                report.worst_bound_needed = max(report.worst_bound_needed, need)
    elif sampler == "random":
        rng = random.Random(seed)
        for i in range(count):
            if limit is not None and report.instances_checked >= limit:
                report.complete = False
                break
            sub_seed = rng.randint(0, 10 ** 9)
            report.instances_checked += 1
            if n <= 10:
                sub = random.Random(sub_seed)
                colouring = EdgeColouring.build(
                    host, k, lambda u, v: sub.randint(1, k))
                need = minimal_bound(colouring, max_parts,
                                     n if bound is None else max(bound, n))
                if need is None or (bound is not None and need > bound):
                    report.witnesses.append(sub_seed)
                if need is not None:
                    report.worst_bound_needed = max(report.worst_bound_needed,
                                                    need)
            else:
                if k != 4:
                    raise ValueError("large random scans need k = 4")
                from .generators import random_uniform
                colouring = random_uniform(n, 4, sub_seed)
                cover, trace = solve4(colouring)
                if trace.branch == BRANCH_FALLBACK:
                    report.fallbacks += 1
                    report.witnesses.append(sub_seed)
                    continue
                rep = verify_cover(colouring, cover,
                                   bound=160 if bound is None else bound,
                                   max_parts=max_parts)
                if not rep.valid:
                    report.witnesses.append(sub_seed)
                worst = max((r.diameter for r in rep.parts
                             if isinstance(r.diameter, int)), default=0)
                report.worst_bound_needed = max(report.worst_bound_needed, worst)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    return report
