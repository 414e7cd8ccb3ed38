"""Checks made apart from the program.

Nothing here imports monocover.  Colourings are read as numpy colour
matrices (from a `.col` file or from the benchmark's own matrix), covers
are read from their text or from plain (vertices, colour) pairs, and
induced diameters come from scipy's breadth-first all-pairs search.
"""

from __future__ import annotations

import json
import math
import re
from itertools import permutations

import numpy as np

COVER_BOUND = 160
MAX_PARTS = 3
K = 4


def read_col(text: str, n: int) -> np.ndarray:
    """Colour matrix of a complete 4-coloured `K_n` from its `.col` text."""
    head, _, body = text.partition("\n")
    if head.split() != [str(n), str(K)]:
        raise ValueError(f"header {head!r} is not '{n} {K}'")
    triples = np.array(body.split(), dtype=np.int64).reshape(-1, 3)
    u, v, c = triples.T
    if len(triples) != n * (n - 1) // 2:
        raise ValueError(f"{len(triples)} pair lines, want {n * (n - 1) // 2}")
    if (u < 0).any() or (v >= n).any() or (u >= v).any():
        raise ValueError("pair out of range or not listed as u < v")
    if len(np.unique(u * n + v)) != len(u):
        raise ValueError("a pair is listed twice")
    if (c < 1).any() or (c > K).any():
        raise ValueError(f"colour outside 1..{K}")
    mat = np.zeros((n, n), dtype=np.uint8)
    mat[u, v] = c
    mat[v, u] = c
    return mat


def read_cover(text: str) -> tuple[float, list[tuple[tuple[int, ...], int]]]:
    """(claimed bound, [(vertices, colour)]) from a cover file's text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    got = re.fullmatch(r"parts=(\d+) bound=(\d+|inf)", lines[0].strip())
    if got is None or int(got[1]) != len(lines) - 1:
        raise ValueError(f"bad cover header {lines[0]!r}")
    bound = math.inf if got[2] == "inf" else int(got[2])
    parts = []
    for line in lines[1:]:
        colour, _, verts = line.partition(":")
        parts.append((tuple(int(t) for t in verts.split()), int(colour)))
    return bound, parts


def induced_diameter(mat: np.ndarray, verts, colour: int) -> int | None:
    """Diameter of the colour-`colour` graph induced on `verts`; None if
    that graph is disconnected."""
    # Imported here, after the timed phase: the program never loads scipy,
    # so it must not count in the benchmark process's peak resident set.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    idx = np.array(sorted(set(verts)), dtype=np.int64)
    sub = mat[np.ix_(idx, idx)] == colour
    dist = shortest_path(csr_matrix(sub), directed=False, unweighted=True)
    if np.isinf(dist).any():
        return None
    return int(dist.max())


def cover_check(mat: np.ndarray, parts) -> tuple[list[int | None], list[str]]:
    """Exact part diameters and the ways in which `parts` is not a cover
    of at most three parts, each connected in its colour with diameter at
    most 160, whose union is every vertex."""
    n = len(mat)
    problems = []
    if not 1 <= len(parts) <= MAX_PARTS:
        problems.append(f"{len(parts)} parts")
    covered = np.zeros(n, dtype=bool)
    diams = []
    for i, (verts, colour) in enumerate(parts):
        if not verts or min(verts) < 0 or max(verts) >= n or not 1 <= colour <= K:
            problems.append(f"part {i} out of range")
            diams.append(None)
            continue
        covered[list(verts)] = True
        diam = induced_diameter(mat, verts, colour)
        diams.append(diam)
        if diam is None:
            problems.append(f"part {i} is disconnected in colour {colour}")
        elif diam > COVER_BOUND:
            problems.append(f"part {i} has diameter {diam} > {COVER_BOUND}")
    if not covered.all():
        problems.append(f"{int((~covered).sum())} vertices uncovered, "
                        f"first {int(np.flatnonzero(~covered)[0])}")
    return diams, problems


def agree(what: str, reported, exact) -> list[str]:
    return [] if reported == exact else [f"{what}: program says {reported!r}, check says {exact!r}"]


def cli_check(n: int, col_text: str, cover_text: str, trace_text: str,
              solve_out: str, verify_out: str, codes: tuple[int, int, int]) -> list[str]:
    """Problems of one gen -> solve -> verify chain."""
    problems = []
    mat = read_col(col_text, n)
    bound, parts = read_cover(cover_text)
    diams, bad = cover_check(mat, parts)
    problems += bad
    valid = not bad
    problems += agree("claimed bound", bound, COVER_BOUND)
    trace = json.loads(trace_text)
    branch = trace["branch"]
    if branch == "ConnectivityFallback":
        problems.append("solve ended in ConnectivityFallback")
    problems += agree("trace valid", trace["valid"], valid)
    problems += agree("trace parts", [(p["colour"], p["size"], p["diameter"]) for p in trace["parts"]],
                      [(c, len(set(vs)), "disconnected" if d is None else repr(d))
                       for (vs, c), d in zip(parts, diams)])
    problems += agree("solve line", solve_out.strip(),
                      f"branch {branch} parts {len(parts)} valid {valid}")
    lines = [f"part {i}: connected {d is not None} diameter {d if d is not None else 'disconnected'}"
             for i, d in enumerate(diams)]
    problems += agree("verify lines", verify_out.splitlines()[:len(parts)], lines)
    problems += agree("verify verdict", verify_out.splitlines()[-1:], [f"valid {valid}"])
    problems += agree("exit codes (gen, solve, verify)", codes, (0, 0, 0) if valid else (0, 2, 2))
    return problems


def cascade_check(mat: np.ndarray, parts, branch: str, valid: bool,
                  diams) -> list[str]:
    """Problems of one in-process `solve4` + `verify_cover` result; `diams`
    holds None for a part `verify_cover` found disconnected."""
    exact, problems = cover_check(mat, parts)
    problems += agree("verify_cover valid", valid, not problems)
    problems += agree("verify_cover diameters", list(diams), exact)
    if branch == "ConnectivityFallback":
        problems.append("solve4 ended in ConnectivityFallback")
    return problems


def orbit_count(k: int, m: int) -> int:
    """Colourings of m edges with k colours up to colour permutation, by
    Burnside's lemma: (1/k!) * sum over permutations of fix(sigma)^m."""
    perms = list(permutations(range(k)))
    total = sum(sum(p[i] == i for i in range(k)) ** m for p in perms)
    return total // len(perms)


def two_paths_problems(mat: np.ndarray) -> list[str]:
    """Ways in which `mat` is not a two-paths colouring: colour 1 on the
    path 0, 1, ..., n-1; colour 2 on the path through the even vertices
    and then the odd ones; colour 4 on the other pairs at vertex 0,
    colour 3 on the other pairs at vertex 1, colours 3 or 4 elsewhere."""
    n = len(mat)
    want = np.zeros((n, n), dtype=np.uint8)
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    want[0, :] = want[:, 0] = 4
    want[1, :] = want[:, 1] = 3
    for a, b in zip(order, order[1:]):
        want[a, b] = want[b, a] = 2
    idx = np.arange(n - 1)
    want[idx, idx + 1] = want[idx + 1, idx] = 1
    np.fill_diagonal(want, 0)
    fixed = want != 0
    free = ~fixed
    np.fill_diagonal(free, False)
    problems = []
    if (mat[fixed] != want[fixed]).any() or np.diagonal(mat).any():
        problems.append("a path or chord at vertex 0 or 1 has the wrong colour")
    if not np.isin(mat[free], (3, 4)).all():
        problems.append("a free chord is not coloured 3 or 4")
    return problems
