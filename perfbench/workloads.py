"""The four workloads.

Each one is a closed loop with one client in one process.  A round is a
fixed list of operations made from the seed at set-up; a run repeats whole
rounds, so every run of a workload attempts the same operations.

An operation returns a record: ``steps`` (step name -> seconds on the
reference host, see `Stopwatch`),
``branch`` (the solver branch that closed it, or None) and ``result``
(what the traced replay must reproduce).
``check`` turns a record into a list of problems, using only the
computations in ``check.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from monocover import cli, covers, generators, graphs, oracle, solver


# About the fastest time of `reference_job` on the machine of the
# reference figures in README.md.
REFERENCE_S = 0.040


def reference_job() -> int:
    """Fixed pure-Python work of the program's kind, apart from the program:
    integers parsed from text into adjacency lists, then a breadth-first
    search, ten times over on a small graph so that it holds little memory."""
    reached = 0
    for rep in range(10):
        text = " ".join(str((i + rep) * 7919 % 211) for i in range(8000))
        vals = [int(t) for t in text.split()]
        adj = {}
        for u, v in zip(vals[::2], vals[1::2]):
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        dist = {vals[0]: 0}
        frontier = [vals[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        reached += len(dist)
    return reached


class Stopwatch:
    """Turns a step's wall time into seconds on the reference host.

    The host's speed drifts by a quarter and more over seconds to minutes.
    So the reference job runs between consecutive steps, and a step's wall
    time is scaled by REFERENCE_S over the mean of the reference times just
    before and just after it: a slow spell that spans the step and its two
    neighbours cancels.  Call it as soon as the step ends."""

    def __init__(self):
        self._reference()
        self.before = self._reference()

    @staticmethod
    def _reference() -> float:
        t0 = time.perf_counter()
        reference_job()
        return time.perf_counter() - t0

    def __call__(self, wall_s: float) -> float:
        after = self._reference()
        scaled = wall_s * REFERENCE_S * 2 / (self.before + after)
        self.before = after
        return scaled


class Workload:
    min_rounds = 1

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.ops: list = []
        self.watch = Stopwatch()

    def setup(self) -> list:
        """The round's operations, made from the seed."""
        raise NotImplementedError

    def run(self, op, k: int) -> dict:
        """The measured path of operation ``op``, the ``k``-th of the run."""
        return self.replay(op, k)

    def replay(self, op, k: int) -> dict:
        """The same operation in this process, where tracing can see it."""
        raise NotImplementedError

    def check(self, op, rec: dict) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self, records: list[dict]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliUniform(Workload):
    """gen random-uniform, solve --trace -o, verify, as `monocover` runs them."""

    name = "cli-uniform"
    sizes = (300, 550, 800)
    min_rounds = 4

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([path] if path else [])))

    def _child(self, argv: list[str]) -> tuple[float, float, int, str]:
        """(seconds, peak RSS in MB, exit code, stdout) of one program child.

        `python -m monocover.cli` runs the same `main` as the `monocover`
        console script, from the checkout's sources.
        """
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "monocover.cli", *argv],
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (time.perf_counter() - t0, usage.ru_maxrss / 1024,
                proc.returncode, out.decode())

    def setup(self):
        # Inputs are three seeded commands; what set-up pays for is one
        # program start (interpreter, imports, bytecode) that does no work.
        _, _, code, out = self._child(["--help"])
        if code != 0:
            raise RuntimeError(f"monocover --help exited {code}: {out}")
        rng = random.Random(self.seed)
        return [(n, rng.randrange(2 ** 31)) for n in self.sizes]

    def _argvs(self, op, k: int, tag: str) -> tuple[list[str], ...]:
        n, gen_seed = op
        stem = str(self.out_dir / f"{tag}{k}-n{n}")
        return (["gen", "random-uniform", "--n", str(n), "--k", "4",
                 "--seed", str(gen_seed), "-o", stem + ".col"],
                ["solve", stem + ".col", "-o", stem + ".cov", "--trace", stem + ".json"],
                ["verify", stem + ".col", stem + ".cov"])

    def _record(self, op, k, tag, steps) -> dict:
        n, _ = op
        stem = self.out_dir / f"{tag}{k}-n{n}"
        texts = [Path(f"{stem}{ext}").read_text() for ext in (".cov", ".json")]
        col_hash = hashlib.sha256(Path(f"{stem}.col").read_bytes()).hexdigest()
        codes = tuple(s[2] for s in steps)
        return {"steps": dict(zip(("gen", "solve", "verify"), (s[0] for s in steps))),
                "branch": json.loads(texts[1])["branch"],
                "rss_mb": max(s[1] for s in steps),
                "col": f"{stem}.col",
                "result": (col_hash, *texts, steps[1][3], steps[2][3], codes)}

    def run(self, op, k):
        steps = []
        for argv in self._argvs(op, k, "child"):
            wall_s, *rest = self._child(argv)
            steps.append((self.watch(wall_s), *rest))
        return self._record(op, k, "child", steps)

    def replay(self, op, k):
        steps = []
        for argv in self._argvs(op, k, "inproc"):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv)
            steps.append((self.watch(time.perf_counter() - t0), 0.0, code, out.getvalue()))
        return self._record(op, k, "inproc", steps)

    def check(self, op, rec):
        _, cover_text, trace_text, solve_out, verify_out, codes = rec["result"]
        return check.cli_check(op[0], Path(rec["col"]).read_text(), cover_text,
                               trace_text, solve_out, verify_out, codes)

    def peak_rss_mb(self, records):
        return max(r.get("rss_mb", 0.0) for r in records)


class Cascade(Workload):
    """In-process `solve4` then `verify_cover(bound=160, max_parts=3)`.

    An operation is (colouring, colour matrix or None)."""

    def run(self, op, k):
        colouring, _ = op
        t0 = time.perf_counter()
        cover, trace = solver.solve4(colouring)
        solve_s = self.watch(time.perf_counter() - t0)
        t0 = time.perf_counter()
        report = covers.verify_cover(colouring, cover, bound=160, max_parts=3)
        verify_s = self.watch(time.perf_counter() - t0)
        parts = tuple((tuple(sorted(p.vertices)), p.colour) for p in cover.parts)
        diams = tuple(r.diameter if isinstance(r.diameter, int) else None
                      for r in report.parts)
        return {"steps": {"solve4": solve_s, "verify_cover": verify_s},
                "branch": trace.branch,
                "result": (parts, trace.branch, report.valid, diams)}

    replay = run

    def matrix(self, op) -> np.ndarray:
        raise NotImplementedError

    def check(self, op, rec):
        parts, branch, valid, diams = rec["result"]
        return check.cascade_check(self.matrix(op), parts, branch, valid, diams)


class LayerQuadPaths(Cascade):
    """`generators.two_paths(n, seed)`: closes in LayerQuad."""

    name = "layerquad-paths"
    sizes = (300, 400, 500, 600)

    def setup(self):
        rng = random.Random(self.seed)
        return [(generators.two_paths(n, rng.randrange(2 ** 31)), None)
                for n in self.sizes]

    def matrix(self, op):
        # Read pair by pair from the generated colouring, then held to the
        # documented two-paths pattern, so a generator fault shows too.
        colouring = op[0]
        n = colouring.n
        mat = np.array([[colouring.colour_of(u, v) if u != v else 0
                         for v in range(n)] for u in range(n)], dtype=np.uint8)
        problems = check.two_paths_problems(mat)
        if problems:
            raise ValueError(f"two_paths({n}) input: {problems}")
        return mat


# Cross-block colours of `generators.four_blocks`; blocks b hold colour b+1
# inside in that generator, here uniformly random colours instead.
CROSS = {(0, 1): 3, (0, 2): 4, (1, 2): 1, (1, 3): 1, (0, 3): 2, (2, 3): 2}
BLOCK_SHARES = ((0.25, 0.25, 0.25, 0.25), (0.35, 0.15, 0.20, 0.30),
                (0.15, 0.35, 0.30, 0.20), (0.30, 0.20, 0.30, 0.20))


def four_blocks_matrix(n: int, shares, rng: np.random.Generator) -> np.ndarray:
    """Four-blocks colour matrix on `n` vertices, relabelled at random.

    Within-block pairs are uniform in 1..4.  No colour spans: no colour-1
    edge leaves block 0 and no colour-2 edge leaves block 1, colour 3
    crosses only between blocks 0 and 1, and colour 4 only between blocks
    0 and 2."""
    sizes = [int(s * n) for s in shares]
    sizes[-1] += n - sum(sizes)
    block = rng.permutation(np.repeat(np.arange(4), sizes))
    table = np.zeros((4, 4), dtype=np.uint8)
    for (a, b), c in CROSS.items():
        table[a, b] = table[b, a] = c
    mat = table[block[:, None], block[None, :]]
    inside = block[:, None] == block[None, :]
    mat = np.where(inside, rng.integers(1, 5, size=(n, n), dtype=np.uint8), mat)
    mat = np.triu(mat, 1)
    return mat + mat.T


class SmallDiamBlocks(Cascade):
    """Four-blocks pattern at 250-400 vertices: closes in SmallDiam."""

    name = "smalldiam-blocks"
    sizes = (250, 300, 350, 400)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        ops = []
        for n, shares in zip(self.sizes, BLOCK_SHARES):
            mat = four_blocks_matrix(n, shares, rng)
            host = graphs.HostGraph.complete(n)
            ops.append((graphs.EdgeColouring.from_matrix(host, 4, mat), mat))
        return ops

    def matrix(self, op):
        return op[1]


class OracleK5(Workload):
    """The exhaustive scan of 3-colourings of K_5 at bound 8, two parts.

    The scan has no random input, so the seed changes nothing here."""

    name = "oracle-k5"
    n, k, bound, parts = 5, 3, 8, 2
    min_rounds = 3
    slice_size = 500

    def setup(self):
        # Nothing to generate; set-up warms the scan path on K_4.
        oracle.exhaustive_colouring_scan(4, self.k, self.bound, self.parts)
        return [(self.n, self.k, self.bound, self.parts)]

    def run(self, op, k):
        """One scan, timed in slices of `slice_size` instances.

        A scan takes seconds, longer than many of the host's slow spells, so
        the stopwatch's reference job also runs inside it, between slices.
        A slice ends at every `slice_size`-th call of `oracle.minimal_bound`,
        which the scan makes once per instance; the scan is the same every
        time, so slice j is a step of its own."""
        steps = {}
        minimal_bound = oracle.minimal_bound
        calls = 0

        def sliced(*args, **kwargs):
            nonlocal calls, t0
            calls += 1
            if calls % self.slice_size == 0:
                steps[f"scan/{len(steps)}"] = self.watch(time.perf_counter() - t0)
                t0 = time.perf_counter()
            return minimal_bound(*args, **kwargs)

        oracle.minimal_bound = sliced
        try:
            t0 = time.perf_counter()
            report = oracle.exhaustive_colouring_scan(*op)
            steps[f"scan/{len(steps)}"] = self.watch(time.perf_counter() - t0)
        finally:
            oracle.minimal_bound = minimal_bound
        return self._record(report, steps)

    def replay(self, op, k):
        # Traced whole: a reference job inside the scan would count in its span.
        t0 = time.perf_counter()
        report = oracle.exhaustive_colouring_scan(*op)
        return self._record(report, {"scan": self.watch(time.perf_counter() - t0)})

    def _record(self, report, steps) -> dict:
        return {"steps": steps,
                "branch": None,
                "result": (report.instances_checked, report.worst_bound_needed,
                           tuple(report.witnesses), report.fallbacks,
                           report.complete)}

    def check(self, op, rec):
        checked, worst, witnesses, fallbacks, complete = rec["result"]
        n, k = op[0], op[1]
        problems = check.agree("instances_checked", checked,
                               check.orbit_count(k, n * (n - 1) // 2))
        problems += check.agree("complete", complete, True)
        problems += check.agree("witnesses", witnesses, ())
        problems += check.agree("fallbacks", fallbacks, 0)
        # At least 2: colour K_5 as a pentagon and a pentagram; their
        # monochromatic cliques have two vertices, so two parts of
        # diameter <= 1 miss a vertex.  At most n - 1: a connected set on
        # n vertices has no larger diameter.
        if not 2 <= worst <= n - 1:
            problems.append(f"worst_bound_needed {worst} outside 2..{n - 1}")
        return problems


WORKLOADS = {w.name: w for w in (CliUniform, LayerQuadPaths, SmallDiamBlocks, OracleK5)}
