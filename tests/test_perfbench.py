"""The benchmark tracer's hooks still name functions of the program."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_names_resolve():
    # `--trace 1` looks each hook up with vars(owner)[attr]; a renamed or
    # deleted function would stop the traced run with a KeyError.
    hooks = [hook for pairs in tracing.TRACED.values() for hook in pairs]
    missing = [(owner.__name__, attr) for owner, attr in hooks
               if attr not in vars(owner)]
    assert not missing
    before = [vars(owner)[attr] for owner, attr in hooks]
    with tracing.Tracer().installed():
        pass
    assert [vars(owner)[attr] for owner, attr in hooks] == before


def test_tracer_sees_the_cascade_stages():
    # solve4 reads its stage functions as module attributes on each call, so
    # the tracer's hooks on them see the calls a solve makes.
    from monocover import generators, solver
    tracer = tracing.Tracer()
    with tracer.installed():
        _, trace = solver.solve4(generators.four_blocks(1))
    assert trace.branch == solver.BRANCH_SMALL_DIAM
    assert [(s.name, s.outcome) for s in trace.stages] == [
        ("single colour", "n/a"), ("small-diameter reduction", "closed")]
    metrics = tracer.metrics()
    assert metrics["solver.reduce_small_diameters.calls"] == (1, "count")
    assert metrics["grid.cover_G3.calls"] == (1, "count")
