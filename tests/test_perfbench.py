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
