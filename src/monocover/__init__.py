"""Covers of edge-coloured complete graphs by few monochromatic bounded-diameter sets.

The public names are imported from their modules on first use (PEP 562),
so that ``import monocover.cli``, and with it ``monocover --help``, loads
no numpy.
"""

from importlib import import_module

# Each public name and the module that defines it.
_HOMES = {
    "Cover": "covers",
    "CoverPart": "covers",
    "CoverReport": "covers",
    "DISCONNECTED": "graphs",
    "EdgeColouring": "graphs",
    "HostGraph": "graphs",
    "ImpossibleByLemmaError": "errors",
    "MonoMetrics": "graphs",
    "parse_colouring": "graphs",
    "set_diameter": "graphs",
    "verify_cover": "covers",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)
