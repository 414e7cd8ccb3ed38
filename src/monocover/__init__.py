"""Covers of edge-coloured complete graphs by few monochromatic bounded-diameter sets."""

from .covers import Cover, CoverPart, CoverReport, verify_cover
from .errors import ImpossibleByLemmaError
from .graphs import (DISCONNECTED, EdgeColouring, HostGraph, MonoMetrics,
                     parse_colouring, set_diameter)

__all__ = [
    "Cover",
    "CoverPart",
    "CoverReport",
    "DISCONNECTED",
    "EdgeColouring",
    "HostGraph",
    "ImpossibleByLemmaError",
    "MonoMetrics",
    "parse_colouring",
    "set_diameter",
    "verify_cover",
]

__version__ = "0.1.0"
