"""HashFlow core: the paper's primary contribution."""

from repro.core.adaptive import AdaptiveHashFlow
from repro.core.ancillary import PROMOTE, STORED, AncillaryTable
from repro.core.hashflow import HashFlow
from repro.core.maintable import (
    ABSORBED,
    DEFAULT_ALPHA,
    DEFAULT_DEPTH,
    MISSED,
    MainTable,
    pipeline_sizes,
)

__all__ = [
    "ABSORBED",
    "DEFAULT_ALPHA",
    "DEFAULT_DEPTH",
    "MISSED",
    "PROMOTE",
    "STORED",
    "AdaptiveHashFlow",
    "AncillaryTable",
    "HashFlow",
    "MainTable",
    "pipeline_sizes",
]
