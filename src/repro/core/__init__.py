"""HashFlow core: the paper's primary contribution."""

from repro.core.adaptive import AdaptiveHashFlow, EpochedHashFlow, merge_records
from repro.core.ancillary import PROMOTE, STORED, AncillaryTable
from repro.core.hashflow import HashFlow
from repro.core.timeout import ExportedRecord, TimeoutHashFlow
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
    "EpochedHashFlow",
    "ExportedRecord",
    "HashFlow",
    "TimeoutHashFlow",
    "MainTable",
    "merge_records",
    "pipeline_sizes",
]
