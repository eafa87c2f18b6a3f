"""Flow-record sketches: substrates and the paper's baseline algorithms."""

from repro.sketches.base import CostMeter, FlowCollector
from repro.sketches.bloom import BloomFilter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.cuckoo import CuckooFlowCache
from repro.sketches.elastic import ElasticSketch
from repro.sketches.exact import ExactCollector
from repro.sketches.flowradar import FlowRadar
from repro.sketches.hashpipe import HashPipe
from repro.sketches.linear_counting import linear_counting_estimate
from repro.sketches.sampled import SampledNetFlow
from repro.sketches.spacesaving import SpaceSaving

__all__ = [
    "BloomFilter",
    "CostMeter",
    "CountMinSketch",
    "CuckooFlowCache",
    "ElasticSketch",
    "ExactCollector",
    "FlowCollector",
    "FlowRadar",
    "HashPipe",
    "SampledNetFlow",
    "SpaceSaving",
    "linear_counting_estimate",
]
