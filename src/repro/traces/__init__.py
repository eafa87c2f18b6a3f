"""Trace substrate: synthetic generation, containers, sampling, pcap I/O."""

from repro.traces.mixer import (
    inject_elephants,
    merge_traces,
    port_scan,
    syn_flood,
)
from repro.traces.pcap import read_pcap, write_pcap
from repro.traces.replay import split_by_packets, split_by_time
from repro.traces.profiles import (
    CAIDA,
    CAMPUS,
    ISP1,
    ISP2,
    PROFILES,
    TraceProfile,
    get_profile,
)
from repro.traces.sampling import sample_deterministic
from repro.traces.synthetic import (
    SizeModel,
    interleave_temporal,
    interleave_uniform,
    sample_truncated_pareto,
    solve_tail_weight,
    synthesize,
    truncated_pareto_mean,
)
from repro.traces.trace import Trace, trace_from_keys

__all__ = [
    "CAIDA",
    "CAMPUS",
    "ISP1",
    "ISP2",
    "PROFILES",
    "SizeModel",
    "Trace",
    "TraceProfile",
    "get_profile",
    "inject_elephants",
    "interleave_temporal",
    "interleave_uniform",
    "merge_traces",
    "port_scan",
    "read_pcap",
    "sample_deterministic",
    "sample_truncated_pareto",
    "solve_tail_weight",
    "split_by_packets",
    "split_by_time",
    "syn_flood",
    "synthesize",
    "trace_from_keys",
    "truncated_pareto_mean",
    "write_pcap",
]
