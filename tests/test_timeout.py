"""NetFlow-style record expiry: HashFlow eviction and timeout rotation.

Expiry runs through :class:`repro.stream.pipeline.StreamFeeder` with a
:class:`repro.stream.rotation.TimeoutRotation` over timestamped traces —
the same loop :class:`~repro.stream.pipeline.Pipeline` and the serve
worker drive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashflow import HashFlow
from repro.stream import Pipeline, StreamFeeder, TimeoutRotation, merge_flow_records
from repro.traces.trace import Trace

_SOURCE = {"kind": "synthetic", "params": {"profile": "caida", "n_flows": 16}}


def timed_trace(packets) -> Trace:
    """A trace of ``(key, timestamp)`` packets, in order."""
    flows = list(dict.fromkeys(key for key, _ in packets))
    index = {key: i for i, key in enumerate(flows)}
    return Trace(
        flows,
        np.array([index[key] for key, _ in packets]),
        timestamps=np.array([ts for _, ts in packets], dtype=np.float64),
    )


class Expiry:
    """A HashFlow under timeout rotation, fed through ``StreamFeeder``."""

    def __init__(self, inactive=10.0, active=100.0, interval=4, cells=256):
        self.collector = HashFlow(main_cells=cells, seed=1)
        self.exported = []
        self.feeder = StreamFeeder(
            self.collector,
            TimeoutRotation(inactive, active, interval),
            lambda records, rotation, now: self.exported.extend(records.flows()),
        )

    def feed(self, packets) -> None:
        trace = timed_trace(packets)
        batch = trace.key_batch()
        lo, hi = batch.halves()
        self.feeder.feed(batch.keys, lo, hi, None, trace.timestamps)

    def flush(self) -> list:
        before = len(self.exported)
        self.feeder.finish()
        return self.exported[before:]


class TestEvict:
    def test_hashflow_evict_clears_record(self):
        hf = HashFlow(main_cells=64, seed=1)
        hf.process(42)
        assert hf.evict(42) is True
        assert hf.query(42) == 0
        assert hf.evict(42) is False  # already gone

    def test_evict_is_unmetered(self):
        hf = HashFlow(main_cells=64, seed=1)
        hf.process(42)
        before = (hf.meter.hashes, hf.meter.reads, hf.meter.writes)
        hf.evict(42)
        assert (hf.meter.hashes, hf.meter.reads, hf.meter.writes) == before

    def test_evicted_cell_reusable(self):
        hf = HashFlow(main_cells=64, seed=1)
        hf.process(42)
        occupancy = hf.main.occupancy()
        hf.evict(42)
        assert hf.main.occupancy() == occupancy - 1
        hf.process(43)
        assert hf.query(43) == 1


class TestInactiveTimeout:
    def test_idle_flow_exported(self):
        t = Expiry(inactive=10.0, interval=1)
        t.feed([(7, 0.0), (8, 20.0)])  # sweeps at now=20
        exported = [r for r in t.exported if r.key == 7]
        assert len(exported) == 1
        assert exported[0].reason == "inactive"
        assert exported[0].packets == 1
        assert t.collector.query(7) == 0  # cell freed

    def test_busy_flow_not_exported(self):
        t = Expiry(inactive=10.0, interval=1)
        t.feed([(7, ts) for ts in (0.0, 5.0, 9.0, 13.0)])
        assert not t.exported
        assert t.collector.query(7) == 4


class TestActiveTimeout:
    def test_long_lived_flow_exported_midstream(self):
        t = Expiry(inactive=10.0, active=50.0, interval=1)
        t.feed([(7, float(ts)) for ts in np.arange(0.0, 70.0, 5.0)])
        reasons = {r.reason for r in t.exported if r.key == 7}
        assert "active" in reasons

    def test_counts_preserved_across_export(self):
        t = Expiry(inactive=10.0, active=50.0, interval=1)
        packets = [(7, float(ts)) for ts in np.arange(0.0, 120.0, 5.0)]
        t.feed(packets)
        t.flush()
        # The exported segments sum to the flow's packets.
        assert merge_flow_records(t.exported) == {7: len(packets)}


class TestFlush:
    def test_flush_drains_everything(self):
        t = Expiry(interval=10_000)  # never sweeps on its own
        t.feed([(key, 1.0) for key in range(20)])
        drained = t.flush()
        assert len(drained) == 20
        assert t.collector.records() == {}


class TestLongRunBehaviour:
    def make_temporal_trace(self, n_flows=400, seed=3) -> Trace:
        from repro.traces.profiles import CAIDA

        return CAIDA.generate(n_flows=n_flows, seed=seed, interleave="temporal")

    def run(self, trace, inactive, active, interval, cells):
        pipeline = Pipeline(
            source=_SOURCE,
            collector={"kind": "hashflow",
                       "params": {"main_cells": cells, "seed": 2}},
            rotation={"kind": "timeout",
                      "params": {"inactive_timeout": inactive,
                                 "active_timeout": active,
                                 "expiry_interval": interval}},
        )
        return pipeline.run(trace=trace)

    def test_expiry_keeps_small_table_usable(self):
        """With expiry, a small table keeps reporting flows long after a
        plain HashFlow of the same size has saturated."""
        trace = self.make_temporal_trace(n_flows=1200)
        plain = HashFlow(main_cells=256, seed=2)
        plain.process_all(trace.keys())
        timed = self.run(trace, inactive=2.0, active=30.0, interval=64, cells=256)
        assert len(timed.records) > len(plain.records())

    def test_distinct_exported_flows_track_truth(self):
        trace = self.make_temporal_trace(n_flows=800)
        timed = self.run(trace, inactive=5.0, active=30.0, interval=64, cells=1024)
        assert len(timed.records) == pytest.approx(trace.num_flows, rel=0.3)


class TestValidation:
    def test_bad_timeouts(self):
        for params in (
            {"inactive_timeout": 0},
            {"inactive_timeout": 100.0, "active_timeout": 10.0},
            {"expiry_interval": 0},
        ):
            with pytest.raises(ValueError):
                Pipeline(
                    source=_SOURCE,
                    collector={"kind": "hashflow", "params": {"main_cells": 8}},
                    rotation={"kind": "timeout", "params": params},
                )
