"""Epoch-based trace replay.

Operational NetFlow measures in epochs: fill tables for an interval,
export, reset, repeat.  This module slices traces into epochs (by
packet count or by timestamp windows) and drives any collector through
them, producing per-epoch record sets — the workflow the
:class:`~repro.core.adaptive.EpochedHashFlow` extension automates for
HashFlow specifically.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.sketches.base import FlowCollector
from repro.specs import CollectorSpec, as_spec
from repro.traces.trace import Trace


def split_by_packets(trace: Trace, epoch_packets: int) -> Iterator[Trace]:
    """Slice a trace into consecutive epochs of ``epoch_packets`` packets.

    The final epoch may be shorter.  Flows spanning epochs appear in
    each epoch they have packets in, as they would on a real device.
    """
    if epoch_packets <= 0:
        raise ValueError(f"epoch_packets must be positive, got {epoch_packets}")
    for start in range(0, len(trace), epoch_packets):
        yield _slice(trace, start, min(start + epoch_packets, len(trace)))


def split_by_time(trace: Trace, window: float) -> Iterator[Trace]:
    """Slice a timestamped trace into fixed-duration windows.

    Raises:
        ValueError: if the trace has no timestamps.
    """
    if trace.timestamps is None:
        raise ValueError("trace has no timestamps; use split_by_packets")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    ts = trace.timestamps
    start = 0
    epoch_end = (float(ts[0]) // window + 1) * window if len(ts) else 0.0
    for i in range(len(ts)):
        if ts[i] >= epoch_end:
            yield _slice(trace, start, i)
            start = i
            while ts[i] >= epoch_end:
                epoch_end += window
    if start < len(ts):
        yield _slice(trace, start, len(ts))


def _slice(trace: Trace, start: int, end: int) -> Trace:
    # Kept as the module's internal spelling; the logic lives on Trace.
    return trace.slice_packets(start, end)


@dataclass(frozen=True, slots=True)
class EpochReport:
    """Result of one measurement epoch.

    Attributes:
        index: epoch number (0-based).
        packets: packets processed in the epoch.
        flows: ground-truth distinct flows in the epoch.
        records: the collector's exported records.
    """

    index: int
    packets: int
    flows: int
    records: dict[int, int]


class EpochRunner:
    """Replays a trace through fresh collector instances per epoch.

    Args:
        collector: what each epoch runs — a
            :class:`~repro.specs.CollectorSpec` (or spec dict / kind
            name / registered collector class), or a prototype
            collector (cloned per epoch via its spec).  A new instance
            is built once per epoch, so state never leaks across
            epochs — the device reset the paper's epoch model implies.
    """

    def __init__(
        self,
        collector: CollectorSpec | FlowCollector | Mapping | str | type[FlowCollector],
    ):
        self.spec = as_spec(collector)

    def run(
        self, trace: Trace, epoch_packets: int, jobs: int | None = None
    ) -> list[EpochReport]:
        """Run all epochs; returns one report per epoch.

        Epochs are independent by construction (a fresh collector per
        epoch, no cross-epoch state), so the runner can execute them
        through the parallel sweep engine: ``jobs`` (default: the
        ``REPRO_JOBS`` environment variable, else serial) selects the
        worker count.  Parallel reports are bit-identical to serial
        ones.
        """
        from repro.parallel import resolve_jobs

        if epoch_packets <= 0:
            raise ValueError(f"epoch_packets must be positive, got {epoch_packets}")
        if resolve_jobs(jobs) > 1 and len(trace):
            return self._run_parallel(trace, epoch_packets, jobs)
        reports = []
        for index, epoch in enumerate(split_by_packets(trace, epoch_packets)):
            collector = self.spec.build()
            # key_batch() carries the pre-split 64-bit halves, so
            # collectors with a vectorized update path skip per-packet
            # key splitting entirely.
            collector.process_all(epoch.key_batch())
            reports.append(
                EpochReport(
                    index=index,
                    packets=len(epoch),
                    flows=epoch.num_flows,
                    records=collector.records(),
                )
            )
        return reports

    def _run_parallel(
        self, trace: Trace, epoch_packets: int, jobs: int | None
    ) -> list[EpochReport]:
        """Fan the per-epoch cells out over the sweep engine.

        The trace is saved once as mmap-able arrays in a scratch
        directory; each cell references a packet slice of it, so
        workers map the shared arrays instead of receiving pickled
        epoch traces.  Cell slicing uses the same :func:`_slice` as
        :func:`split_by_packets`, and the collector is rebuilt from the
        runner's spec — the parallel run is bit-identical to serial.
        """
        import tempfile

        from repro.parallel import SweepCell, WorkloadRef, run_plan
        from repro.traces.io import save_trace_arrays

        with tempfile.TemporaryDirectory(prefix="repro-epochs-") as scratch:
            saved = save_trace_arrays(trace, Path(scratch) / "trace")
            cells = [
                SweepCell(
                    workload=WorkloadRef(
                        path=str(saved),
                        start=start,
                        stop=min(start + epoch_packets, len(trace)),
                    ),
                    spec_or_kind=self.spec,
                    metrics=("epoch_report",),
                    label=index,
                )
                for index, start in enumerate(
                    range(0, len(trace), epoch_packets)
                )
            ]
            results = run_plan(cells, jobs=jobs)
        return [
            EpochReport(
                index=index,
                packets=res.rows[0]["packets"],
                flows=res.rows[0]["flows"],
                records=res.rows[0]["records"],
            )
            for index, res in enumerate(results)
        ]

    @staticmethod
    def merge(reports: list[EpochReport]) -> dict[int, int]:
        """Sum per-epoch records into a whole-trace view."""
        merged: dict[int, int] = {}
        for report in reports:
            for key, count in report.records.items():
                merged[key] = merged.get(key, 0) + count
        return merged
