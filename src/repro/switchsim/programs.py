"""Prebuilt switch programs (the bmv2 P4 programs of the evaluation).

Builders assembling the standard pipelines used by the experiments:
parser -> (optional ACL) -> measurement -> forwarding.  A register-level
re-implementation of the HashFlow multi-hash update is also provided to
demonstrate that Algorithm 1 maps onto plain register arrays — i.e.
that it is implementable in a dataplane, which is the paper's P4 claim.
"""

from __future__ import annotations

from repro.hashing.families import HashFamily
from repro.sketches.base import CostMeter, FlowCollector
from repro.switchsim.costs import CostModel
from repro.switchsim.pipeline import (
    AclStage,
    L3ForwardStage,
    MeasurementStage,
    ParserStage,
    Pipeline,
    Stage,
)
from repro.switchsim.registers import RegisterArray
from repro.switchsim.switch import SoftwareSwitch


def measurement_switch(
    collector: FlowCollector,
    cost_model: CostModel | None = None,
    forwarding_table: dict[int, int] | None = None,
    acl: AclStage | None = None,
) -> SoftwareSwitch:
    """Build the evaluation switch: parser -> [acl] -> measurement -> L3.

    Args:
        collector: the measurement algorithm to load.
        cost_model: per-operation cost model (default: bmv2-calibrated).
        forwarding_table: optional ``{dst_ip: port}`` entries.
        acl: optional ACL stage inserted before measurement.

    Returns:
        A ready-to-run :class:`~repro.switchsim.switch.SoftwareSwitch`.
    """
    stages: list[Stage] = [ParserStage()]
    if acl is not None:
        stages.append(acl)
    stages.append(MeasurementStage(collector))
    stages.append(L3ForwardStage(forwarding_table, default_port=0))
    return SoftwareSwitch(Pipeline(stages), cost_model)


class RegisterHashFlowStage(Stage):
    """HashFlow's multi-hash main table expressed purely over registers.

    Three register arrays per bucket range — key-high, key-low and
    count — updated with the exact Algorithm 1 collision-resolution
    logic.  This is the dataplane-shaped rendering of the algorithm: no
    dicts, no unbounded state, a fixed probe budget of ``d`` per packet,
    and every state touch is a metered register access.

    (The full HashFlow, with ancillary table and promotion, is exercised
    through :class:`~repro.switchsim.pipeline.MeasurementStage`; this
    stage exists to validate register-level implementability and is used
    by tests and the switch example.)
    """

    name = "hashflow_registers"

    def __init__(self, n_cells: int, depth: int = 3, seed: int = 0):
        if n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {n_cells}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.meter = CostMeter()
        self.n_cells = n_cells
        self.depth = depth
        self._hashes = HashFamily(depth, master_seed=seed)
        self.key_hi = RegisterArray("key_hi", n_cells, 64, self.meter)
        self.key_lo = RegisterArray("key_lo", n_cells, 64, self.meter)
        self.count = RegisterArray("count", n_cells, 32, self.meter)

    def apply(self, ctx) -> None:
        self.update(ctx.packet.key)

    def update(self, key: int) -> bool:
        """Algorithm 1 lines 3-13 over registers; True if absorbed."""
        self.meter.packets += 1
        hi = key >> 64
        lo = key & 0xFFFFFFFFFFFFFFFF
        for h in self._hashes:
            idx = h.bucket(key, self.n_cells)
            self.meter.hashes += 1
            current = self.count.read(idx)
            if current == 0:
                self.key_hi.write(idx, hi)
                self.key_lo.write(idx, lo)
                self.count.write(idx, 1)
                return True
            if self.key_hi.read(idx) == hi and self.key_lo.read(idx) == lo:
                self.count.write(idx, current + 1)
                return True
        return False

    def records(self) -> dict[int, int]:
        """Control-plane readout of the register state as flow records."""
        hi = self.key_hi.snapshot()
        lo = self.key_lo.snapshot()
        counts = self.count.snapshot()
        return {
            (h << 64) | l: c
            for h, l, c in zip(hi, lo, counts)
            if c > 0
        }
