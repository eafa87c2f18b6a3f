"""P4-style software-switch simulator (the bmv2 substitute for Fig. 11)."""

from repro.switchsim.codegen import generate_p4
from repro.switchsim.costs import BMV2_BASELINE_KPPS, CostModel
from repro.switchsim.pipeline import (
    DROP_PORT,
    AclStage,
    L3ForwardStage,
    MeasurementStage,
    PacketContext,
    ParserStage,
    Pipeline,
    Stage,
)
from repro.switchsim.programs import (
    RegisterHashFlowStage,
    measurement_switch,
)
from repro.switchsim.registers import RegisterArray
from repro.switchsim.switch import SoftwareSwitch, SwitchRunReport

__all__ = [
    "BMV2_BASELINE_KPPS",
    "DROP_PORT",
    "AclStage",
    "CostModel",
    "L3ForwardStage",
    "MeasurementStage",
    "PacketContext",
    "ParserStage",
    "Pipeline",
    "RegisterArray",
    "RegisterHashFlowStage",
    "SoftwareSwitch",
    "SwitchRunReport",
    "Stage",
    "generate_p4",
    "measurement_switch",
]
