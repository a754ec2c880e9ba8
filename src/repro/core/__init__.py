"""The paper's contribution: adaptive hold logic and the aging-aware
variable-latency multiplier architecture (Section III).

* :mod:`repro.core.judging` -- the judging blocks: behavioral zero-count
  predicates plus their structural netlists (popcount + comparator);
* :mod:`repro.core.aging_indicator` -- the error-rate counter that flips
  the AHL to the stricter judging block;
* :mod:`repro.core.ahl` -- the adaptive hold logic's structural netlist;
* :mod:`repro.core.architecture` -- the full architecture of Fig. 8:
  bypassing multiplier + Razor output bank + AHL, simulated
  cycle-accurately over pattern streams at any aging point, and the
  one variable-latency control loop it shares with
  :mod:`repro.core.adder_architecture`;
* :mod:`repro.core.baselines` -- fixed-latency baselines (AM, FLCB,
  FLRB) measured consistently;
* :mod:`repro.core.stats` -- latency/error reports.
"""

from .adder_architecture import AgingAwareAdder
from .aging_indicator import AgingIndicator
from .ahl import ahl_netlist
from .architecture import (
    AgingAwareMultiplier,
    DegradeRecovery,
    DetectOnlyRecovery,
    RecoveryPolicy,
    StrictRecovery,
    WindowResolution,
    resolve_policy,
)
from .baselines import FixedLatencyDesign, build_multiplier
from .judging import JudgingBlock, judging_netlist, popcount_nets
from .selector import OperatingPoint, SelectionResult, select_operating_point
from .stats import ArchitectureRunResult, LatencyReport
from .structural import StructuralArchitecture, validate_against_behavioral
from .throughput import (
    ThroughputReport,
    architecture_service_times,
    max_sustainable_rate,
    simulate_queue,
)

__all__ = [
    "AgingAwareAdder",
    "AgingAwareMultiplier",
    "AgingIndicator",
    "ArchitectureRunResult",
    "DegradeRecovery",
    "DetectOnlyRecovery",
    "FixedLatencyDesign",
    "JudgingBlock",
    "LatencyReport",
    "OperatingPoint",
    "RecoveryPolicy",
    "SelectionResult",
    "StrictRecovery",
    "StructuralArchitecture",
    "ThroughputReport",
    "WindowResolution",
    "architecture_service_times",
    "max_sustainable_rate",
    "resolve_policy",
    "select_operating_point",
    "simulate_queue",
    "validate_against_behavioral",
    "ahl_netlist",
    "build_multiplier",
    "judging_netlist",
    "popcount_nets",
]
