"""Timing, logic and power analysis substrate.

Three engines share the cell semantics defined in
:mod:`repro.timing.logic`:

* :class:`repro.timing.engine.CompiledCircuit` -- the workhorse: a
  levelized, numpy-vectorized two-vector simulator that computes settled
  values, per-pattern floating-mode path delays, switching activity and
  signal probabilities for a whole pattern stream at once;
* :mod:`repro.timing.event` -- an event-driven transport-delay reference
  simulator used to cross-check the floating-mode engine;
* :mod:`repro.timing.sta` -- static (value-independent) worst-case timing
  and critical-path extraction.

The stream engine is two planes (see :mod:`repro.timing.replay`): a
delay-independent :class:`ValuePlane` computed once per stimulus
(cacheable across process runs via
:class:`repro.timing.value_cache.ValuePlaneCache`) and an
:class:`ArrivalReplay` pass that re-times it for one or many per-cell
delay-scale vectors at once -- a single ``run`` is one plane and one
replay, and every lifetime / variation sweep shares one plane.

Switched capacitance is a third, separate pass over the same plan
(:func:`build_switched_caps`), priced only where power is read, and
:mod:`repro.timing.power` converts it into the paper's power /
energy-delay-product metrics.
"""

from .delta import (
    DeltaBase,
    DeltaResult,
    NetlistDelta,
    diff_netlists,
    evaluate_full,
    patch_compiled,
    replay_delta,
)
from .engine import (
    CompiledCircuit,
    StreamResult,
    auto_chunk_size,
)
from .event import EventSimulator, EventResult
from .fold import FoldPlan, fold_stimulus, unfold_stream
from .replay import (
    ArrivalReplay,
    ReplayResult,
    ValuePlane,
    build_switched_caps,
    build_value_plane,
)
from .soa import SoAPlan, build_soa_plan
from .sta import StaticTiming, critical_path
from .power import PowerReport, power_report
from .value_cache import ValuePlaneCache, plane_cache_key
from .vcd import render_vcd, write_vcd

__all__ = [
    "ArrivalReplay",
    "CompiledCircuit",
    "DeltaBase",
    "DeltaResult",
    "NetlistDelta",
    "FoldPlan",
    "StreamResult",
    "EventSimulator",
    "EventResult",
    "ReplayResult",
    "SoAPlan",
    "StaticTiming",
    "ValuePlane",
    "ValuePlaneCache",
    "auto_chunk_size",
    "build_soa_plan",
    "build_switched_caps",
    "build_value_plane",
    "critical_path",
    "diff_netlists",
    "evaluate_full",
    "patch_compiled",
    "replay_delta",
    "fold_stimulus",
    "plane_cache_key",
    "unfold_stream",
    "PowerReport",
    "power_report",
    "render_vcd",
    "write_vcd",
]
