"""The aging-aware variable-latency multiplier architecture (Fig. 8).

One :class:`AgingAwareMultiplier` bundles

* a column- or row-bypassing multiplier netlist,
* ``2m`` Razor flip-flops on the product (:class:`repro.razor.RazorBank`),
* the adaptive hold logic: a Skip-``n`` and a Skip-``n+1`` judging
  block behind the aging indicator's mux (structurally
  :func:`repro.core.ahl.ahl_netlist`),
* an aging model hooked to the netlist
  (:class:`repro.aging.AgedCircuitFactory`),

and executes pattern streams cycle-accurately:

1. the AHL inspects the judged operand's zero count and declares the
   pattern one- or two-cycle;
2. the compiled circuit supplies the pattern's true path delay;
3. a one-cycle pattern whose delay exceeds the cycle period raises a
   Razor error and is re-executed, costing
   :attr:`~repro.config.SimulationConfig.razor_penalty_cycles` extra
   cycles (1 detection + 2 re-execution);
4. every :attr:`~repro.config.SimulationConfig.indicator_window`
   operations the aging indicator evaluates the error rate and, past the
   threshold, permanently switches the AHL to the Skip-(n+1) block
   (adaptive designs only).

The loop runs on the whole stream at once (:func:`run_control_loop`,
which the variable-latency adder runs too): the stream is judged under
both blocks, the indicator walks the per-window error counts
(:func:`repro.core.aging_indicator.walk_stream`), and the recovery policy
resolves the chosen flags in one call.

Two-cycle execution covers any pattern whose delay fits ``2T`` -- the
paper's operating assumption in its preferred cycle-period ranges.  When
the clock is pushed below that (the left edge of Figs. 13-18), a pattern
can exceed even the two-cycle budget; such an operation cannot succeed by
plain re-execution.  What happens next is governed by a
:class:`RecoveryPolicy` (selected through
:attr:`~repro.config.SimulationConfig.recovery_policy` or per-run):

* ``degrade`` (default) charges a *slow retry* -- ``razor_penalty +
  ceil(delay / T)`` cycles (detection plus a multi-cycle fallback issue),
  capped at :attr:`~repro.config.SimulationConfig.max_fallback_cycles` --
  and records the event, so long fault-injection campaigns never abort
  mid-stream.  This is what turns the latency curves back up at short
  cycle periods and produces the paper's preferred-region shape; the
  report tracks these events (``deep_retry_ops``, ``recovered_ops``,
  ``recovery_exhausted_ops``).
* ``strict`` raises :class:`repro.errors.RecoveryExhaustedError` the
  moment an arrival overruns the shadow window while judged one-cycle
  (undetectable violation) or the fallback cap is hit -- the hardware
  guarantee, enforced.
* ``detect-only`` charges no re-execution at all and only counts
  detections and undetectable violations -- coverage accounting for
  fault campaigns.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..aging.degradation import AgedCircuitFactory
from ..arith.reference import count_zeros, golden_products
from ..config import (
    DEFAULT_SIM_CONFIG,
    DEFAULT_TECHNOLOGY,
    RECOVERY_POLICIES,
    SimulationConfig,
    Technology,
)
from ..errors import ConfigError, RecoveryExhaustedError, SimulationError
from ..nets.area import AreaReport, area_report
from ..nets.netlist import Netlist
from ..razor.flipflop import RazorBank, razor_errors
from ..timing.sta import StaticTiming
from .aging_indicator import AgingIndicator, walk_stream
from .ahl import ahl_netlist
from .baselines import build_multiplier
from .stats import ArchitectureRunResult, LatencyReport


@dataclasses.dataclass
class WindowResolution:
    """Outcome of a :class:`RecoveryPolicy` over a stream.

    All arrays are per-pattern: cycle charges, Razor detections,
    undetectable violations, and which operations the policy recovered
    with a fallback / gave up on at the retry cap.
    """

    cycles: np.ndarray
    errors: np.ndarray
    undetectable: np.ndarray
    recovered: np.ndarray
    exhausted: np.ndarray


class RecoveryPolicy:
    """How the architecture resolves arrivals Razor cannot absorb.

    A policy turns a stream's judged flags and path delays into cycle
    charges and recovery statistics.  Its Razor errors must be
    :func:`repro.razor.flipflop.razor_errors` (as :meth:`_classify`
    gives them): the aging indicator counts those to pick each window's
    flags before :meth:`resolve` runs.  Subclasses
    implement :meth:`resolve`; :func:`resolve_policy` maps the
    configuration names (``"strict"``, ``"degrade"``, ``"detect-only"``)
    to singletons.
    """

    name: str = "?"

    def resolve(
        self,
        flags: np.ndarray,
        delays: np.ndarray,
        cycle_ns: float,
        shadow_ns: float,
        penalty: int,
        max_fallback: int,
    ) -> WindowResolution:
        """Resolve a stream.  ``flags`` marks one-cycle judgements; an
        operation's index in the arrays is its stream index (used in
        diagnostics)."""
        raise NotImplementedError

    # Shared primitive classifications -------------------------------

    @staticmethod
    def _classify(flags, delays, cycle_ns, shadow_ns):
        late = delays > cycle_ns
        over = delays > 2.0 * cycle_ns
        # A one-cycle pattern arriving past the shadow edge latches the
        # same stale data in main and shadow: Razor sees no mismatch.
        undetectable = flags & (delays > shadow_ns)
        return late, over, undetectable, razor_errors(flags, late, over)


class DegradeRecovery(RecoveryPolicy):
    """Bounded multi-cycle fallback with capped retries (the default).

    Over-budget operations are charged ``penalty + min(ceil(delay / T),
    max_fallback)`` cycles; operations that hit the cap are charged the
    cap and flagged ``exhausted`` instead of aborting the run.
    """

    name = "degrade"

    def resolve(self, flags, delays, cycle_ns, shadow_ns, penalty,
                max_fallback):
        late, over, undetectable, errors = self._classify(
            flags, delays, cycle_ns, shadow_ns
        )
        fallback = np.ceil(delays / cycle_ns)
        exhausted = over & (fallback > max_fallback)
        retry = penalty + np.minimum(fallback, float(max_fallback))
        base = np.where(flags, 1.0 + (flags & late) * penalty, 2.0)
        cycles = np.where(over, retry, base)
        return WindowResolution(
            cycles=cycles,
            errors=errors,
            undetectable=undetectable,
            recovered=over & ~exhausted,
            exhausted=exhausted,
        )


class StrictRecovery(DegradeRecovery):
    """Raise on any overrun the architecture cannot guarantee to fix.

    The first undetectable violation (one-cycle judgement past the
    shadow window) or capped fallback raises
    :class:`repro.errors.RecoveryExhaustedError`; otherwise accounting
    matches ``degrade``.
    """

    name = "strict"

    def resolve(self, flags, delays, cycle_ns, shadow_ns, penalty,
                max_fallback):
        resolution = super().resolve(
            flags, delays, cycle_ns, shadow_ns, penalty, max_fallback
        )
        fatal = resolution.undetectable | resolution.exhausted
        if fatal.any():
            index = int(np.argmax(fatal))
            raise RecoveryExhaustedError(
                "operation %d: arrival %.4f ns overruns the %s under the "
                "strict recovery policy (cycle %.4f ns, shadow %.4f ns, "
                "fallback cap %d)"
                % (
                    index,
                    float(delays[index]),
                    "shadow window"
                    if resolution.undetectable[index]
                    else "fallback cap",
                    cycle_ns,
                    shadow_ns,
                    max_fallback,
                ),
                op_index=index,
                delay_ns=float(delays[index]),
            )
        return resolution


class DetectOnlyRecovery(RecoveryPolicy):
    """Count detections and misses; charge no re-execution.

    Every operation costs its judged one or two cycles; Razor errors and
    undetectable violations are tallied for coverage reporting.  Used by
    fault campaigns to measure what the Razor bank *would* catch.
    """

    name = "detect-only"

    def resolve(self, flags, delays, cycle_ns, shadow_ns, penalty,
                max_fallback):
        late, over, undetectable, errors = self._classify(
            flags, delays, cycle_ns, shadow_ns
        )
        zeros = np.zeros(flags.shape, dtype=bool)
        return WindowResolution(
            cycles=np.where(flags, 1.0, 2.0),
            errors=errors,
            undetectable=undetectable,
            recovered=zeros,
            exhausted=zeros.copy(),
        )


_POLICY_INSTANCES = {
    "strict": StrictRecovery(),
    "degrade": DegradeRecovery(),
    "detect-only": DetectOnlyRecovery(),
}


def resolve_policy(
    policy: Union[str, RecoveryPolicy, None],
    config: SimulationConfig = DEFAULT_SIM_CONFIG,
) -> RecoveryPolicy:
    """Map a policy name (or None for the configured default) to an
    instance; custom :class:`RecoveryPolicy` objects pass through."""
    if policy is None:
        policy = config.recovery_policy
    if isinstance(policy, RecoveryPolicy):
        return policy
    try:
        return _POLICY_INSTANCES[policy]
    except KeyError:
        raise ConfigError(
            "unknown recovery policy %r (known: %s)"
            % (policy, RECOVERY_POLICIES)
        ) from None


def run_control_loop(
    name: str,
    judged: np.ndarray,
    delays: np.ndarray,
    cycle_ns: float,
    years: float,
    config: SimulationConfig,
    adaptive: bool,
    policy: Union[str, RecoveryPolicy, None] = None,
) -> Tuple[LatencyReport, np.ndarray, WindowResolution]:
    """The variable-latency control loop over a whole stream.

    ``judged`` is the ``(2, n)`` one-cycle flag matrix: row 0 as the
    relaxed block judges each operation, row 1 as the strict block
    does; ``delays`` are the ``n`` path delays the Razor bank samples.
    A fresh :class:`~repro.core.aging_indicator.AgingIndicator` walks
    the per-window Razor errors and picks each window's row
    (:func:`~repro.core.aging_indicator.walk_stream`), and the recovery
    policy (``policy``, else ``config.recovery_policy``) resolves the
    chosen flags.  Every variable-latency design -- the multiplier and
    the adder -- runs this one loop.

    Returns ``(report, one_cycle, resolution)``: the run's
    :class:`LatencyReport`, the per-operation flags the loop judged
    with, and the policy's per-operation resolution.
    """
    active_policy = resolve_policy(policy, config)
    razor = RazorBank(cycle_ns, cycle_ns * config.shadow_skew_fraction)
    shadow_ns = razor.cycle_ns + razor.shadow_skew_ns
    over_budget = delays > 2.0 * cycle_ns
    block_errors = razor_errors(judged, razor.errors(delays), over_budget)
    indicator = AgingIndicator(config)
    walk = walk_stream(indicator, block_errors, adaptive)
    one_cycle = np.where(walk.strict_ops, judged[1], judged[0])
    resolution = active_policy.resolve(
        one_cycle,
        delays,
        cycle_ns,
        shadow_ns,
        config.razor_penalty_cycles,
        config.max_fallback_cycles,
    )
    window_recoveries = np.add.reduceat(
        resolution.recovered.astype(np.intp) + resolution.exhausted,
        walk.starts,
    ).tolist()
    num_ops = delays.size
    one_cycle_ops = int(np.count_nonzero(one_cycle))
    report = LatencyReport(
        name=name,
        cycle_ns=cycle_ns,
        years=years,
        num_ops=num_ops,
        total_cycles=float(resolution.cycles.sum()),
        one_cycle_ops=one_cycle_ops,
        two_cycle_ops=num_ops - one_cycle_ops,
        error_count=int(np.count_nonzero(resolution.errors)),
        undetectable_count=int(np.count_nonzero(resolution.undetectable)),
        window_errors=walk.window_errors,
        indicator_trace=walk.trace,
        indicator_aged_at=indicator.aged_at_op,
        deep_retry_ops=int(np.count_nonzero(over_budget)),
        policy=active_policy.name,
        recovered_ops=int(np.count_nonzero(resolution.recovered)),
        recovery_exhausted_ops=int(np.count_nonzero(resolution.exhausted)),
        window_recoveries=window_recoveries,
    )
    return report, one_cycle, resolution


@dataclasses.dataclass
class AgingAwareMultiplier:
    """The proposed architecture: bypassing multiplier + Razor + AHL.

    Build one with :meth:`build`; drive it with :meth:`run_patterns` or
    :meth:`run_random`.
    """

    netlist: Netlist
    kind: str
    width: int
    skip: int
    cycle_ns: float
    factory: AgedCircuitFactory
    technology: Technology = DEFAULT_TECHNOLOGY
    config: SimulationConfig = DEFAULT_SIM_CONFIG
    adaptive: bool = True
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("column", "row"):
            raise ConfigError(
                "kind must be 'column' or 'row', got %r" % (self.kind,)
            )
        if self.cycle_ns <= 0:
            raise ConfigError("cycle_ns must be positive")
        if not 0 <= self.skip < self.width:
            raise ConfigError(
                "skip=%d leaves no room for the stricter Skip-%d block in "
                "a %d-bit operand (skip must lie in [0, %d])"
                % (self.skip, self.skip + 1, self.width, self.width - 1)
            )
        if not self.name:
            prefix = "A-VL" if self.adaptive else "T-VL"
            tag = "CB" if self.kind == "column" else "RB"
            self.name = "%s%s-%d skip%d" % (prefix, tag, self.width, self.skip)

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        width: int,
        kind: str = "column",
        skip: Optional[int] = None,
        cycle_ns: Optional[float] = None,
        adaptive: bool = True,
        technology: Technology = DEFAULT_TECHNOLOGY,
        config: SimulationConfig = DEFAULT_SIM_CONFIG,
        characterize_patterns: int = 2000,
        characterize_seed: int = 2014,
        name: str = "",
    ) -> "AgingAwareMultiplier":
        """Construct the architecture around a freshly generated netlist.

        Args:
            width: Operand width ``m`` (the paper uses 16 and 32).
            kind: ``"column"`` or ``"row"`` bypassing.
            skip: Judging threshold ``n`` (defaults to ``width//2 - 1``,
                the paper's Skip-7 / Skip-15 working points).
            cycle_ns: Clock period; defaults to half the fresh critical
                path (a safe starting point inside the preferred range).
            adaptive: False builds the traditional variable-latency
                design (single judging block, Figs. 19-24 baselines).
        """
        if kind not in ("column", "row"):
            raise ConfigError("kind must be 'column' or 'row'")
        netlist = build_multiplier(width, kind)
        factory = AgedCircuitFactory.characterize(
            netlist,
            technology,
            num_patterns=characterize_patterns,
            seed=characterize_seed,
        )
        if skip is None:
            skip = width // 2 - 1
        if cycle_ns is None:
            cycle_ns = 0.5 * StaticTiming(netlist, technology).critical_delay
        return cls(
            netlist=netlist,
            kind=kind,
            width=width,
            skip=skip,
            cycle_ns=cycle_ns,
            factory=factory,
            technology=technology,
            config=config,
            adaptive=adaptive,
            name=name,
        )

    def with_cycle(self, cycle_ns: float) -> "AgingAwareMultiplier":
        """A sibling architecture at a different clock period (shares the
        netlist, stress profile and compiled-circuit cache)."""
        return dataclasses.replace(self, cycle_ns=cycle_ns, name="")

    def with_skip(self, skip: int) -> "AgingAwareMultiplier":
        """A sibling architecture with a different judging threshold."""
        return dataclasses.replace(self, skip=skip, name="")

    # ------------------------------------------------------------------

    def judged_operand(self, md: np.ndarray, mr: np.ndarray) -> np.ndarray:
        """The operand the AHL inspects: md (column) or mr (row)."""
        return md if self.kind == "column" else mr

    def critical_path_ns(self, years: float = 0.0) -> float:
        """Aged worst-case combinational delay."""
        scale = None if years == 0 else self.factory.delay_scale(years)
        return StaticTiming(self.netlist, self.technology, scale).critical_delay

    def run_random(
        self,
        num_patterns: int,
        seed: int = 1,
        years: float = 0.0,
        check_golden: bool = False,
        policy: Union[str, RecoveryPolicy, None] = None,
    ) -> ArchitectureRunResult:
        """Run uniformly random operands (the paper's workload)."""
        rng = np.random.default_rng(seed)
        high = 1 << self.width
        md = rng.integers(0, high, num_patterns, dtype=np.uint64)
        mr = rng.integers(0, high, num_patterns, dtype=np.uint64)
        return self.run_patterns(
            md, mr, years=years, check_golden=check_golden, policy=policy
        )

    def run_patterns(
        self,
        md: np.ndarray,
        mr: np.ndarray,
        years: float = 0.0,
        check_golden: bool = False,
        stream=None,
        policy: Union[str, RecoveryPolicy, None] = None,
    ) -> ArchitectureRunResult:
        """Cycle-accurate execution of a pattern stream at age ``years``.

        ``stream`` may carry a pre-computed
        :class:`~repro.timing.engine.StreamResult` for exactly these
        operands at exactly this age -- the cycle-period sweeps reuse one
        circuit simulation across every clock setting, since the path
        delays do not depend on the clock.  Fault-injection campaigns
        use the same mechanism to feed a *faulty* stream through the
        healthy control loop.

        ``policy`` overrides the configured recovery policy for this run
        (a name from :data:`repro.config.RECOVERY_POLICIES` or a
        :class:`RecoveryPolicy` instance).
        """
        md = np.asarray(md, dtype=np.uint64)
        mr = np.asarray(mr, dtype=np.uint64)
        if md.shape != mr.shape or md.ndim != 1 or md.size == 0:
            raise SimulationError("md and mr must be equal-length 1-D arrays")

        if stream is None:
            # Replay fast path: the factory's cached value plane is
            # re-timed for this age instead of re-simulating values
            # (bit-identical to circuit(years).run(...)).
            stream = self.factory.stream_result(years, {"md": md, "mr": mr})
        elif stream.num_patterns != md.size:
            raise SimulationError(
                "precomputed stream has %d patterns, operands have %d"
                % (stream.num_patterns, md.size)
            )
        zeros = count_zeros(self.judged_operand(md, mr), self.width)
        # Row 0: judged by the Skip-n block, row 1: by Skip-(n+1).
        judged = zeros >= np.array([[self.skip], [self.skip + 1]])
        report, one_cycle, resolution = run_control_loop(
            self.name,
            judged,
            stream.delays,
            self.cycle_ns,
            years,
            self.config,
            self.adaptive,
            policy,
        )
        golden_ok = None
        if check_golden:
            golden_ok = bool(
                np.array_equal(
                    stream.outputs["p"], golden_products(md, mr, self.width)
                )
            )
        return ArchitectureRunResult(
            report=report,
            delays=stream.delays,
            products=stream.outputs["p"],
            one_cycle=one_cycle,
            errors=resolution.errors,
            mean_switched_caps=(
                None
                if stream.switched_caps is None
                else stream.mean_switched_caps()
            ),
            golden_ok=golden_ok,
            undetectable=resolution.undetectable,
            recovered=resolution.recovered,
            exhausted=resolution.exhausted,
        )

    def run_lifetime(
        self,
        md: np.ndarray,
        mr: np.ndarray,
        years: "Sequence[float]",
        check_golden: bool = False,
        policy: Union[str, RecoveryPolicy, None] = None,
        fold: bool = True,
    ) -> "List[ArchitectureRunResult]":
        """Run the control loop at every aging timestep of a lifetime.

        One value pass + one batched arrival replay (see
        :meth:`repro.aging.degradation.AgedCircuitFactory
        .stream_results`) feed the per-timestep control loops, so the
        sweep costs O(value pass + k * replay) instead of k full
        simulations.  ``fold`` (default on) deduplicates repeated
        operand transitions before the value pass (see
        :mod:`repro.timing.fold`).  Each element is bit-identical to
        ``run_patterns(md, mr, years=y, ...)`` at the matching year.
        """
        years = list(years)
        streams = self.factory.stream_results(
            years, {"md": md, "mr": mr}, fold=fold
        )
        return [
            self.run_patterns(
                md,
                mr,
                years=year,
                check_golden=check_golden,
                stream=stream,
                policy=policy,
            )
            for year, stream in zip(years, streams)
        ]

    # ------------------------------------------------------------------

    def area(self) -> AreaReport:
        """Fig. 25 accounting: core + input DFFs + Razor bank + AHL."""
        ahl_nl, sequential_bits = ahl_netlist(self.width, self.skip)
        return area_report(
            self.netlist,
            name=self.name,
            input_ff_bits=2 * self.width,
            output_ff_bits=0,
            razor_bits=2 * self.width,
            ahl_netlist=ahl_nl,
            extra_dff_bits=sequential_bits,
        )
