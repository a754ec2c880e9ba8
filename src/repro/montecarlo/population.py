"""Die-population compiler: dies x years -> batched replay -> reductions.

The compiler turns ``num_dies`` sampled Vth-shift vectors and the
aging-year grid into stacked ``(die_chunk * num_years, num_cells)``
delay-scale matrices and prices each slab in **one**
:class:`~repro.timing.replay.ArrivalReplay` pass over the shared value
plane -- the same batched substrate the lifetime sweeps use, now with
the die axis folded into the corner axis.  Row ``i * num_years + j`` of
a slab is die ``lo + i`` at year ``years[j]``, so every per-row
reduction reshapes straight back to ``(dies, years)``.

Per (die, year) row the compiler keeps only compact reductions (the
full ``(dies * years, patterns)`` delay matrix never materializes
across slabs):

* ``crit_ns`` -- the row's critical path (max delay over patterns);
* ``bucket_max_ns`` -- max delay per judged-operand zero count, whose
  suffix maxima give the worst *one-cycle* delay for **every** Skip-n
  threshold at once (guard-band tuning reads this, see
  :mod:`repro.montecarlo.analytics`);
* per clock-period counters at the architecture's configured skip:
  recoverable one-cycle Razor violations, one-cycle deep misses,
  beyond-two-cycle operations and their degrade-policy cycle charges.

Every reduction is an elementwise / per-row operation, so the arrays
are bit-identical no matter how the die axis is chunked or sharded --
and bit-identical to :func:`price_population_naive`, the reference loop
that compiles and runs one full :class:`~repro.timing.engine
.CompiledCircuit` per (die, year).  ``tests/test_montecarlo.py``
asserts both identities; ``benchmarks/test_mc_bench.py`` gates the
speedup.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aging.degradation import AgedCircuitFactory, vth_shifted_delay_scale
from ..config import DEFAULT_SIM_CONFIG, SimulationConfig
from ..errors import ConfigError, SimulationError
from ..timing.engine import CompiledCircuit
from ..timing.replay import ArrivalReplay
from .sampler import CorrelatedVthSampler
from .spec import MonteCarloSpec


@dataclasses.dataclass
class PopulationReductions:
    """Per-(die, year) reductions of one priced population slice.

    Shapes: ``D`` dies, ``Y`` years, ``C`` clock periods, ``W`` operand
    width.

    Attributes:
        years: The aging grid (years).
        clock_ns: The clock-period grid (ns).
        width / skip: Judged-operand width and the configured Skip-n.
        num_patterns / num_one: Stream length and how many patterns the
            configured skip judges one-cycle (stream-wide, die-free).
        crit_ns: ``(D, Y)`` per-row critical path (ns).
        bucket_max_ns: ``(D, Y, W + 1)`` max delay among patterns whose
            judged operand has exactly ``z`` zeros (0.0 = empty bucket).
        one_violations: ``(D, Y, C)`` one-cycle patterns with
            ``T < delay <= 2T`` (recoverable Razor errors).
        one_deep: ``(D, Y, C)`` one-cycle patterns beyond ``2T``.
        deep_ops: ``(D, Y, C)`` patterns (any judgment) beyond ``2T``.
        deep_cycles: ``(D, Y, C)`` summed fallback-cycle charges
            ``min(ceil(delay / T), max_fallback)`` over those patterns.
    """

    years: Tuple[float, ...]
    clock_ns: Tuple[float, ...]
    width: int
    skip: int
    num_patterns: int
    num_one: int
    crit_ns: np.ndarray
    bucket_max_ns: np.ndarray
    one_violations: np.ndarray
    one_deep: np.ndarray
    deep_ops: np.ndarray
    deep_cycles: np.ndarray

    @property
    def num_dies(self) -> int:
        return self.crit_ns.shape[0]

    def _meta(self) -> Tuple:
        return (
            self.years,
            self.clock_ns,
            self.width,
            self.skip,
            self.num_patterns,
            self.num_one,
        )

    @staticmethod
    def concat(
        parts: "Sequence[PopulationReductions]",
    ) -> "PopulationReductions":
        """Stitch contiguous die-range shards back together (die order =
        argument order)."""
        if not parts:
            raise ConfigError("cannot concat zero population shards")
        head = parts[0]
        for part in parts[1:]:
            if part._meta() != head._meta():
                raise ConfigError(
                    "population shards disagree on their pricing grid"
                )
        return PopulationReductions(
            years=head.years,
            clock_ns=head.clock_ns,
            width=head.width,
            skip=head.skip,
            num_patterns=head.num_patterns,
            num_one=head.num_one,
            crit_ns=np.concatenate([p.crit_ns for p in parts]),
            bucket_max_ns=np.concatenate([p.bucket_max_ns for p in parts]),
            one_violations=np.concatenate(
                [p.one_violations for p in parts]
            ),
            one_deep=np.concatenate([p.one_deep for p in parts]),
            deep_ops=np.concatenate([p.deep_ops for p in parts]),
            deep_cycles=np.concatenate([p.deep_cycles for p in parts]),
        )

    # -- store round-trip ----------------------------------------------

    def to_payload(self) -> Dict:
        """``{"meta", "arrays"}`` payload for the artifact store."""
        return {
            "meta": {
                "years": list(self.years),
                "clock_ns": list(self.clock_ns),
                "width": self.width,
                "skip": self.skip,
                "num_patterns": self.num_patterns,
                "num_one": self.num_one,
            },
            "arrays": {
                "crit_ns": self.crit_ns,
                "bucket_max_ns": self.bucket_max_ns,
                "one_violations": self.one_violations,
                "one_deep": self.one_deep,
                "deep_ops": self.deep_ops,
                "deep_cycles": self.deep_cycles,
            },
        }

    @staticmethod
    def from_payload(payload: Dict) -> "PopulationReductions":
        meta = payload["meta"]
        arrays = payload["arrays"]
        return PopulationReductions(
            years=tuple(meta["years"]),
            clock_ns=tuple(meta["clock_ns"]),
            width=int(meta["width"]),
            skip=int(meta["skip"]),
            num_patterns=int(meta["num_patterns"]),
            num_one=int(meta["num_one"]),
            crit_ns=np.asarray(arrays["crit_ns"]),
            bucket_max_ns=np.asarray(arrays["bucket_max_ns"]),
            one_violations=np.asarray(arrays["one_violations"]),
            one_deep=np.asarray(arrays["one_deep"]),
            deep_ops=np.asarray(arrays["deep_ops"]),
            deep_cycles=np.asarray(arrays["deep_cycles"]),
        )


def _reduce_rows(
    delays: np.ndarray,
    zeros: np.ndarray,
    width: int,
    skip: int,
    clock_ns: Sequence[float],
    max_fallback: int,
):
    """The shared per-row reduction kernel (rows = die x year corners).

    Works identically on a ``(k, n)`` batched matrix and a ``(1, n)``
    naive row; every operation is elementwise or a per-row reduction, so
    batched and naive outputs are bit-identical.
    """
    k = delays.shape[0]
    crit = delays.max(axis=1)
    bucket = np.zeros((k, width + 1))
    for z in range(width + 1):
        mask = zeros == z
        if mask.any():
            bucket[:, z] = delays[:, mask].max(axis=1)
    one_mask = zeros >= skip
    d_one = delays[:, one_mask]
    num_clocks = len(clock_ns)
    one_viol = np.zeros((k, num_clocks), dtype=np.int64)
    one_deep = np.zeros((k, num_clocks), dtype=np.int64)
    deep_ops = np.zeros((k, num_clocks), dtype=np.int64)
    deep_cycles = np.zeros((k, num_clocks))
    for ci, period in enumerate(clock_ns):
        budget = 2.0 * period
        one_viol[:, ci] = (
            (d_one > period) & (d_one <= budget)
        ).sum(axis=1)
        one_deep[:, ci] = (d_one > budget).sum(axis=1)
        over = delays > budget
        deep_ops[:, ci] = over.sum(axis=1)
        charge = np.minimum(
            np.ceil(delays / period), float(max_fallback)
        )
        deep_cycles[:, ci] = np.where(over, charge, 0.0).sum(axis=1)
    return crit, bucket, one_viol, one_deep, deep_ops, deep_cycles


def _stacked_scales(
    factory: AgedCircuitFactory,
    years: Sequence[float],
    shifts: np.ndarray,
) -> np.ndarray:
    """``(dies * len(years), num_cells)`` scale rows, die-major: row
    ``i * len(years) + j`` is die ``i`` at ``years[j]``."""
    dies, num_cells = shifts.shape
    num_years = len(years)
    rows = np.empty((dies * num_years, num_cells))
    for j, year in enumerate(years):
        rows[j::num_years] = factory.vth_shifted_scales(year, shifts)
    return rows


def price_population(
    factory: AgedCircuitFactory,
    sampler: CorrelatedVthSampler,
    spec: MonteCarloSpec,
    stimulus: Dict[str, np.ndarray],
    zeros: np.ndarray,
    width: int,
    skip: int,
    clock_ns: Sequence[float],
    config: SimulationConfig = DEFAULT_SIM_CONFIG,
    die_range: Optional[Tuple[int, int]] = None,
) -> PopulationReductions:
    """Price dies ``die_range`` (default: all) through the batched path.

    One cached value pass serves the whole population; each
    ``die_chunk`` slab prices ``die_chunk * num_years`` delay-scale
    rows in a single :meth:`~repro.timing.replay.ArrivalReplay.replay`
    call and is immediately reduced, so peak memory stays bounded by
    the slab, not the population.
    """
    lo, hi = die_range if die_range is not None else (0, spec.num_dies)
    if not 0 <= lo <= hi <= spec.num_dies:
        raise ConfigError(
            "die_range [%d, %d) outside population of %d"
            % (lo, hi, spec.num_dies)
        )
    num_years = spec.num_years
    plane = factory.value_plane(stimulus)
    replayer = ArrivalReplay(factory.circuit(0.0), plane)
    parts: List[PopulationReductions] = []
    for start in range(lo, hi, spec.die_chunk):
        stop = min(start + spec.die_chunk, hi)
        shifts = sampler.sample(start, stop)
        rows = _stacked_scales(factory, spec.years, shifts)
        delays = replayer.replay(rows).delays
        crit, bucket, one_viol, one_deep, deep_ops, deep_cycles = (
            _reduce_rows(
                delays, zeros, width, skip, clock_ns,
                config.max_fallback_cycles,
            )
        )
        dies = stop - start
        parts.append(
            PopulationReductions(
                years=tuple(spec.years),
                clock_ns=tuple(float(t) for t in clock_ns),
                width=width,
                skip=skip,
                num_patterns=int(zeros.shape[0]),
                num_one=int((zeros >= skip).sum()),
                crit_ns=crit.reshape(dies, num_years),
                bucket_max_ns=bucket.reshape(dies, num_years, width + 1),
                one_violations=one_viol.reshape(dies, num_years, -1),
                one_deep=one_deep.reshape(dies, num_years, -1),
                deep_ops=deep_ops.reshape(dies, num_years, -1),
                deep_cycles=deep_cycles.reshape(dies, num_years, -1),
            )
        )
    return PopulationReductions.concat(parts)


def price_population_naive(
    factory: AgedCircuitFactory,
    sampler: CorrelatedVthSampler,
    spec: MonteCarloSpec,
    stimulus: Dict[str, np.ndarray],
    zeros: np.ndarray,
    width: int,
    skip: int,
    clock_ns: Sequence[float],
    config: SimulationConfig = DEFAULT_SIM_CONFIG,
    die_range: Optional[Tuple[int, int]] = None,
) -> PopulationReductions:
    """Reference per-die loop: compile and run one
    :class:`CompiledCircuit` per (die, year) -- what pricing a
    population costs without sharing one value plane and batching the
    dies' replays.  Each run is itself a value plane plus a one-row
    arrival replay, so this loop shares the arrival rule with
    :func:`price_population`; only the plane reuse and the batching
    differ.  Reductions are computed by the same kernel, so the output
    is bit-identical to :func:`price_population` (asserted in tests);
    only the wall clock differs.  The benchmark extrapolates this loop
    from a die subset.
    """
    lo, hi = die_range if die_range is not None else (0, spec.num_dies)
    if not 0 <= lo <= hi <= spec.num_dies:
        raise ConfigError(
            "die_range [%d, %d) outside population of %d"
            % (lo, hi, spec.num_dies)
        )
    netlist = factory.netlist
    technology = factory.technology
    num_years = spec.num_years
    parts: List[PopulationReductions] = []
    for die in range(lo, hi):
        shift = sampler.sample_die(die)
        crit = np.empty((1, num_years))
        bucket = np.empty((1, num_years, width + 1))
        shape = (1, num_years, len(clock_ns))
        one_viol = np.empty(shape, dtype=np.int64)
        one_deep = np.empty(shape, dtype=np.int64)
        deep_ops = np.empty(shape, dtype=np.int64)
        deep_cycles = np.empty(shape)
        for j, year in enumerate(spec.years):
            scale = vth_shifted_delay_scale(
                netlist, factory.stress, year, shift, technology
            )
            circuit = CompiledCircuit(netlist, technology, scale)
            result = circuit.run(stimulus)
            row = result.delays[None, :]
            c, b, v, od, dp, dc = _reduce_rows(
                row, zeros, width, skip, clock_ns,
                config.max_fallback_cycles,
            )
            crit[0, j] = c[0]
            bucket[0, j] = b[0]
            one_viol[0, j] = v[0]
            one_deep[0, j] = od[0]
            deep_ops[0, j] = dp[0]
            deep_cycles[0, j] = dc[0]
        parts.append(
            PopulationReductions(
                years=tuple(spec.years),
                clock_ns=tuple(float(t) for t in clock_ns),
                width=width,
                skip=skip,
                num_patterns=int(zeros.shape[0]),
                num_one=int((zeros >= skip).sum()),
                crit_ns=crit,
                bucket_max_ns=bucket,
                one_violations=one_viol,
                one_deep=one_deep,
                deep_ops=deep_ops,
                deep_cycles=deep_cycles,
            )
        )
    return PopulationReductions.concat(parts)
