"""Applying fault models to a netlist / compiled engine.

:func:`compile_with_faults` folds any mix of value faults (stuck-at,
transient flips -- applied through the engine's fault hooks) and delay
faults (applied through the per-cell delay-scale vector, composing with
aging/EM scales) into one :class:`~repro.timing.engine.CompiledCircuit`
for a full run.  Campaigns price the same two parts as a cone delta
instead: :func:`build_fault_hooks` for a hooked child and
:func:`fault_delay_scales` for a scale row
(:func:`repro.timing.delta.replay_delta`).

:func:`enumerate_fault_sites` produces a deterministic, seeded sweep of
candidate fault sites over a netlist's cell outputs, used by
:class:`repro.faults.campaign.InjectionCampaign`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..config import DEFAULT_TECHNOLOGY, Technology
from ..errors import FaultError
from ..nets.netlist import Netlist
from ..timing.engine import CompiledCircuit, FaultHook, fresh_circuit
from .models import DelayFault, FaultModel, StuckAtFault, TransientBitFlip

#: Fault-kind tags accepted by :func:`enumerate_fault_sites`.
SITE_KINDS = ("sa0", "sa1", "transient", "delay")


def _chain_hooks(first: FaultHook, second: FaultHook) -> FaultHook:
    def chained(values: np.ndarray, start_index: int) -> np.ndarray:
        return second(first(values, start_index), start_index)

    # Preserve value-plane cacheability (repro.timing.value_cache): a
    # chain is keyable iff both links are.
    first_key = getattr(first, "cache_key", None)
    second_key = getattr(second, "cache_key", None)
    if first_key is not None and second_key is not None:
        chained.cache_key = "%s+%s" % (first_key, second_key)
    return chained


def build_fault_hooks(
    netlist: Netlist, faults: Sequence[FaultModel]
) -> Dict[int, FaultHook]:
    """Collect the value-fault hooks of ``faults`` keyed by net id.

    Multiple value faults on the same net compose in listed order (e.g.
    a transient flip on top of a stuck net is absorbed by the stuck-at
    applied last).
    """
    hooks: Dict[int, FaultHook] = {}
    for fault in faults:
        if not isinstance(fault, FaultModel):
            raise FaultError("not a fault model: %r" % (fault,))
        fault.validate(netlist)
        hook = fault.value_hook()
        if hook is None:
            continue
        if getattr(hook, "cache_key", None) is None:
            # Deterministic identity so faulty value planes can be
            # cached per hook set (see repro.timing.value_cache).
            try:
                hook.cache_key = fault.site_id()
            except AttributeError:  # pragma: no cover - exotic callables
                pass
        net = fault.net
        hooks[net] = (
            _chain_hooks(hooks[net], hook) if net in hooks else hook
        )
    return hooks


def fault_delay_scale(
    netlist: Netlist,
    faults: Sequence[FaultModel],
    technology: Technology = DEFAULT_TECHNOLOGY,
    base_scale: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Fold :class:`DelayFault` extras into a per-cell delay-scale vector.

    The compiled delay of cell ``i`` is ``delay_units * time_unit_ns *
    scale[i]``, so an additive ``extra_ns`` becomes an additive
    delay-scale term.  The one-row form of :func:`fault_delay_scales`;
    returns ``base_scale`` (possibly None) untouched when no delay
    faults are present.
    """
    if not any(isinstance(f, DelayFault) for f in faults):
        return base_scale
    num_cells = len(netlist.cells)
    if base_scale is None:
        base = np.ones(num_cells)
    else:
        base = np.asarray(base_scale, dtype=float)
        if base.shape != (num_cells,):
            raise FaultError(
                "base delay scale must have one entry per cell (%d), got %r"
                % (num_cells, base.shape)
            )
    return fault_delay_scales(netlist, faults, base, technology)[0]


def fault_delay_scales(
    netlist: Netlist,
    faults: Sequence[FaultModel],
    base_scales: np.ndarray,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> np.ndarray:
    """Fold :class:`DelayFault` extras into a ``(k, num_cells)`` scale
    *matrix* -- every corner row gets the same additive term.

    This is the multi-corner form variant sweeps price through
    :func:`repro.timing.delta.replay_delta`: the perturbed columns are
    exactly the fault's cells, so the arrival cone stays the fault's
    forward cone.  Returns ``base_scales`` itself (not a copy) when no
    delay faults are present.
    """
    scales = np.asarray(base_scales, dtype=float)
    if scales.ndim == 1:
        scales = scales[None, :]
    num_cells = len(netlist.cells)
    if scales.ndim != 2 or scales.shape[1] != num_cells:
        raise FaultError(
            "base delay scales must be (k, num_cells) with"
            " num_cells=%d, got %r" % (num_cells, np.shape(base_scales))
        )
    delay_faults = [f for f in faults if isinstance(f, DelayFault)]
    if not delay_faults:
        return scales
    scales = scales.copy()
    unit = technology.time_unit_ns
    for fault in delay_faults:
        fault.validate(netlist)
        cell = netlist.cells[fault.cell]
        scales[:, fault.cell] += fault.extra_ns / (
            cell.cell_type.delay_units * unit
        )
    return scales


def compile_with_faults(
    netlist: Netlist,
    faults: Sequence[FaultModel],
    technology: Technology = DEFAULT_TECHNOLOGY,
    delay_scale: Optional[np.ndarray] = None,
    mode: str = "inertial",
) -> CompiledCircuit:
    """Compile ``netlist`` with ``faults`` injected.

    With an empty fault list this is exactly ``CompiledCircuit(netlist,
    technology, delay_scale, mode)`` -- the zero-fault campaign is
    bit-identical to the pristine simulation (property-tested) -- and
    without a ``delay_scale`` it is the netlist's shared
    :func:`~repro.timing.engine.fresh_circuit`.
    """
    hooks = build_fault_hooks(netlist, faults)
    scale = fault_delay_scale(netlist, faults, technology, delay_scale)
    if scale is None and not hooks:
        return fresh_circuit(netlist, technology, mode)
    return CompiledCircuit(
        netlist, technology, scale, mode, fault_hooks=hooks or None
    )


def em_fault_sites(
    netlist: Netlist,
    toggle_rates: np.ndarray,
    years: float = 10.0,
    em_model=None,
    limit: Optional[int] = None,
    technology: Technology = DEFAULT_TECHNOLOGY,
) -> List[DelayFault]:
    """Delay-fault sites derived from the electromigration model.

    Instead of spreading sites uniformly over the netlist
    (:func:`enumerate_fault_sites`), this targets the cells whose output
    wires electromigration ages fastest under the measured workload: the
    EM current-density model (:class:`~repro.aging.electromigration
    .ElectromigrationModel`) converts per-cell ``toggle_rates`` into
    delay-scale factors after ``years``, cells are ranked by the
    *absolute* delay they gain (scale excess x the cell's own delay),
    and each of the top ``limit`` cells gets a :class:`DelayFault` of
    exactly that magnitude.  Fully deterministic -- no sampling.
    """
    from ..aging.electromigration import ElectromigrationModel

    if em_model is None:
        em_model = ElectromigrationModel(technology)
    cells = netlist.cells
    if not cells:
        return []
    scale = em_model.delay_scale(netlist, toggle_rates, years)
    unit = technology.time_unit_ns
    extra_ns = np.array(
        [
            (scale[cell.index] - 1.0)
            * cell.cell_type.delay_units
            * unit
            for cell in cells
        ]
    )
    order = np.argsort(-extra_ns, kind="stable")
    if limit is not None:
        order = order[:limit]
    return [
        DelayFault(int(index), float(extra_ns[index])) for index in order
    ]


def enumerate_fault_sites(
    netlist: Netlist,
    kinds: Sequence[str] = SITE_KINDS,
    limit: Optional[int] = None,
    seed: int = 0,
    transient_rate: float = 1e-3,
    delay_extra_ns: float = 0.25,
) -> List[FaultModel]:
    """A deterministic sweep of single-fault sites over cell outputs.

    Cycles through ``kinds`` across a seeded shuffle of the netlist's
    cells, one fault per site, ``limit`` sites in total (all
    ``len(cells) * len(kinds)`` combinations when None).  Stuck-at and
    transient faults target the cell's output net; delay faults target
    the cell itself.
    """
    for kind in kinds:
        if kind not in SITE_KINDS:
            raise FaultError(
                "unknown fault site kind %r (known: %s)"
                % (kind, SITE_KINDS)
            )
    if not netlist.cells:
        return []
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(netlist.cells))
    total = len(order) * len(kinds)
    count = total if limit is None else min(limit, total)
    sites: List[FaultModel] = []
    for i in range(count):
        cell = netlist.cells[int(order[i % len(order)])]
        kind = kinds[i % len(kinds)]
        if kind == "sa0":
            sites.append(StuckAtFault(cell.output, 0))
        elif kind == "sa1":
            sites.append(StuckAtFault(cell.output, 1))
        elif kind == "transient":
            sites.append(
                TransientBitFlip(cell.output, transient_rate, seed=seed + i)
            )
        else:
            sites.append(DelayFault(cell.index, delay_extra_ns))
    return sites
