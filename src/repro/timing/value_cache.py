"""Keyed in-memory cache of value planes, persisted through a store.

A :class:`~repro.timing.replay.ValuePlane` is a pure function of

* the netlist **structure** (cells, wiring, ports, bypass groups),
* the **stimulus** (and optional ``initial`` settling state),
* the delay-semantics **mode** (may-masks differ between ``inertial``
  and ``floating``),
* the **fault hooks** compiled into the circuit (hooks rewrite the
  value streams, so a faulty plane is a different plane).

:func:`plane_cache_key` folds all of those into one sha256 hex digest.
Fault hooks are opaque callables, so a hook participates only if it
carries a ``cache_key`` attribute (the fault injector attaches the
fault's ``site_id()``, see :func:`repro.faults.injector
.build_fault_hooks`); any hook without one makes the circuit uncacheable
and :meth:`ValuePlaneCache.get_or_build` silently bypasses the cache --
correctness never depends on hook authors opting in.

A :class:`ValuePlaneCache` keeps planes in an in-memory LRU and, when
given an :class:`~repro.experiments.store.ArtifactStore`, persists them
there as ``plane`` artifacts keyed ``{"plane": plane_cache_key(...)}``:
the store owns the file format, the embedded-key guard that turns a
stale or corrupt file into a rebuild, and the hit/miss/write counters
a suite run reports.  Planes carry no per-net activity (see
:meth:`repro.timing.engine.CompiledCircuit.toggle_counts`), so the key
has no stats field.

:meth:`ValuePlaneCache.replay_scales` prices ``(k, num_cells)``
delay-scale rows through the cached plane (folding the stimulus first
when that pays).  :meth:`ValuePlaneCache.price` is the same call with
each row persisted as a ``stream`` artifact keyed by
:func:`stream_keys`: the one code path that writes ``stream`` artifacts,
under both :meth:`~repro.experiments.context.ExperimentContext.price`
and the fault campaign's pristine baseline.  A ``stream`` artifact holds
no switched capacitance: the power pass
(:func:`~repro.timing.replay.build_switched_caps`) prices it once per
(netlist, stimulus), and its consumers persist it as a ``power``
artifact keyed by :func:`power_key`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..config import Technology
from ..errors import SimulationError
from ..nets.netlist import Netlist
from .engine import DEFAULT_MODE, CompiledCircuit, StreamResult
from .replay import ValuePlane, build_value_plane, replay_stream

#: Plane key schema version, hashed into every key.  Version 2: planes
#: are produced by the levelized SoA kernel.  Version 3: planes hold no
#: switched capacitance, so the key drops ``glitch_damping`` and a
#: stored version-2 plane (which carries it) is never read back.
VERSION = 3


def netlist_fingerprint(netlist: Netlist) -> str:
    """Structural sha256 of a netlist (wiring, ports, groups -- no
    delays: planes are delay-independent by construction).

    Memoized on the netlist instance keyed by its mutation counter
    (``Netlist.version``), so a netlist grown after fingerprinting is
    re-hashed.
    """
    cached = getattr(netlist, "_structural_fp", None)
    if cached is not None and cached[0] == netlist.version:
        return cached[1]
    h = hashlib.sha256()
    h.update(repr((netlist.name, netlist.num_nets)).encode())
    for cell in netlist.cells:
        h.update(
            repr(
                (
                    cell.cell_type.name,
                    cell.inputs,
                    cell.output,
                    cell.group,
                )
            ).encode()
        )
    for ports in (netlist.input_ports, netlist.output_ports):
        for name, port in ports.items():
            h.update(repr((name, port.nets, port.is_input)).encode())
    h.update(repr(sorted(netlist.group_enables.items())).encode())
    digest = h.hexdigest()
    netlist._structural_fp = (netlist.version, digest)
    return digest


def stimulus_digest(stimulus: Dict[str, Sequence[int]]) -> str:
    """sha256 over the stimulus arrays (order-independent)."""
    h = hashlib.sha256()
    for name in sorted(stimulus):
        arr = np.ascontiguousarray(
            np.asarray(stimulus[name], dtype=np.uint64)
        )
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@functools.lru_cache(maxsize=8)
def technology_fingerprint(technology: Technology) -> str:
    """Stable sha256 of every technology constant (memoized: every
    :func:`stream_keys` call needs it, and a ``Technology`` is a
    frozen value)."""
    h = hashlib.sha256()
    h.update(
        json.dumps(
            dataclasses.asdict(technology),
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    )
    return h.hexdigest()


def stream_keys(
    netlist: Netlist,
    technology: Technology,
    stimulus: Dict[str, Sequence[int]],
    scales: np.ndarray,
) -> List[Dict]:
    """Keys of the ``stream`` artifacts of the rows of the ``(k,
    num_cells)`` delay-scale matrix ``scales``, one per row.

    A key is :func:`netlist_fingerprint` x :func:`technology_fingerprint`
    x the circuit mode x :func:`stimulus_digest` x the sha256 of the
    row's float64 bytes.  The mode is always ``DEFAULT_MODE``: only such
    circuits are priced (:meth:`ValuePlaneCache.price`).  Nothing else
    shapes the stream of a circuit without fault hooks, so every caller
    that prices the same row of the same circuit on the same stimulus
    shares one artifact.
    """
    shared = {
        "netlist": netlist_fingerprint(netlist),
        "technology": technology_fingerprint(technology),
        "mode": DEFAULT_MODE,
        "stimulus": stimulus_digest(stimulus),
    }
    rows = np.ascontiguousarray(np.atleast_2d(scales), dtype=np.float64)
    return [
        dict(shared, scales=hashlib.sha256(row.tobytes()).hexdigest())
        for row in rows
    ]


def power_key(
    netlist: Netlist,
    technology: Technology,
    stimulus: Dict[str, Sequence[int]],
) -> Dict:
    """Key of the ``power`` artifact of ``stimulus`` through the fresh,
    hook-free ``netlist``: its switched capacitance per pattern.

    :func:`stream_keys` without the mode and the row: switched
    capacitance depends on neither (the technology fingerprint carries
    ``glitch_damping``), so every priced row and both modes share one.
    """
    return {
        "netlist": netlist_fingerprint(netlist),
        "technology": technology_fingerprint(technology),
        "stimulus": stimulus_digest(stimulus),
    }


def hooks_cache_key(fault_hooks: Dict[int, object]) -> Optional[str]:
    """Stable key for a fault-hook set, or None if any hook is opaque
    (no ``cache_key`` attribute) -- None means *bypass the cache*."""
    parts = []
    for net in sorted(fault_hooks):
        key = getattr(fault_hooks[net], "cache_key", None)
        if key is None:
            return None
        parts.append("%d=%s" % (net, key))
    return ";".join(parts)


def plane_cache_key(
    circuit: CompiledCircuit,
    stimulus: Dict[str, Sequence[int]],
    initial: Optional[Dict[str, int]] = None,
) -> Optional[str]:
    """The cache key for a plane build, or None when uncacheable."""
    hooks = hooks_cache_key(circuit.fault_hooks)
    if hooks is None and circuit.fault_hooks:
        return None
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "format": "repro-value-plane",
                "version": VERSION,
                "netlist": netlist_fingerprint(circuit.netlist),
                "mode": circuit.mode,
                "stimulus": stimulus_digest(stimulus),
                "initial": sorted(
                    (name, int(value))
                    for name, value in (initial or {}).items()
                ),
                "hooks": hooks or "",
                # Patched circuits (repro.timing.delta.patch_compiled)
                # share the child's structural fingerprint with a
                # from-scratch compile, but their plans were derived
                # through a delta chain; the lineage keeps a patched
                # plan's plane from ever colliding with its parent's
                # (or an unrelated chain's) cached entry.
                "lineage": list(
                    getattr(circuit, "delta_lineage", ())
                ),
            },
            sort_keys=True,
        ).encode()
    )
    return h.hexdigest()


def _pricing(circuit: Callable[[], CompiledCircuit]) -> CompiledCircuit:
    """The circuit ``circuit()`` returns, checked to be one whose
    streams :func:`stream_keys` keys."""
    compiled = circuit()
    if compiled.fault_hooks or compiled.mode != DEFAULT_MODE:
        raise SimulationError(
            "only hook-free %s-mode circuits are priced" % DEFAULT_MODE
        )
    return compiled


class ValuePlaneCache:
    """LRU in-memory value-plane cache, optionally backed by a store.

    Args:
        store: An :class:`~repro.experiments.store.ArtifactStore` that
            persists planes as ``plane`` artifacts; None keeps the cache
            memory-only.
        max_entries: In-memory LRU capacity (planes are a few MB each).
    """

    def __init__(self, store=None, max_entries: int = 8):
        self.store = store
        self.max_entries = max_entries
        self._memory: "Dict[str, ValuePlane]" = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.bypasses = 0
        #: Rows :meth:`price` replayed (not loaded from the store).
        self.priced_rows = 0

    def counters(self) -> Dict[str, int]:
        """Snapshot of the hit/miss accounting (suite observability)."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
        }

    def get_or_build(
        self,
        circuit: CompiledCircuit,
        stimulus: Dict[str, Sequence[int]],
        initial: Optional[Dict[str, int]] = None,
        chunk_size="auto",
    ) -> ValuePlane:
        """Return the plane for (circuit, stimulus), building at most
        once per key.  Uncacheable circuits (opaque fault hooks) always
        build fresh."""
        key = plane_cache_key(circuit, stimulus, initial)
        if key is None:
            self.bypasses += 1
            return build_value_plane(
                circuit,
                stimulus,
                initial=initial,
                chunk_size=chunk_size,
            )
        plane = self._memory.pop(key, None)
        if plane is not None:
            self._memory[key] = plane  # refresh LRU position
            self.hits += 1
            return plane
        if self.store is not None:
            plane = self.store.load("plane", {"plane": key})
            if plane is not None:
                self.disk_hits += 1
                self._remember(key, plane)
                return plane
        self.misses += 1
        plane = build_value_plane(
            circuit,
            stimulus,
            initial=initial,
            chunk_size=chunk_size,
            key=key,
        )
        self._remember(key, plane)
        if self.store is not None:
            self.store.save("plane", {"plane": key}, plane)
        return plane

    def replay_scales(
        self,
        circuit: CompiledCircuit,
        scales: np.ndarray,
        stimulus: Dict[str, Sequence[int]],
        collect_bit_arrivals: bool = False,
        fold: bool = True,
    ) -> List[StreamResult]:
        """Stream results for ``(k, num_cells)`` delay-scale rows through
        one cached value pass of ``stimulus`` on ``circuit``.

        The same sequence as ``CompiledCircuit(circuit.netlist,
        circuit.technology, row).run(stimulus, fold=fold)``
        (:func:`~repro.timing.replay.replay_stream`), with the plane
        taken from this cache.  ``fold`` (default on) deduplicates
        repeated operand transitions first: the *folded* plane is what
        gets cached and replayed, and every row is scattered back to
        stream order (see :mod:`repro.timing.fold`).  Folding is
        bypassed for hooked circuits and for streams that barely repeat.
        """
        scales = np.atleast_2d(np.asarray(scales, dtype=float))
        if scales.shape[0] == 0:
            return []
        return replay_stream(
            circuit,
            stimulus,
            scales,
            collect_bit_arrivals=collect_bit_arrivals,
            fold=fold,
            cache=self,
        )

    def price(
        self,
        netlist: Netlist,
        technology: Technology,
        scales: np.ndarray,
        stimulus: Dict[str, Sequence[int]],
        circuit: Callable[[], CompiledCircuit],
    ) -> List[StreamResult]:
        """:meth:`replay_scales` of ``netlist``, with every row a
        ``stream`` artifact (keyed by :func:`stream_keys`) when the cache
        has a store: rows the store holds are loaded, the rest are
        replayed together in one batch and saved.

        ``circuit`` returns the hook-free, default-mode compiled
        ``netlist`` to replay on; it is called only when a row has to be
        priced, so a warm store compiles nothing.  Its own
        ``delay_scale`` does not matter, only the rows do.
        """
        scales = np.atleast_2d(np.asarray(scales, dtype=float))
        if self.store is None:
            self.priced_rows += scales.shape[0]
            return self.replay_scales(_pricing(circuit), scales, stimulus)
        keys = stream_keys(netlist, technology, stimulus, scales)
        # Within one call only the row hash varies between keys.
        found: Dict[str, Optional[StreamResult]] = {}
        missing: Dict[str, int] = {}
        for index, key in enumerate(keys):
            if key["scales"] not in found:
                found[key["scales"]] = self.store.load("stream", key)
                if found[key["scales"]] is None:
                    missing[key["scales"]] = index
        if missing:
            rows = list(missing.values())
            if len(rows) < len(scales):
                scales = scales[rows]
            self.priced_rows += len(rows)
            fresh = self.replay_scales(_pricing(circuit), scales, stimulus)
            for (digest, index), result in zip(missing.items(), fresh):
                found[digest] = result
                self.store.save("stream", keys[index], result)
        return [found[key["scales"]] for key in keys]

    def _remember(self, key: str, plane: ValuePlane) -> None:
        self._memory[key] = plane
        while len(self._memory) > self.max_entries:
            self._memory.pop(next(iter(self._memory)))

    def clear(self) -> None:
        """Drop the in-memory entries (stored planes are left in place)."""
        self._memory.clear()
