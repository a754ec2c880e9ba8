"""Cell logic semantics shared by all simulators.

Two views of the same truth tables:

* :func:`eval_scalar` -- plain-Python evaluation of one cell on integer
  bits, used by the event-driven reference simulator and by tests;
* the ``CONTROLLING_VALUE`` table plus :func:`eval_vector` -- the
  numpy-vectorized evaluation used by the levelized stream engine.

Tri-state buffers are *transparent* here (output follows the data input
regardless of enable).  This is a deliberate modelling decision, documented
in DESIGN.md: in the bypassing multipliers every tri-state output is
consumed only by logic that is masked away when the buffer is disabled, so
transparency never changes a primary output; the power model separately
freezes switching inside disabled groups, and the timing model treats a
stably-disabled buffer as a quiet net.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..nets.cells import (
    OP_AND2,
    OP_AND3,
    OP_BUF,
    OP_INV,
    OP_MUX2,
    OP_NAND2,
    OP_NOR2,
    OP_OR2,
    OP_OR3,
    OP_TRIBUF,
    OP_XNOR2,
    OP_XOR2,
)

#: For simple gates: the input value that forces the output on its own
#: (0 for AND/NAND, 1 for OR/NOR).  XOR-family and complex cells have no
#: controlling value and are handled separately.
CONTROLLING_VALUE = {
    OP_AND2: 0,
    OP_AND3: 0,
    OP_NAND2: 0,
    OP_OR2: 1,
    OP_OR3: 1,
    OP_NOR2: 1,
}

#: Whether the simple gate inverts (affects the output value only).
INVERTING = {OP_NAND2, OP_NOR2, OP_INV, OP_XNOR2}


def eval_scalar(opcode: int, inputs: Sequence[int]) -> int:
    """Evaluate one cell on scalar bits.  ``TRIBUF`` is transparent."""
    if opcode == OP_BUF:
        return inputs[0]
    if opcode == OP_INV:
        return 1 - inputs[0]
    if opcode == OP_AND2:
        return inputs[0] & inputs[1]
    if opcode == OP_OR2:
        return inputs[0] | inputs[1]
    if opcode == OP_NAND2:
        return 1 - (inputs[0] & inputs[1])
    if opcode == OP_NOR2:
        return 1 - (inputs[0] | inputs[1])
    if opcode == OP_XOR2:
        return inputs[0] ^ inputs[1]
    if opcode == OP_XNOR2:
        return 1 - (inputs[0] ^ inputs[1])
    if opcode == OP_MUX2:
        d0, d1, select = inputs
        return d1 if select else d0
    if opcode == OP_TRIBUF:
        return inputs[0]
    if opcode == OP_AND3:
        return inputs[0] & inputs[1] & inputs[2]
    if opcode == OP_OR3:
        return inputs[0] | inputs[1] | inputs[2]
    raise SimulationError("unknown opcode %r" % (opcode,))


def eval_tribuf_scalar(din: int, enable: int, held: int) -> int:
    """Stateful scalar tri-state: drive ``din`` when enabled, else hold."""
    return din if enable else held


def eval_vector(opcode: int, values: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized settled-value evaluation (transparent ``TRIBUF``)."""
    if opcode == OP_BUF or opcode == OP_TRIBUF:
        return values[0]
    if opcode == OP_INV:
        return values[0] ^ 1
    if opcode == OP_AND2:
        return values[0] & values[1]
    if opcode == OP_OR2:
        return values[0] | values[1]
    if opcode == OP_NAND2:
        return (values[0] & values[1]) ^ 1
    if opcode == OP_NOR2:
        return (values[0] | values[1]) ^ 1
    if opcode == OP_XOR2:
        return values[0] ^ values[1]
    if opcode == OP_XNOR2:
        return (values[0] ^ values[1]) ^ 1
    if opcode == OP_MUX2:
        d0, d1, select = values
        return np.where(select.astype(bool), d1, d0).astype(np.uint8)
    if opcode == OP_AND3:
        return values[0] & values[1] & values[2]
    if opcode == OP_OR3:
        return values[0] | values[1] | values[2]
    raise SimulationError("unknown opcode %r" % (opcode,))


def aux_masks(
    opcode: int, values: Sequence[np.ndarray]
) -> "tuple[np.ndarray, ...]":
    """The value-derived masks the arrival rules of a cell consume.

    These are the *only* facts about logic values that timing needs:

    * simple gates with a controlling value: per-input ``value == ctrl``;
    * MUX2: the boolean select stream;
    * TRIBUF: the boolean enable stream;
    * BUF/INV/XOR/XNOR: nothing (pure delay propagation).

    Because they depend on values but never on delays, a value-plane
    pass can compute them once and replay arrivals for arbitrarily many
    per-cell delay vectors (see :mod:`repro.timing.replay`).
    """
    ctrl = CONTROLLING_VALUE.get(opcode)
    if ctrl is not None:
        return tuple(value == ctrl for value in values)
    if opcode == OP_MUX2:
        return (values[2].astype(bool),)
    if opcode == OP_TRIBUF:
        return (values[1].astype(bool),)
    if opcode in (OP_BUF, OP_INV, OP_XOR2, OP_XNOR2):
        return ()
    raise SimulationError("no arrival rule for opcode %r" % (opcode,))


def aux_count(opcode: int, num_inputs: int) -> int:
    """How many masks :func:`aux_masks` yields for a cell of
    ``opcode`` with ``num_inputs`` pins."""
    if CONTROLLING_VALUE.get(opcode) is not None:
        return num_inputs
    if opcode in (OP_MUX2, OP_TRIBUF):
        return 1
    return 0


def may_vector(
    opcode: int,
    values: Sequence[np.ndarray],
    mays: Sequence[np.ndarray],
    aux: Optional["tuple[np.ndarray, ...]"] = None,
) -> np.ndarray:
    """Floating-mode may-change propagation (value- and may-dependent,
    delay-independent).  ``aux`` may carry precomputed
    :func:`aux_masks` output for the same cell."""
    if opcode in (OP_BUF, OP_INV):
        return mays[0]
    if opcode in (OP_XOR2, OP_XNOR2):
        return mays[0] | mays[1]
    if aux is None:
        aux = aux_masks(opcode, values)
    if CONTROLLING_VALUE.get(opcode) is not None:
        stable_ctrl = np.zeros_like(mays[0])
        any_may = np.zeros_like(mays[0])
        for may, c in zip(mays, aux):
            stable_ctrl |= c & ~may
            any_may |= may
        return any_may & ~stable_ctrl
    if opcode == OP_MUX2:
        v0, v1, _ = values
        may0, may1, may_s = mays
        (sel,) = aux
        # If both data inputs are quiet and equal, the output is pinned
        # even while the select moves.
        pinned = ~may0 & ~may1 & (v0 == v1)
        chosen_may = np.where(sel, may1, may0)
        return (may_s & ~pinned) | chosen_may
    if opcode == OP_TRIBUF:
        may_d, may_e = mays
        (enabled,) = aux
        # Enable stable: acts as a wire when on, frozen when off.
        return np.where(may_e, True, enabled & may_d)
    raise SimulationError("no arrival rule for opcode %r" % (opcode,))


def transition_vector(
    opcode: int,
    values: Sequence[np.ndarray],
    transitions: Sequence[np.ndarray],
    changed: np.ndarray,
    damping: float = 1.0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-pattern expected transition counts (glitches included).

    Zero-delay toggle counting misses the dominant power term of deep
    arrays: glitch activity.  This propagates value-conditioned
    transition densities (Najm-style): each input transition produces an
    output transition when the other inputs currently sensitize it.
    Multipliers amplify this down their carry-save rows, which is why
    the plain array multiplier burns more power than the (larger)
    bypassing multipliers -- the effect Figs. 26-27(b) show.

    Tri-state buffers pass no transitions while disabled, so bypassed
    full adders are automatically quiet.  ``damping`` models inertial
    pulse filtering: a gate only propagates a fraction of the glitch
    trains arriving at its pins (narrow pulses die inside the gate), so
    activity stays bounded down deep arrays.  The result is floored at
    the functional toggle (``changed``) so power never drops below the
    zero-delay estimate.

    ``values`` are uint8 0/1 rows, so a sensitizing condition is the
    value itself (or its complement, ``v ^ 1``) and multiplies the float
    transitions directly.  The terms accumulate left to right, then
    damp and floor, into ``out`` when given (a float array shaped like
    ``changed`` that no operand aliases), else into a new array.
    """
    if out is None:
        out = np.empty(changed.shape)
    if opcode in (OP_BUF, OP_INV):
        np.copyto(out, transitions[0])
    elif opcode in (OP_XOR2, OP_XNOR2):
        np.add(transitions[0], transitions[1], out=out)
    elif opcode in (OP_AND2, OP_NAND2):
        a, b = values
        np.multiply(transitions[0], b, out=out)
        out += transitions[1] * a
    elif opcode in (OP_OR2, OP_NOR2):
        a, b = values
        np.multiply(transitions[0], b ^ 1, out=out)
        out += transitions[1] * (a ^ 1)
    elif opcode == OP_AND3:
        a, b, c = values
        np.multiply(transitions[0], b & c, out=out)
        out += transitions[1] * (a & c)
        out += transitions[2] * (a & b)
    elif opcode == OP_OR3:
        a, b, c = values
        np.multiply(transitions[0], (b | c) ^ 1, out=out)
        out += transitions[1] * ((a | c) ^ 1)
        out += transitions[2] * ((a | b) ^ 1)
    elif opcode == OP_MUX2:
        d0, d1, select = values
        # The selected data pin, as ``t0 * (s ^ 1) + t1 * s``: exact,
        # since one term is the pin and the other 0.0.
        np.multiply(transitions[0], select ^ 1, out=out)
        out += transitions[1] * select
        out += transitions[2] * (d0 ^ d1)
    elif opcode == OP_TRIBUF:
        din, enable = values
        # Disabled: quiet.  Enable flips contribute one output event.
        np.multiply(transitions[0], enable, out=out)
        out += transitions[1] * 0.5
    else:
        raise SimulationError("no transition rule for opcode %r" % (opcode,))
    np.multiply(out, damping, out=out)
    return np.maximum(out, changed, out=out)


def changed_matrix(
    values: np.ndarray, carry: "Optional[np.ndarray | int]" = None
) -> np.ndarray:
    """One-step value-change flags along the last (pattern) axis.

    ``carry`` supplies each row's value just before the first pattern
    (scalar for a single stream, ``(B,)`` for a stacked bucket); None
    marks a stream opening on its settling pattern, whose first flag is
    False by construction.  Equivalent per element to the engine's
    historical per-net ``changed_flags`` closure, for any batch shape.
    """
    flags = np.empty(values.shape, dtype=bool)
    if carry is None:
        flags[..., 0] = False
    else:
        flags[..., 0] = values[..., 0] != carry
    flags[..., 1:] = values[..., 1:] != values[..., :-1]
    return flags


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Combine a ``(width, n)`` LSB-first bit matrix into uint64 words."""
    width, _ = bits.shape
    if width > 64:
        raise SimulationError("cannot pack more than 64 bits per word")
    out = np.zeros(bits.shape[1], dtype=np.uint64)
    for i in range(width):
        out |= bits[i].astype(np.uint64) << np.uint64(i)
    return out


def unpack_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Split uint64 words into a ``(width, n)`` LSB-first bit matrix."""
    words = np.asarray(words, dtype=np.uint64)
    if width < 1 or width > 64:
        raise SimulationError("width must lie in [1, 64]")
    if width < 64 and np.any(words >> np.uint64(width)):
        raise SimulationError("stimulus value does not fit in %d bits" % width)
    bits = np.empty((width, words.shape[0]), dtype=np.uint8)
    for i in range(width):
        bits[i] = (words >> np.uint64(i)).astype(np.uint64) & np.uint64(1)
    return bits


def tribuf_masked_toggles(
    values: np.ndarray,
    enables: np.ndarray,
    carry_value: Optional[int] = None,
) -> "tuple[np.ndarray, Optional[int]]":
    """Per-step toggle mask of nets that hold their value while disabled.

    ``values`` is the transparent value stream along the last axis --
    ``(n,)`` for one net, ``(B, n)`` for nets sharing one enable --
    and ``enables`` the group's ``(n,)`` enable bit per step.  The
    *actual* net value is the transparent value at the most recent
    enabled step (the tri-state hold).  Returns a boolean per-step
    toggle mask shaped like ``values`` and the held value after the
    last step (an int for one net, ``(B,)`` for a batch; for exact
    chunked accumulation).
    """
    n = values.shape[-1]
    if enables.shape != (n,):
        raise SimulationError("values and enables must have equal length")
    idx = np.where(enables.astype(bool), np.arange(n), -1)
    last = np.maximum.accumulate(idx)
    seen = last >= 0
    held = values[..., np.maximum(last, 0)].astype(np.int16)
    if carry_value is not None:
        prev_first = np.asarray(carry_value, dtype=np.int16)
    elif seen.any():
        # Before the first enabled step the net floats at its first held
        # value: no observable toggle.
        prev_first = held[..., np.argmax(seen)]
    else:
        prev_first = np.zeros(values.shape[:-1], dtype=np.int16)
    held = np.where(seen, held, prev_first[..., None])
    toggles = np.empty(held.shape, dtype=bool)
    toggles[..., 0] = held[..., 0] != prev_first
    toggles[..., 1:] = held[..., 1:] != held[..., :-1]
    final = held[..., -1]
    return toggles, int(final) if final.ndim == 0 else final
