"""Golden behavioral models and operand helpers.

The structural generators are verified against these plain-integer
models: exhaustively for small widths, randomly for 16/32 bits.  The
zero-counting helpers implement the AHL judging criterion (the number of
zeros in the multiplicand / multiplicator decides one- vs two-cycle
execution, Section III-A).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..errors import WorkloadError

ArrayLike = Union[Sequence[int], np.ndarray]


def golden_product(a: int, b: int, width: int) -> int:
    """Reference ``width x width`` unsigned product."""
    _check_operand(a, width)
    _check_operand(b, width)
    return a * b


def golden_products(a: ArrayLike, b: ArrayLike, width: int) -> np.ndarray:
    """Vectorized reference products as uint64 (width <= 32)."""
    if width > 32:
        raise WorkloadError("vectorized golden product supports width <= 32")
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    limit = np.uint64(1) << np.uint64(width)
    if np.any(a >= limit) or np.any(b >= limit):
        raise WorkloadError("operand does not fit in %d bits" % width)
    return a * b


def golden_add(a: int, b: int, width: int) -> int:
    """Reference ``width``-bit addition with carry-out in bit ``width``."""
    _check_operand(a, width)
    _check_operand(b, width)
    return a + b


def count_zeros(value: ArrayLike, width: int) -> np.ndarray:
    """Number of zero bits in each ``width``-bit operand.

    This is the judging-block quantity: Skip-``n`` treats a pattern as
    one-cycle when this count is >= ``n``.
    """
    values = np.asarray(value, dtype=np.uint64)
    limit_ok = width >= 64 or not np.any(values >> np.uint64(width))
    if not limit_ok:
        raise WorkloadError("operand does not fit in %d bits" % width)
    return width - count_ones(values, width)


#: SWAR popcount constants: 2-, 4- and 8-bit lane masks and the byte
#: summing multiplier.
_M1, _M2, _M4, _H01 = (
    np.uint64(m)
    for m in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x0101010101010101,
    )
)


def count_ones(value: ArrayLike, width: int) -> np.ndarray:
    """Number of one bits in each ``width``-bit operand (bits at and
    above ``width`` are ignored).

    A fixed handful of whole-array ops: the SWAR popcount sums bit
    pairs, then nibbles, then bytes, and the multiply gathers the byte
    sums into the top byte (uint64 array arithmetic wraps silently).
    """
    values = np.asarray(value, dtype=np.uint64)
    x = values.reshape(-1)
    if width < 64:
        x = x & np.uint64((1 << width) - 1)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    ones = ((x * _H01) >> np.uint64(56)).astype(np.int64)
    return ones.reshape(values.shape)


def _check_operand(value: int, width: int) -> None:
    if width < 1:
        raise WorkloadError("width must be >= 1")
    if value < 0 or (width < 64 and value >> width):
        raise WorkloadError(
            "operand %d does not fit in %d bits" % (value, width)
        )
