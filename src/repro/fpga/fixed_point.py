"""Signed fixed-point arithmetic with saturation.

The KLiNQ datapath uses a 32-bit fixed-point representation with 16 integer
and 16 fractional bits (Sec. IV).  :class:`FixedPointFormat` models an
arbitrary ``Qm.n`` format on top of NumPy integer arrays:

* ``to_raw`` / ``from_raw`` convert between floats and the underlying signed
  integer representation (raw value = real value * 2**fractional_bits),
* ``quantize`` rounds a float array onto the representable grid (the view the
  float-side code cares about),
* ``add`` / ``multiply`` operate on raw integers exactly as the hardware
  would: full-precision products followed by a right shift of
  ``fractional_bits`` and saturation to the word length.

Saturation (rather than silent wrap-around) mirrors the overflow handling the
paper performs in the activation layer.  Operations optionally raise
:class:`FixedPointOverflowError` instead, which the tests use to prove that
the chosen Q16.16 format never overflows on realistic readout data.

Vectorized fast paths
---------------------

The product of two ``w``-bit raw values needs up to ``2w`` bits, which for
the paper's Q16.16 format (``w = 32``) nominally exceeds what a single int64
multiply can promise for out-of-range intermediates.  Instead of falling back
to Python big integers (an ``object``-array multiply is two to three orders
of magnitude slower), :meth:`multiply` selects one of three strategies *once*
at format-construction time:

``direct``
    ``(a * b) >> n`` in int64, used when the full product provably fits.
``limb``
    An exact hi/lo-limb decomposition: split ``a`` at the fractional point,
    ``a = (a_hi << n) + a_lo`` with ``0 <= a_lo < 2**n``, so that

        ``(a * b) >> n  ==  a_hi * b + ((a_lo * b) >> n)``

    holds *exactly* for arithmetic (floor) shifts.  Every partial product
    fits comfortably in int64 for Q16.16, so products never leave NumPy.
``reference``
    The exact big-integer path (:meth:`multiply_exact_reference`), kept both
    as the correctness oracle for the fast paths and as the fallback for
    formats too wide for the limb decomposition.

Both fast paths are exact not just for in-range operands but for operands up
to ``2**guard_bits`` times the representable range (:attr:`multiply_guard_bits`,
8 bits for Q16.16); datapath modules that feed un-saturated adder-tree sums
into a multiply (e.g. the average layer) check this headroom statically.

Similarly :meth:`multiply_accumulate` accepts a precomputed ``static_bound``
on the worst-case accumulator magnitude (see :meth:`mac_static_bound`), so
callers whose weights are fixed at construction time skip the per-call
``max(|inputs|) * max(|weights|)`` probe entirely.

Where the datapath widens
-------------------------

Raw samples of a word of at most 32 bits travel in an int32 *carrier*
(:attr:`FixedPointFormat.raw_carrier_dtype`).  The two passes that read the
whole trace -- the MAC here and the average layer's adder tree in
:mod:`repro.fpga.modules` -- read that carrier in place and widen inside the
kernel: products and sums are formed in int64 (``np.einsum(...,
dtype=np.int64)``, slot adds and ``np.add.reduceat`` with
``dtype=np.int64``), so the bounds proven for int64 operands still hold.
``einsum`` and the slot adds cast through small buffers; ``reduceat``
casts by copying its operand, so the few-window adder tree still makes an
int64 copy of the trace, inside NumPy.  The module code itself widens a
whole trace only for one-sample windows, whose sums are their samples.
Everything downstream of those passes (per-interval sums, MF scores,
features, dense layers) is small and is carried in int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPointFormat", "Q16_16", "FixedPointOverflowError"]

#: int64 products are considered safe while their magnitude stays below 2**62
#: (one bit of margin under the int64 limit), matching the MAC fast path.
_INT64_SAFE_BITS = 62


def _integer_carrier(values: np.ndarray) -> np.ndarray:
    """``values`` as an int32 or int64 array; int32 and int64 arrays are read in place.

    Anything else (Python lists, other integer widths, floats) goes through
    ``np.asarray(values, dtype=np.int64)``, which raises ``OverflowError``
    on a Python int outside int64 rather than wrapping it.  Kernels that
    read the result form their products and sums in int64 themselves (see
    "Where the datapath widens" above).
    """
    if isinstance(values, np.ndarray) and values.dtype in (np.int32, np.int64):
        return np.asarray(values)
    return np.asarray(values, dtype=np.int64)


def _max_magnitude(values: np.ndarray) -> int:
    """Largest ``|value|`` as a Python int (0 for an empty array).

    Read from ``min()`` and ``max()`` because ``np.abs`` maps the most
    negative value of a signed dtype (INT64_MIN, INT32_MIN) to itself.
    """
    if values.size == 0:
        return 0
    return max(-int(values.min()), int(values.max()))


class FixedPointOverflowError(ArithmeticError):
    """Raised when a fixed-point operation exceeds the representable range."""


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed ``Q(integer_bits).(fractional_bits)`` fixed-point format.

    The total word length is ``integer_bits + fractional_bits`` (the sign bit
    is counted inside ``integer_bits``, matching the paper's "16 bits for the
    integer and 16 bits for the fractional part" description of a 32-bit
    word).
    """

    integer_bits: int = 16
    fractional_bits: int = 16

    def __post_init__(self) -> None:
        if self.integer_bits < 1:
            raise ValueError(f"integer_bits must be >= 1 (sign bit), got {self.integer_bits}")
        if self.fractional_bits < 0:
            raise ValueError(f"fractional_bits must be >= 0, got {self.fractional_bits}")
        if self.word_length > 62:
            raise ValueError(
                f"word length {self.word_length} too wide to emulate safely with int64"
            )
        mode, guard = self._plan_multiply()
        object.__setattr__(self, "_multiply_mode", mode)
        object.__setattr__(self, "_multiply_guard_bits", guard)

    def _plan_multiply(self) -> tuple[str, int]:
        """Select the multiply strategy and its operand headroom statically.

        Returns ``(mode, guard_bits)`` where the chosen mode is exact for all
        operands of magnitude at most ``2**(word_length - 1 + guard_bits)``.
        """
        w, f = self.word_length, self.fractional_bits
        # direct: |a * b| <= 2**(2*(w-1+g)) must stay below 2**_INT64_SAFE_BITS.
        direct_guard = (_INT64_SAFE_BITS - 2 * (w - 1)) // 2
        # limb: needs |a_hi * b| <= 2**(2w-2+2g-f) and |a_lo * b| < 2**(f+w-1+g)
        # below the safe threshold (plus f >= 1 so the low limb is non-empty).
        if f >= 1:
            limb_guard = min(
                (_INT64_SAFE_BITS - (2 * w - 2 - f)) // 2,
                _INT64_SAFE_BITS - (w - 1 + f),
            )
        else:
            limb_guard = -1
        if direct_guard >= 8:
            return "direct", direct_guard
        guard, mode = max((direct_guard, "direct"), (limb_guard, "limb"))
        if guard < 1:
            return "reference", 0
        return mode, guard

    # ---------------------------------------------------------------- metadata
    @property
    def word_length(self) -> int:
        """Total number of bits in the representation."""
        return self.integer_bits + self.fractional_bits

    @property
    def scale(self) -> int:
        """Raw units per 1.0 (``2 ** fractional_bits``)."""
        return 1 << self.fractional_bits

    @property
    def max_raw(self) -> int:
        """Largest representable raw integer."""
        return (1 << (self.word_length - 1)) - 1

    @property
    def min_raw(self) -> int:
        """Smallest (most negative) representable raw integer."""
        return -(1 << (self.word_length - 1))

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.max_raw / self.scale

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.min_raw / self.scale

    @property
    def resolution(self) -> float:
        """Smallest representable step (one least-significant bit)."""
        return 1.0 / self.scale

    @property
    def raw_carrier_dtype(self) -> np.dtype:
        """Narrowest NumPy integer dtype that holds any in-range raw value.

        Raw Q16.16 samples fit int32 exactly (the word length is 32), so bulk
        trace storage uses int32 and halves the memory traffic of the
        bandwidth-bound datapath passes.  Those passes read the int32 carrier
        in place and form their products and sums in int64 (see "Where the
        datapath widens" in the module docstring).  Formats wider than 32
        bits fall back to int64.
        """
        return np.dtype(np.int32) if self.word_length <= 32 else np.dtype(np.int64)

    @property
    def multiply_mode(self) -> str:
        """Which multiply strategy this format uses (``direct``/``limb``/``reference``)."""
        return self._multiply_mode

    @property
    def multiply_guard_bits(self) -> int:
        """Operand headroom of the fast multiply, in bits.

        :meth:`multiply` is exact for any operands of magnitude up to
        ``2 ** (word_length - 1 + multiply_guard_bits)`` -- i.e. raw values
        may exceed the representable range by this many bits (as adder-tree
        sums do) without compromising exactness.
        """
        return self._multiply_guard_bits

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q{self.integer_bits}.{self.fractional_bits}"

    # -------------------------------------------------------------- conversion
    def _saturate(
        self, raw: np.ndarray, strict: bool, out: np.ndarray | None = None
    ) -> np.ndarray:
        if strict and (np.any(raw > self.max_raw) or np.any(raw < self.min_raw)):
            raise FixedPointOverflowError(
                f"Value outside the representable range of {self} "
                f"[{self.min_value}, {self.max_value}]"
            )
        return np.clip(raw, self.min_raw, self.max_raw, out=out)

    def to_raw(self, values: np.ndarray | float, strict: bool = False) -> np.ndarray:
        """Convert real values to raw integers (round-to-nearest, saturating)."""
        values = np.asarray(values, dtype=np.float64)
        raw = np.rint(values * self.scale).astype(np.int64)
        return self._saturate(raw, strict)

    def from_raw(self, raw: np.ndarray | int) -> np.ndarray:
        """Convert raw integers back to real values."""
        raw = np.asarray(raw, dtype=np.int64)
        return raw.astype(np.float64) / self.scale

    def quantize(self, values: np.ndarray | float, strict: bool = False) -> np.ndarray:
        """Round real values onto the representable grid (float in, float out)."""
        return self.from_raw(self.to_raw(values, strict=strict))

    def representable(self, values: np.ndarray | float, tolerance: float = 0.0) -> bool:
        """Whether every value fits the range (within ``tolerance`` of the bounds)."""
        values = np.asarray(values, dtype=np.float64)
        return bool(
            np.all(values <= self.max_value + tolerance)
            and np.all(values >= self.min_value - tolerance)
        )

    # -------------------------------------------------------------- arithmetic
    def add(self, a: np.ndarray, b: np.ndarray, strict: bool = False) -> np.ndarray:
        """Raw fixed-point addition with saturation."""
        result = np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        return self._saturate(result, strict)

    def multiply(self, a: np.ndarray, b: np.ndarray, strict: bool = False) -> np.ndarray:
        """Raw fixed-point multiplication (full product, then shift, then saturate).

        Exact (bit-identical to :meth:`multiply_exact_reference`) for operands
        of magnitude up to ``2 ** (word_length - 1 + multiply_guard_bits)``;
        see the module docstring for the strategy selection.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        mode = self._multiply_mode
        if mode == "direct":
            result = a * b
            result >>= self.fractional_bits
        elif mode == "limb":
            # x = (x_hi << n) + x_lo with 0 <= x_lo < 2**n, so the shifted
            # product splits exactly: (x*y) >> n == x_hi*y + ((x_lo*y) >> n).
            # Split whichever operand has fewer elements (usually a scalar
            # reciprocal) so the limb temporaries stay small; accumulate in
            # place so the whole multiply allocates only two temporaries.
            small, big = (b, a) if b.size < a.size else (a, b)
            if small.ndim == 0:
                # Scalar splits cost two Python ints, and hardware reciprocals
                # (values below 1.0) have an empty high limb entirely.
                s = int(small)
                hi, lo = s >> self.fractional_bits, s & (self.scale - 1)
                result = big * lo
                result >>= self.fractional_bits
                if hi:
                    result += big * hi
            else:
                hi = small >> self.fractional_bits
                lo = small & (self.scale - 1)
                result = lo * big
                result >>= self.fractional_bits
                result += hi * big
        else:
            return self.multiply_exact_reference(a, b, strict=strict)
        if result.ndim == 0:
            return self._saturate(result, strict)
        return self._saturate(result, strict, out=result)

    def multiply_exact_reference(
        self, a: np.ndarray, b: np.ndarray, strict: bool = False
    ) -> np.ndarray:
        """Exact big-integer multiply: the correctness oracle for :meth:`multiply`.

        Computes the full product in Python integers (``object`` arrays), so
        it is exact for *any* int64 operands at interpreter speed.  The fast
        paths are proven against this implementation property-style in the
        test suite.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        shifted = (a.astype(object) * b.astype(object)) // self.scale
        if strict and (np.any(shifted > self.max_raw) or np.any(shifted < self.min_raw)):
            raise FixedPointOverflowError(
                f"Value outside the representable range of {self} "
                f"[{self.min_value}, {self.max_value}]"
            )
        clipped = np.where(
            shifted > self.max_raw,
            self.max_raw,
            np.where(shifted < self.min_raw, self.min_raw, shifted),
        )
        return clipped.astype(np.int64)

    def mac_static_bound(self, weights: np.ndarray) -> int:
        """Worst-case MAC accumulator magnitude for in-range inputs.

        For fixed ``weights`` and inputs anywhere in the representable range
        (``|input| <= 2 ** (word_length - 1)``), the accumulated sum of
        products -- and every partial sum along the way -- is bounded by
        ``sum(|weights|) * 2 ** (word_length - 1)``.  The result is a Python
        integer (arbitrary precision), meant to be computed once at module
        construction and passed to :meth:`multiply_accumulate` as
        ``static_bound``.
        """
        weights = np.asarray(weights, dtype=np.int64)
        if weights.size == 0:
            return 0
        # abs on Python ints: np.abs maps INT64_MIN to itself.
        abs_sum = int(np.abs(weights.astype(object)).sum())
        return abs_sum * (1 << (self.word_length - 1))

    def multiply_accumulate(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        bias: int = 0,
        strict: bool = False,
        static_bound: int | None = None,
    ) -> np.ndarray:
        """Dot product of raw vectors plus a raw bias, as one MAC unit would compute.

        ``inputs`` may be ``(n,)`` or ``(batch, n)``; ``weights`` is ``(n,)``.
        Products are accumulated at full precision before the final shift,
        which matches a DSP-based MAC with a wide accumulator, then saturated.

        int32 and int64 operands are read in place: the int64 fast path is
        ``np.einsum(..., dtype=np.int64)``, which widens an int32 carrier
        into its own small buffer as it goes, so a strided int32 window (the
        matched filter's) is never copied to int64 first.

        ``static_bound`` is a caller-provided upper bound on the worst-case
        accumulator magnitude (see :meth:`mac_static_bound`); when given, the
        per-call ``max(|inputs|) * max(|weights|)`` probe is skipped, which is
        what makes batched inference allocation- and scan-free.  The caller
        promises its inputs respect the bound.
        """
        inputs = _integer_carrier(inputs)
        weights = _integer_carrier(weights)
        single = inputs.ndim == 1
        if single:
            inputs = inputs[None, :]
        if inputs.shape[1] != weights.shape[0]:
            raise ValueError(
                f"inputs ({inputs.shape[1]}) and weights ({weights.shape[0]}) disagree in length"
            )
        # Full-precision accumulation.  The fast path keeps everything in
        # int64, which is exact as long as the worst-case accumulated product
        # cannot reach 2**62; otherwise fall back to exact Python integers.
        if static_bound is None:
            n = weights.shape[0]
            max_abs_input = _max_magnitude(inputs)
            max_abs_weight = _max_magnitude(weights)
            static_bound = max_abs_input * max_abs_weight * max(n, 1)
        if static_bound < (1 << _INT64_SAFE_BITS):
            accumulator = np.einsum("ij,j->i", inputs, weights, dtype=np.int64)
            # Floor division matches the arithmetic right shift of the shift
            # stage for negative accumulators.
            accumulator >>= self.fractional_bits
            if bias:
                accumulator += int(bias)
            result = self._saturate(accumulator, strict, out=accumulator)
        else:
            result = self.multiply_accumulate_exact_reference(
                inputs, weights, bias=bias, strict=strict
            )
        return result[0] if single else result

    def multiply_accumulate_exact_reference(
        self, inputs: np.ndarray, weights: np.ndarray, bias: int = 0, strict: bool = False
    ) -> np.ndarray:
        """Exact big-integer MAC: the correctness oracle for :meth:`multiply_accumulate`."""
        inputs = np.asarray(inputs, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        single = inputs.ndim == 1
        if single:
            inputs = inputs[None, :]
        if inputs.shape[1] != weights.shape[0]:
            raise ValueError(
                f"inputs ({inputs.shape[1]}) and weights ({weights.shape[0]}) disagree in length"
            )
        accumulator = (inputs.astype(object) * weights.astype(object)).sum(axis=1)
        accumulator = [int(v) // self.scale + int(bias) for v in accumulator]
        if strict and any(v > self.max_raw or v < self.min_raw for v in accumulator):
            raise FixedPointOverflowError(
                f"MAC result outside the representable range of {self}"
            )
        result = np.array(
            [min(max(v, self.min_raw), self.max_raw) for v in accumulator], dtype=np.int64
        )
        return result[0] if single else result

    def shift_right(self, raw: np.ndarray, bits: int) -> np.ndarray:
        """Arithmetic right shift (the hardware's power-of-two division)."""
        if bits < 0:
            raise ValueError(f"shift bits must be non-negative, got {bits}")
        return np.asarray(raw, dtype=np.int64) >> bits


Q16_16 = FixedPointFormat(integer_bits=16, fractional_bits=16)
"""The paper's 32-bit datapath format: 16 integer bits, 16 fractional bits."""
