"""Exact Verlinde-type dimensions from csc power sums.

The genus-g dimension formula

    dim(g, k) = ((k+2)/2)^{g-1} * sum_{j=1}^{k+1} sin(pi j / (k+2))^{2-2g}

and its twisted, alternating-sign analogue

    dim'(g, p) = (p/4)^{g-1} * sum_{j=1}^{p/2-1} (-1)^{j+1} sin(2 pi j / p)^{2-2g}

are real trigonometric sums with integer values.  This module evaluates
them exactly through the power sums p_m(n) = sum_{j=1}^{n-1} csc^{2m}(pi j / n),
which a rational recurrence gives in O(m^2) steps independently of the
level (Zagier, "Elementary aspects of the Verlinde formula", 1996).  The
same numbers are the fusion-ring traces tr H^{g-1} and tr N_k H^{g-1};
the tests keep that trace as an oracle.  Every value is certified
against the trigonometric sums by an arbitrary-precision interval
oracle: the sum is enclosed in an interval of width < 1/2, which pins a
unique integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PRECISION_BITS = 128
DEFAULT_PRECISION_CEILING = 4096


class CertificationError(ArithmeticError):
    """The interval oracle could not certify a unique integer value."""


class PrecisionCeilingError(CertificationError):
    """Doubling reached the precision ceiling before the enclosure narrowed."""


# ---------------------------------------------------------------------------
# exact dimension values


def _csc_power_sum(m: int, n: int) -> Fraction:
    """p_m(n) = sum_{j=1}^{n-1} csc^{2m}(pi j / n), exactly, in O(m^2) steps.

    With s = sin^2 z, prod_j (1 - s csc^2(pi j / n)) = (sin nz / (n sin z))^2
    and sin nz / (n sin z) = 2F1((1+n)/2, (1-n)/2; 3/2; s) = sum_r c_r s^r
    (DLMF 15.4), so p_m(n) = -2 q_m with q_i = i [s^i] log 2F1.  The q_i
    follow from the c_r by the Newton recurrence i c_i = sum_r q_r c_{i-r}.
    """
    if m == 0:
        return Fraction(n - 1)
    c = [Fraction(1)]
    for r in range(m):
        c.append(c[r] * ((2 * r + 1) ** 2 - n * n) / (2 * (2 * r + 3) * (r + 1)))
    q = [Fraction(0)]
    for i in range(1, m + 1):
        q.append(i * c[i] - sum(q[r] * c[i - r] for r in range(1, i)))
    return -2 * q[m]


def _integral(value: Fraction, label: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{label}: power-sum value {value} is not an integer")
    return value.numerator


@lru_cache(maxsize=None)
def verlinde_dim(g: int, k: int) -> int:
    """Genus-g dimension at level k, as ((k+2)/2)^{g-1} p_{g-1}(k+2)."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")
    n = k + 2
    value = Fraction(n, 2) ** (g - 1) * _csc_power_sum(g - 1, n)
    return _integral(value, f"verlinde_dim(g={g}, k={k})")


@lru_cache(maxsize=None)
def twisted_dim(g: int, p: int) -> int:
    """Twisted genus-g dimension at even level p >= 4, from the csc power sums at n = p/2.

    The alternating sum over j is the full sum p_m(n) minus twice its
    even-j part, which is p_m(n/2) for even n and, by j -> n - j, half the
    full sum for odd n.
    """
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"twisted dimension needs an even level p >= 4, got {p}")
    m, n = g - 1, p // 2
    full = _csc_power_sum(m, n)
    even_part = _csc_power_sum(m, n // 2) if n % 2 == 0 else full / 2
    value = Fraction(p, 4) ** m * (full - 2 * even_part)
    return _integral(value, f"twisted_dim(g={g}, p={p})")


# ---------------------------------------------------------------------------
# interval-arithmetic certification oracle


@dataclass(frozen=True)
class CertifiedInteger:
    """An integer together with the interval enclosure that certifies it."""

    value: int
    lower: Fraction
    upper: Fraction
    precision_bits: int

    def __post_init__(self) -> None:
        if not self.lower <= self.value <= self.upper:
            raise ValueError(
                f"certificate violated: {self.value} outside [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __int__(self) -> int:
        return self.value


def _endpoint_fraction(endpoint: tuple) -> Fraction | None:
    """The exact value of an mpmath raw endpoint, or None if it is +/-inf or NaN."""
    # mpmath raw endpoint: (sign, mantissa, exponent, bit count), value = +/- man * 2^exp;
    # zero is (0, 0, 0, 0), the non-finite specials have mantissa 0 and a non-zero exponent
    sign, man, exp, _ = endpoint
    if man == 0:
        return None if exp else Fraction(0)
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def _certify(evaluate, precision_bits: int, precision_ceiling: int, label: str) -> CertifiedInteger:
    """Run ``evaluate(ctx)`` in interval arithmetic, doubling precision until
    the enclosure is finite with width < 1/2, then return the unique enclosed
    integer."""
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")
    if precision_ceiling < precision_bits:
        raise ValueError(
            f"precision ceiling {precision_ceiling} below starting precision {precision_bits}"
        )
    prec = precision_bits
    while True:
        ctx = MPIntervalContext()
        ctx.prec = prec
        enclosure = evaluate(ctx)
        lo_raw, hi_raw = enclosure._mpi_
        lower = _endpoint_fraction(lo_raw)
        upper = _endpoint_fraction(hi_raw)
        finite = lower is not None and upper is not None
        if finite and upper - lower < Fraction(1, 2):
            candidate = math.ceil(lower)
            if candidate > upper:
                raise CertificationError(
                    f"{label}: enclosure [{float(lower)}, {float(upper)}] contains no integer"
                )
            return CertifiedInteger(candidate, lower, upper, prec)
        if prec >= precision_ceiling:
            width = float(upper - lower) if finite else math.inf
            raise PrecisionCeilingError(
                f"{label}: interval width {width} still >= 1/2 "
                f"at the precision ceiling {precision_ceiling} bits"
            )
        prec = min(2 * prec, precision_ceiling)


def verlinde_trig_oracle(
    g: int,
    k: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
) -> CertifiedInteger:
    """Certified evaluation of the genus-g trigonometric dimension sum at level k."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")

    def evaluate(ctx):
        exponent = 2 - 2 * g
        denominator = ctx.mpf(k + 2)
        total = ctx.mpf(0)
        for j in range(1, k + 2):
            total += ctx.sin(ctx.pi * j / denominator) ** exponent
        # exact rational prefactor ((k+2)/2)^{g-1}
        return total * ctx.mpf((k + 2) ** (g - 1)) / ctx.mpf(2 ** (g - 1))

    return _certify(evaluate, precision_bits, precision_ceiling, f"verlinde(g={g}, k={k})")


def twisted_trig_oracle(
    g: int,
    p: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
) -> CertifiedInteger:
    """Certified evaluation of the alternating twisted dimension sum at even level p."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"twisted oracle needs an even level p >= 4, got {p}")

    def evaluate(ctx):
        exponent = 2 - 2 * g
        denominator = ctx.mpf(p)
        total = ctx.mpf(0)
        for j in range(1, p // 2):
            term = ctx.sin(2 * ctx.pi * j / denominator) ** exponent
            total = total + term if j % 2 else total - term
        # exact rational prefactor (p/4)^{g-1}
        return total * ctx.mpf(p ** (g - 1)) / ctx.mpf(4 ** (g - 1))

    return _certify(evaluate, precision_bits, precision_ceiling, f"twisted(g={g}, p={p})")
