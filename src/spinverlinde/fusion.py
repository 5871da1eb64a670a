"""Exact Verlinde-type dimensions from csc power sums.

The genus-g dimension formula

    dim(g, k) = ((k+2)/2)^{g-1} * sum_{j=1}^{k+1} sin(pi j / (k+2))^{2-2g}

and its twisted, alternating-sign analogue

    dim'(g, p) = (p/4)^{g-1} * sum_{j=1}^{p/2-1} (-1)^{j+1} sin(2 pi j / p)^{2-2g}

are real trigonometric sums with integer values.  This module evaluates
them exactly through the power sums p_m(n) = sum_{j=1}^{n-1} csc^{2m}(pi j / n)
(Zagier, "Elementary aspects of the Verlinde formula", 1996).  With
s = sin^2 z, sin nz / (n sin z) = sum_r c_r s^r is a hypergeometric series
whose log has the coefficients -p_i(n) / (2i), so a Newton recurrence gives
p_1(n), ..., p_m(n) in one pass of O(m^2) steps, whatever the level.  One
table per n holds them, grows on demand and is shared by every genus; the
twisted sum reads the tables at n = p/2 and p/4.  The table runs in integers
only, on the scaled roots: with scale mu = n for odd n and mu = 2n for even
n, C_r = mu^r c_r are integers, and so are P_i = mu^i p_i(n), which the
recurrence P_i = -2 i C_i - sum_{r<i} C_r P_{i-r} builds from them.  For odd n,
sin nz / sin z = U_{n-1}(cos z) is an integer polynomial in s with constant
term n, so C_r = n^{r-1} a_r.  For even n it is cos z times such a
polynomial, and the s^a coefficient of cos z = (1 - s)^{1/2} has a
denominator dividing 2^{2a-1}, which (2n)^r / n supplies for a <= r (n is
even).  (mu = n fails for even n, first at n = 6, r = 2.)  A runtime guard
raises ``ArithmeticError`` should a division ever be inexact.  The same
numbers are the fusion-ring traces tr H^{g-1} and tr N_k H^{g-1}; the tests
keep that trace and the rational recurrence as oracles.

Every value is certified against the trigonometric sums by an
arbitrary-precision interval oracle: the sum is enclosed in an interval
of width < 1/2, which pins a unique integer, doubling the precision until
it does.  Both sums run over csc^2(pi j / n) for 1 <= j < n, with n = k+2
and n = p/2, and csc^2 is symmetric under j -> n - j.  The oracle
therefore encloses csc^2(pi j / n) only for 1 <= j <= n/2, each pair j,
n - j folded into one weight, and keeps these enclosures in a bounded
cache keyed by (n, precision).  Every genus and both oracles at the same
n share them.

The oracle does its interval arithmetic on raw mpmath endpoint pairs, with
the outward-rounded operations of ``mpmath.libmp.libmpi`` (the ones the
interval context object dispatches to), so no context object is built per
operation; the enclosures are bit-for-bit those of the context layer.
Before the first attempt the Verlinde oracle skips every precision that
cannot certify, judged by a float lower bound on the sum taken from its two
largest terms, and fails at once when even the ceiling cannot.  The tests
keep the context-object sum, and the unfolded sum with a fresh sine per
term, as the oracle's own oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import fone, from_int, fzero, mpf_pi, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_mul, mpi_pow_int, mpi_shift, mpi_sin, mpi_sub

DEFAULT_PRECISION_BITS = 128
DEFAULT_PRECISION_CEILING = 4096


class CertificationError(ArithmeticError):
    """The interval oracle could not certify a unique integer value."""


class PrecisionCeilingError(CertificationError):
    """Doubling reached the precision ceiling before the enclosure narrowed."""


# ---------------------------------------------------------------------------
# exact dimension values


def _extend_power_sums(n: int, scale: int, coefficients: tuple, sums: tuple, m: int) -> tuple:
    """(C_0..C_m, P_0..P_m) at n, grown from a shorter prefix of both.

    C_r = scale^r c_r are the scaled coefficients of
    sin nz / (n sin z) = sum_r c_r s^r, and P_i = scale^i p_i(n) the scaled
    power sums, from the Newton recurrence P_i = -2 i C_i - sum_{r<i} C_r P_{i-r}.
    """
    c, p = list(coefficients), list(sums)
    for i in range(len(p), m + 1):
        r = i - 1
        numerator = scale * c[r] * ((2 * r + 1) ** 2 - n * n)
        denominator = 2 * (2 * r + 3) * (r + 1)
        coefficient, remainder = divmod(numerator, denominator)
        if remainder:
            raise ArithmeticError(
                f"csc power sums at n={n}: scaled coefficient C_r at r={i} is "
                f"{numerator}/{denominator}, not an integer"
            )
        c.append(coefficient)
        p.append(-2 * i * coefficient - sum(map(mul, c[1:i], p[i - 1 : 0 : -1])))
    return tuple(c), tuple(p)


class _PowerSumTable:
    """The scaled csc power sums P_i = scale^i p_i(n), i = 0, 1, ..., at one n.

    The table grows on demand and every genus reads it.  A growth builds new
    tuples and stores them in one assignment, so a concurrent reader sees
    either the old prefix or the new one, never a half-grown table.
    """

    __slots__ = ("n", "scale", "_rows")

    def __init__(self, n: int) -> None:
        self.n = n
        self.scale = n if n % 2 else 2 * n
        # (C_0..C_t, P_0..P_t), with p_0(n) = n - 1
        self._rows = ((1,), (n - 1,))

    def scaled_sum(self, m: int) -> int:
        rows = self._rows
        if m >= len(rows[1]):
            rows = self._rows = _extend_power_sums(self.n, self.scale, *rows, m)
        return rows[1][m]


@lru_cache(maxsize=128)
def _power_sum_table(n: int) -> _PowerSumTable:
    """The table at n that every genus shares.

    The cache holds 128 tables, more than the distinct n of any CLI
    workload grid (the verlinde sweep reaches 49, spin-dims 24); the
    verlinde command evaluates its cells level-major, so a wider sweep
    still builds each table once.  A table
    up to m holds O(m^2 log n) bits: about 3 KB at m = 23 and n <= 130, and
    300 KB for the table behind verlinde_dim(400, 100) (n = 102, m = 399;
    sys.getsizeof of both tuples and their integers).
    """
    return _PowerSumTable(n)


def _scaled_power_sum(m: int, n: int) -> int:
    """scale^m p_m(n), with scale = n for odd n and 2n for even n."""
    return _power_sum_table(n).scaled_sum(m)


def _integral(numerator: int, shift: int, label: str) -> int:
    """numerator / 2^shift, which must be an integer."""
    value, remainder = divmod(numerator, 1 << shift)
    if remainder:
        raise ArithmeticError(
            f"{label}: power-sum value {Fraction(numerator, 1 << shift)} is not an integer"
        )
    return value


@lru_cache(maxsize=None)
def verlinde_dim(g: int, k: int) -> int:
    """Genus-g dimension at level k, as ((k+2)/2)^{g-1} p_{g-1}(k+2)."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")
    m, n = g - 1, k + 2
    # (n/2)^m p_m(n) = (n / (2 scale))^m P_m(n): P_m(n) / 2^m for odd n, / 4^m for even n
    shift = m if n % 2 else 2 * m
    return _integral(_scaled_power_sum(m, n), shift, f"verlinde_dim(g={g}, k={k})")


@lru_cache(maxsize=None)
def twisted_dim(g: int, p: int) -> int:
    """Twisted genus-g dimension at even level p >= 4, from the csc power sums at n = p/2.

    The alternating sum over j is the full sum p_m(n) minus twice its
    even-j part.  For odd n the part is half the full sum (j -> n - j swaps
    the parities), so the value is 0.  For even n it is p_m(h), h = n/2.
    """
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"twisted dimension needs an even level p >= 4, got {p}")
    m, n = g - 1, p // 2
    if n % 2:
        return 0
    h = n // 2
    # (n/2)^m (p_m(n) - 2 p_m(h)) = (P_m(n) - 2 (2n / scale_h)^m P_m(h)) / 4^m,
    # where 2n / scale_h is 4 for odd h and 2 for even h
    ratio_bits = 2 * m if h % 2 else m
    numerator = _scaled_power_sum(m, n) - (_scaled_power_sum(m, h) << (ratio_bits + 1))
    return _integral(numerator, 2 * m, f"twisted_dim(g={g}, p={p})")


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


@lru_cache(maxsize=32)
def _interval_context(prec: int) -> MPIntervalContext:
    """The interval-arithmetic context at ``prec`` bits, built once per precision.

    The context is shared by every caller at that precision, so no caller
    may change its ``prec``.
    """
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def _int_interval(value: int, prec: int) -> tuple:
    """The raw enclosure of an integer at ``prec`` bits, as the interval context converts it."""
    return from_int(value, prec, round_floor), from_int(value, prec, round_ceiling)


@lru_cache(maxsize=256)
def _csc_square_enclosures(n: int, prec: int) -> tuple:
    """((weight, csc^2(pi j / n)) for 1 <= j <= n/2), enclosed at ``prec`` bits.

    csc^2(pi j / n) = csc^2(pi (n - j) / n), so j and n - j are one term of
    weight 2; the middle j = n/2 of an even n is its own mirror, weight 1.
    Summing weight * csc2^m over the result gives p_m(n) with half the sines.
    The cache keeps the enclosures of a few hundred (n, precision) pairs, so
    every genus of a level sweep reuses them.  Each enclosure is the raw
    libmpi value of 1 / sin(pi * j / n)^2, wrapped as an interval-context
    number (its raw pair is ``._mpi_``).
    """
    make_mpf = _interval_context(prec).make_mpf
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    size = _int_interval(n, prec)
    enclosures = []
    for j in range(1, n // 2 + 1):
        angle = mpi_div(mpi_mul(pi, _int_interval(j, prec), prec), size, prec)
        csc2 = mpi_div((fone, fone), mpi_pow_int(mpi_sin(angle, prec), 2, prec), prec)
        enclosures.append((1 if 2 * j == n else 2, make_mpf(csc2)))
    return tuple(enclosures)


def _check_precisions(precision_bits: int, precision_ceiling: int) -> None:
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")
    if precision_ceiling < precision_bits:
        raise ValueError(
            f"precision ceiling {precision_ceiling} below starting precision {precision_bits}"
        )


def _width_text(lower: Fraction | None, upper: Fraction | None) -> str:
    """The enclosure width for a message: a float, or a power of two past the float range."""
    if lower is None or upper is None:
        return str(math.inf)
    width = upper - lower
    try:
        return str(float(width))
    except OverflowError:
        return f"about 2^{width.numerator.bit_length() - width.denominator.bit_length()}"


def _certify(evaluate, precision_bits: int, precision_ceiling: int, label: str) -> CertifiedInteger:
    """Run ``evaluate(ctx)`` in interval arithmetic, doubling precision until
    the enclosure is finite with width < 1/2, then return the unique enclosed
    integer."""
    _check_precisions(precision_bits, precision_ceiling)
    prec = precision_bits
    while True:
        enclosure = evaluate(_interval_context(prec))
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
            raise PrecisionCeilingError(
                f"{label}: interval width {_width_text(lower, upper)} still >= 1/2 "
                f"at the precision ceiling {precision_ceiling} bits"
            )
        prec = min(2 * prec, precision_ceiling)


def _first_useful_precision(
    log2_lower_bound: float, precision_bits: int, precision_ceiling: int, label: str
) -> int:
    """The first precision of the doubling sequence that may certify a sum of at least 2^bound.

    The oracle's enclosures have positive width, since they start from an
    enclosure of pi and every step rounds outward.  A P-bit enclosure of
    positive width around a value of at least 2^P is at least 1 wide: its
    upper endpoint is at least 2^P, and the P-bit numbers from 2^P - 1 up
    are at least 1 apart.  An attempt at P is therefore
    skipped while log2_lower_bound > P + 2; the two extra bits absorb the
    float error of the bound.  If the rule would skip the ceiling itself,
    the oracle fails before any interval work.
    """
    _check_precisions(precision_bits, precision_ceiling)
    prec = precision_bits
    while log2_lower_bound > prec + 2:
        if prec >= precision_ceiling:
            raise PrecisionCeilingError(
                f"{label}: the sum is at least 2^{log2_lower_bound:.1f}, so certifying it "
                f"needs at least {math.ceil(log2_lower_bound - 2)} bits, "
                f"above the precision ceiling {precision_ceiling} bits"
            )
        prec = min(2 * prec, precision_ceiling)
    return prec


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
    n, m = k + 2, g - 1
    label = f"verlinde(g={g}, k={k})"
    if n >= 3:
        # log2 of the j = 1 and j = n - 1 terms, 2 (n/2)^m csc^{2m}(pi/n): all
        # terms are positive, so this bounds the whole sum from below
        bound = 1 + m * (math.log2(n / 2) - 2 * math.log2(math.sin(math.pi / n)))
        precision_bits = _first_useful_precision(bound, precision_bits, precision_ceiling, label)

    def evaluate(ctx):
        prec = ctx.prec
        total = (fzero, fzero)
        for weight, csc2 in _csc_square_enclosures(n, prec):
            term = mpi_pow_int(csc2._mpi_, m, prec)
            # weight 2 is an exact shift
            total = mpi_add(total, term if weight == 1 else mpi_shift(term, 1), prec)
        # exact rational prefactor n^m / 2^m
        return ctx.make_mpf(mpi_shift(mpi_mul(total, _int_interval(n**m, prec), prec), -m))

    return _certify(evaluate, precision_bits, precision_ceiling, label)


def twisted_trig_oracle(
    g: int,
    p: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    precision_ceiling: int = DEFAULT_PRECISION_CEILING,
) -> CertifiedInteger:
    """Certified evaluation of the alternating twisted dimension sum at even level p.

    With n = p/2, sin(2 pi j / p) = sin(pi j / n), so the sum is
    sum_{j=1}^{n-1} (-1)^{j+1} csc^{2m}(pi j / n) over the same terms as the
    Verlinde sum at level n - 2.  A folded term of weight 2 stands for j and
    n - j, whose signs are (-1)^{j+1} and (-1)^{n-j+1} = (-1)^n (-1)^{j+1}:
    their sum, the signed weight, is 2 (-1)^{j+1} for even n and 0 for odd
    n, where the pair cancels.  A term of weight 1 is j alone.  Hence
    signed weight = (-1)^{j+1} + (weight - 1) (-1)^{n-j+1}, for every n.
    The alternating sum has no cheap positive lower bound, so the oracle
    always starts at ``precision_bits``.
    """
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"twisted oracle needs an even level p >= 4, got {p}")
    n, m = p // 2, g - 1

    def evaluate(ctx):
        prec = ctx.prec
        total = (fzero, fzero)
        for j, (weight, csc2) in enumerate(_csc_square_enclosures(n, prec), start=1):
            signed = (-1) ** (j + 1) + (weight - 1) * (-1) ** (n - j + 1)
            # a cancelled pair adds nothing; a signed weight of +-2 is an exact shift
            if signed:
                term = mpi_shift(mpi_pow_int(csc2._mpi_, m, prec), abs(signed) - 1)
                total = (mpi_add if signed > 0 else mpi_sub)(total, term, prec)
        # exact rational prefactor p^m / 4^m
        return ctx.make_mpf(mpi_shift(mpi_mul(total, _int_interval(p**m, prec), prec), -2 * m))

    return _certify(evaluate, precision_bits, precision_ceiling, f"twisted(g={g}, p={p})")
