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

Every value is certified against the trigonometric sums by a fixed-point
oracle in Python integers: the sum is enclosed in an interval of width
< 1/2, which pins a unique integer, doubling the precision Q until it does.
Both sums run over csc^2(pi j / n) for 1 <= j < n, with n = k+2 and
n = p/2, and csc^2 is symmetric under j -> n - j, so the oracle bounds
csc^2(pi j / n) only for 1 <= j <= n/2, each pair j, n - j folded into one
weight.  Per (n, Q) it encloses e^{i pi/n} in an integer ball, from
Machin's series for pi and a Taylor series for e^{iu}, gets the later
sines by exact integer rotation with a carried radius, and turns each
into integer bounds lo <= 2^Q csc^2 <= hi.  A power row holds the m-th
powers of every lo and hi at one (n, Q), rounded outward at a scale fine
enough that the roundings hardly widen the enclosure; it is the row of
m >> 1 squared, times lo and hi if m is odd, so the genera of a level
share the rows of their prefixes m >> s.  The folded sums are slice sums
of a row, exact, and one outward rounding brings them to scale 2^Q.  At
odd n the twisted sum is exactly 0 and needs no bounds.  Bounded
``lru_cache``s share the work between every genus and both oracles (sizes
by sys.getsizeof): the pi balls by precision (32 entries of two
integers), the bounds by (n, Q) (256; 5.3 KB at n = 50, Q = 512, and
0.58 MB at n = 1000, Q = 4096) and the rows by (n, Q, m), those asked
for and the prefixes walked through (64; 3.9 KB at n = 50, Q = 256,
m = 7, and 4.7 MB at (g, k) = (1000, 1000), Q = 32768).  One walk,
``_certified_sum``, serves both oracles: it skips every precision that
cannot certify, judged by a float lower bound on the enclosure's width, and
stops at the precision where a matching upper bound proves the enclosure
narrow enough, so it neither caps a valid cell nor loops forever.  The
package needs nothing beyond the standard library; the tests keep the
mpmath interval sums (folded, and unfolded with a sine for every j < n) as
the oracle's own oracles, and mpmath's pi and cos/sin as those of the two
series.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._value import Value, _new, _setattr

DEFAULT_PRECISION_BITS = 128


class CertificationError(ArithmeticError):
    """The interval oracle could not certify a unique integer value."""


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


def _label(label: tuple) -> str:
    """The text of ``label``, a format template and its values, such as
    ("verlinde_dim(g={}, k={})", g, k).  Callers pass the tuple and build the
    text only on the path that raises, so a call that succeeds formats nothing."""
    return label[0].format(*label[1:])


def _integral(numerator: int, shift: int, label: tuple) -> int:
    """numerator / 2^shift, which must be an integer."""
    value, remainder = divmod(numerator, 1 << shift)
    if remainder:
        raise ArithmeticError(
            f"{_label(label)}: power-sum value {Fraction(numerator, 1 << shift)} is not an integer"
        )
    return value


def _verlinde_terms(g: int, k: int) -> tuple[int, int]:
    """(m, n) = (g - 1, k + 2), the power and the n of the genus-g sum at level k."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")
    return g - 1, k + 2


def _twisted_terms(g: int, p: int) -> tuple[int, int]:
    """(m, n) = (g - 1, p/2), the power and the n of the twisted genus-g sum at level p."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"the twisted sum needs an even level p >= 4, got {p}")
    return g - 1, p // 2


@lru_cache(maxsize=None)
def verlinde_dim(g: int, k: int) -> int:
    """Genus-g dimension at level k, as ((k+2)/2)^{g-1} p_{g-1}(k+2)."""
    m, n = _verlinde_terms(g, k)
    # (n/2)^m p_m(n) = (n / (2 scale))^m P_m(n): P_m(n) / 2^m for odd n, / 4^m for even n
    shift = m if n % 2 else 2 * m
    return _integral(_scaled_power_sum(m, n), shift, ("verlinde_dim(g={}, k={})", g, k))


@lru_cache(maxsize=None)
def twisted_dim(g: int, p: int) -> int:
    """Twisted genus-g dimension at even level p >= 4, from the csc power sums at n = p/2.

    The alternating sum over j is the full sum p_m(n) minus twice its
    even-j part.  For odd n the part is half the full sum (j -> n - j swaps
    the parities), so the value is 0.  For even n it is p_m(h), h = n/2.
    """
    m, n = _twisted_terms(g, p)
    if n % 2:
        return 0
    h = n // 2
    # (n/2)^m (p_m(n) - 2 p_m(h)) = (P_m(n) - 2 (2n / scale_h)^m P_m(h)) / 4^m,
    # where 2n / scale_h is 4 for odd h and 2 for even h
    ratio_bits = 2 * m if h % 2 else m
    numerator = _scaled_power_sum(m, n) - (_scaled_power_sum(m, h) << (ratio_bits + 1))
    return _integral(numerator, 2 * m, ("twisted_dim(g={}, p={})", g, p))


# ---------------------------------------------------------------------------
# fixed-point certification oracle


class CertifiedInteger(Value):
    """An integer together with the interval enclosure that certifies it; the
    ``width`` upper - lower is worked out once, and is not a field."""

    value: int
    lower: Fraction
    upper: Fraction
    precision_bits: int

    def __init__(self, value: int, lower: Fraction, upper: Fraction, precision_bits: int) -> None:
        if not lower <= value <= upper:
            raise ValueError(f"certificate violated: {value} outside [{lower}, {upper}]")
        self._store(value=value, lower=lower, upper=upper, precision_bits=precision_bits, width=upper - lower)

    @classmethod
    def _at_scale(cls, value: int, lower: int, upper: int, bits: int) -> "CertifiedInteger":
        """The certificate of [lower, upper] 2^-bits, unvalidated: the caller
        has checked lower <= value 2^bits <= upper in integers."""
        certificate, scale = _new(cls), 1 << bits
        _setattr(certificate, "value", value)
        _setattr(certificate, "lower", Fraction(lower, scale))
        _setattr(certificate, "upper", Fraction(upper, scale))
        _setattr(certificate, "precision_bits", bits)
        _setattr(certificate, "width", Fraction(upper - lower, scale))
        return certificate

    def __int__(self) -> int:
        return self.value


# e^{i pi/n} and the sine radii are kept 16 bits finer than the sine midpoints
_FINE_BITS = 16
# a floor shift of both parts of a product moves it by less than sqrt(2) units
# of the midpoints' scale, which is less than this many units of the finer scale
_ROUNDING = 3 << (_FINE_BITS - 1)


@lru_cache(maxsize=32)
def _pi_ball(bits: int) -> tuple[int, int]:
    """(p, r) with |2^bits pi - p| < r, from Machin's pi = 16 atan(1/5) - 4 atan(1/239).

    atan(1/x) = sum_{k odd} (-1)^((k-1)/2) / (k x^k).  With the floored
    powers t_k = floor(2^bits / x^k), each t_{k+2} = floor(t_k / x^2), the
    floored terms floor(t_k / k) = floor(2^bits / (k x^k)) are each less
    than one unit below the exact terms (floor(floor(a) / d) = floor(a / d)
    for integers d > 0).  The series stops at the first t_k = 0: then
    2^bits / x^k < 1, and the omitted alternating tail, whose terms
    decrease, is less than its first term, below one unit.  So each atan
    costs less than one unit per term summed, plus one for the tail, times
    its weight 16 or 4; the radius carries that count.
    """
    one = 1 << bits
    total = radius = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k = one // x, 1
        while power:
            term = weight * (power // k)
            total += term if k % 4 == 1 else -term
            radius += abs(weight)
            power //= x * x
            k += 2
        radius += abs(weight)
    return total, radius


def _exp_i_ball(u: int, bits: int) -> tuple[int, int, int]:
    """(c, s, r) with |2^bits e^{i theta} - (c + i s)| < r, theta = u 2^-bits, 0 <= theta < 2.

    The Taylor terms 2^bits (i theta)^k / k! have magnitudes tau_k, taken
    as T_0 = 2^bits and T_k = floor(T_{k-1} theta / k) (one floor: the shift
    and the division nest), each added to the real or imaginary part with
    the sign of i^k.  Then e_k = tau_k - T_k satisfies
    0 <= e_k < e_{k-1} theta / k + 1, so e_1 < 1, e_2 < 2 and, as
    theta / k < 2/3 for k >= 3, e_k < 3 for every k.  The series stops at
    the first T_K = 0, after K terms.  If u = 0 every term is exact.
    Otherwise T_1 = u > 0, so K >= 2, tau_K = e_K < 3 and each later term
    is at most 2/3 of the one before, so the omitted tail is below
    2 tau_K < 6.  Each term lands in one part, so the distance is below
    3K + 6: the radius carries 3 units per term on top of the tail's 6.
    """
    parts = [1 << bits, 0]
    term, k, radius = 1 << bits, 0, 6
    while term:
        k += 1
        term = (term * u >> bits) // k
        parts[k % 2] += term if k % 4 < 2 else -term
        radius += 3
    return parts[0], parts[1], radius


def _unit_root_ball(n: int, bits: int) -> tuple[int, int, int]:
    """(c, s, r_w) with |2^bits e^{i pi/n} - (c + i s)| <= r_w <= 2, for n >= 2.

    Both series run at F = bits + g, with the guard g = 2b + 8 and
    b = bits.bit_length().  With the pi ball (p, r_pi) at 2^F, the angle
    u = floor(p / n) is within r_pi / n + 1 units of 2^F pi / n and below
    2^F pi / 2 + r_pi, so theta < 2; and |e^{ia} - e^{ib}| <= |a - b|.  So
    2^F e^{i pi/n} lies within r = r_exp + ceil(r_pi / n) + 1 of the Taylor
    ball's midpoint, and each part at scale 2^bits within integers
    [c_lo, c_hi] and [s_lo, s_hi], floored and ceiled from the part +/- r.
    With c, s the floors of their midpoints, r_w = (c_hi - c) + (s_hi - s)
    bounds the distance, since it bounds each part.

    Guard.  pi's series has at most F/4 + 1 terms of weight 16 and
    F/15 + 1 of weight 4 (5^2 > 2^4, 239^2 > 2^15), so r_pi < 4.3 F + 40.
    As k! >= 4^k for k >= 9, T_k <= tau_k < 2^(F - k) there, so the Taylor
    series has K <= max(F, 9) terms and r_exp < 3F + 33.  Hence
    r < 6F + 60, and 2r < 2^g = 2^8 4^b for every bits >= 1: each part's
    interval is less than one unit wide, c_hi - c_lo <= 2, and r_w = 2.
    """
    guard = 2 * bits.bit_length() + 8
    pi, pi_radius = _pi_ball(bits + guard)
    c, s, radius = _exp_i_ball(pi // n, bits + guard)
    radius += -(-pi_radius // n) + 1
    c_lo, c_hi = (c - radius) >> guard, -(-(c + radius) >> guard)
    s_lo, s_hi = (s - radius) >> guard, -(-(s + radius) >> guard)
    c, s = (c_lo + c_hi) >> 1, (s_lo + s_hi) >> 1
    return c, s, (c_hi - c) + (s_hi - s)


def _sine_balls(n: int, scale_bits: int) -> Iterator[tuple[int, int]]:
    """(y_j, rho_j) for 1 <= j <= n/2, with |2^W sin(pi j / n) - y_j| <= rho_j, W = scale_bits.

    Let V = W + 16 (``fine_bits``).  ``_unit_root_ball`` gives c + i s
    within r_w = 2 units of 2^V e^{i pi/n}.  The ball of midpoint
    (x_j + i y_j) 2^-W and radius r_j 2^-V holds e^{i pi j / n}:
    j = 0 is 1 exactly (r_0 = 0), and the rotation by w = e^{i pi/n} gives

        x_j + i y_j = floor((x + i y)(c + i s) / 2^V), each part floored,
        r_j = r + r_w + ceil(r r_w / 2^V) + 3 * 2^15.

    Proof: for z = e^{i pi (j-1)/n} and w with midpoints z~ and w~,
    |z| = |w| = 1, so |z w - z~ w~| <= |z| |w - w~| + |z - z~| |w~|
    <= r_w + r + r r_w 2^-V in units of 2^-V; and the floor moves each part
    by less than 2^-W, the point by less than
    sqrt(2) 2^-W < 3 * 2^15 * 2^-V.  The imaginary part is within the
    radius too, so rho_j = floor(r_j / 2^16) + 1 bounds it at scale 2^W.
    The radius grows linearly in j: r_w = 2, so rho_j <= 3j.
    """
    fine_bits = scale_bits + _FINE_BITS
    c, s, r_w = _unit_root_ball(n, fine_bits)
    x, y, r = 1 << scale_bits, 0, 0
    for _ in range(n // 2):
        x, y = (x * c - y * s) >> fine_bits, (x * s + y * c) >> fine_bits
        r += r_w + (r * r_w >> fine_bits) + 1 + _ROUNDING
        yield y, (r >> _FINE_BITS) + 1


@lru_cache(maxsize=256)
def _csc_square_bounds(n: int, bits: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(los, his), lo 2^-bits <= csc^2(pi j / n) <= hi 2^-bits at index j - 1 for 1 <= j <= n/2.

    These are the folded terms (``_sum_enclosure``).  With the sine
    balls (y, rho) of ``_sine_balls`` at scale 2^W, W = bits + guard, and
    csc^2 = 1 / sin^2 decreasing in sin > 0,
    lo = floor(2^(2W + bits) / (y + rho)^2) and
    hi = ceil(2^(2W + bits) / (y - rho)^2).  The guard keeps every y above
    rho; a ball that could reach 0, y <= rho, would be a wrong proof, and
    raises CertificationError.  As rho > 0, every term has hi > lo:
    ceil(a) >= a > b >= floor(b).

    Guard.  With sigma = 2^W sin(pi j / n) >= 2^(W+1) j / n (as
    sin x >= 2x / pi on [0, pi/2]), rho <= 3j and so rho / sigma below
    2^-60, hi - lo < 2 + 2^(2W + bits) 4 y rho / ((y - rho)^2 (y + rho)^2),
    and the second term is about 4 rho 2^(2W + bits) / sigma^3
    <= 1.5 n^3 2^(bits - W) / j^2.  The guard 3b + 2, with
    b = n.bit_length() so that n < 2^b, makes it at most 3/8: hi - lo <= 2
    at every precision.
    """
    scale_bits = bits + 3 * n.bit_length() + 2
    top = 1 << (2 * scale_bits + bits)
    los, his = [], []
    for j, (y, rho) in enumerate(_sine_balls(n, scale_bits), 1):
        if y <= rho:
            raise CertificationError(f"csc^2 bounds at n={n}, {bits} bits: the sine ball of j={j} may reach 0")
        los.append(top // (y + rho) ** 2)
        his.append(-(-top // (y - rho) ** 2))
    return tuple(los), tuple(his)


@lru_cache(maxsize=64)
def _power_row(n: int, bits: int, m: int) -> tuple[list[int], list[int]]:
    """The power row (lows, highs) of m at (n, bits): the m-th powers of the
    los and his of ``_csc_square_bounds(n, bits)`` at scale 2^F,
    F = bits + 2b + 4, b = n.bit_length(), each product rounded at once,
    down in lows and up in highs.  The row of m is the row of m >> 1
    squared, times lo (hi) if m is odd, and the row of 0 is 2^F: the
    left-to-right binary power of lo 2^(F - bits).  As a product of
    non-negative numbers increases with each factor, lows stay at or below
    lo^m 2^(F - m bits) and highs at or above hi^m 2^(F - m bits).  The
    cache keeps the rows of the prefixes m >> s walked through, so the
    genera of a level share them; only the 64 rows last asked for are kept.
    """
    fine_bits = bits + 2 * n.bit_length() + 4
    if not m:
        return ([1 << fine_bits] * (n // 2),) * 2
    low, high = _power_row(n, bits, m >> 1)
    # -(-a >> k) is a 2^-k rounded up; x * x, not -x * x, squares faster
    if m & 1:
        los, his = _csc_square_bounds(n, bits)
        low = [(x * x >> fine_bits) * lo >> bits for x, lo in zip(low, los)]
        high = [-((-(x * x) >> fine_bits) * hi >> bits) for x, hi in zip(high, his)]
    else:
        low = [x * x >> fine_bits for x in low]
        high = [-(-(x * x) >> fine_bits) for x in high]
    return low, high


def _sum_enclosure(m: int, n: int, bits: int, alternating: bool) -> tuple[int, int]:
    """(L, U) with L 2^-bits <= (n/2)^m sum_{j=1}^{n-1} s_j csc^{2m}(pi j / n) <= U 2^-bits,
    where s_j = (-1)^{j+1} if ``alternating``, else 1.

    The alternating sum is exactly 0 at odd n (see ``twisted_trig_oracle``).
    2^F csc^{2m} lies between the rounded powers of lo and hi in the power
    row of m (``_power_row``) at the finer scale 2^F, F = bits + 2b + 4 with
    b = n.bit_length().  As csc^2 >= 1, a rounding there moves a value by a
    relative 2^-F at most, while lo and hi are a relative
    1 / lo > 2^-(bits + 2b - 2) apart (csc^2(pi j / n) <= n^2 / 4), so the
    roundings hardly widen the enclosure.  A positive term is lowest at
    lo^m and highest at hi^m, a negative one the other way round.  The row
    holds 1 <= j <= n/2, and csc^2(pi j / n) = csc^2(pi (n - j) / n), so
    j and n - j fold into one term of weight 2; the middle j = n/2 of an
    even n is its own mirror, of weight 1.  In the alternating sum, at even
    n, a folded term keeps the sign (-1)^{j+1} of j: the even indices of the
    row are positive, the odd ones negative.  So the exact sums are twice
    the slice sums, less the middle term once with its sign.  With
    (n/2)^m = n^m 2^-m, one outward rounding takes n^m times the sums to
    scale 2^bits.
    """
    if alternating and n % 2:
        return 0, 0
    low, high = _power_row(n, bits, m)
    if alternating:
        lower, upper = sum(low[::2]) - sum(high[1::2]), sum(high[::2]) - sum(low[1::2])
    else:
        lower, upper = sum(low), sum(high)
    lower, upper = 2 * lower, 2 * upper
    if n % 2 == 0:
        if alternating and n % 4 == 0:
            # the middle j = n/2 is even, a negative term
            lower, upper = lower + high[-1], upper + low[-1]
        else:
            lower, upper = lower - low[-1], upper - high[-1]
    shift = m + 2 * n.bit_length() + 4
    return n**m * lower >> shift, -(-(n**m) * upper >> shift)


def _certified_sum(m: int, n: int, alternating: bool, precision_bits: int, label: tuple) -> CertifiedInteger:
    """The unique integer in the ``_sum_enclosure`` of (m, n), certified by an
    enclosure narrower than 1/2 at the first precision Q of the doubling
    sequence from ``precision_bits`` that gives one.

    The enclosure is exact, and certifies at once, at m = 0 and for the
    twisted sum at odd n.  Otherwise write c = csc^2(pi/n), the largest
    csc^2 of the sum, and
    B = log2(2m) + m log2(n/2) + 2 (m-1) log2 csc(pi/n), so 2^B = 2 m (n/2)^m c^(m-1).

    Skip.  Precisions that cannot certify are skipped.  Both sums, the
    twisted one at even n, have a j = 1 term of weight 2 once n >= 3.  At Q
    bits its hi - lo >= 1, so hi^m - lo^m >= m lo^(m-1), and
    lo = 2^Q c up to a relative error below 2^-60.  The rounded powers lie
    outside lo^m and hi^m, so after the prefactor n^m 2^-(Q m + m) the
    enclosure is at least about 2^(B - Q) wide, and a width of at least 1/2
    cannot certify.  Q is skipped while B > Q + 1; the two bits of margin
    absorb the float error of B.  At n = 2 the one term has weight 1 and
    nothing is skipped.

    Stop.  At every Q >= S = max(ceil(B) + b + 4, t + 4), with
    b = n.bit_length() and t = m.bit_length(), the enclosure is narrower
    than 1/2, at every n >= 2; so the walk raises once a precision at or
    above S fails to certify, which only a wrong proof allows, and it ends.
    Proof, for m >= 1.  Let X = hi 2^-Q and Y = lo 2^-Q for one term.  As
    lo <= 2^Q csc^2 <= hi, hi - lo <= 2 and 1 <= csc^2 <= c:
    X >= 1, Y >= 1 - 2^(1-Q) and X <= c (1 + 2^(1-Q)).  In a power row
    (``_power_row``) at F = Q + 2b + 4 bits, a rounding moves a value v by
    at most one unit, a relative 1/v, with v >= 2^F in the upper chain and
    v > 2^(F-1) in the lower one (below).  A square doubles the relative error so far and a
    product keeps it, and the first square and product are exact, so by
    induction over the bits of m the error compounds at most 2m - 1
    roundings:

        high <= 2^F X^m (1 + 2^-F)^(2m),  low >= 2^F Y^m (1 - 2^(1-F))^(2m),

    where every value of the lower chain stays above 2^(F-1), since
    m 2^(1-Q) <= 1/8 keeps Y^m >= 7/8.  Both factors differ from 1 by at
    most m 2^(2-F) (e^x - 1 <= 2x for x <= 1), Y <= X,
    X^m - Y^m <= m X^(m-1) (X - Y) and X - Y <= 2^(1-Q), so

        high - low <= 2^F (X^m - Y^m) + 8 m X^m <= m X^(m-1) (2^(2b+5) + 8X),

    and 8X < 8 n^2 / 3 < 2^(2b+5) / 8, as c <= n^2 / 4 (sin x >= 2x / pi).
    The fold's weights (``_sum_enclosure``) have magnitudes summing to n - 1,
    X^(m-1) <= c^(m-1) e^(m 2^(1-Q)) < 1.14 c^(m-1), and the prefactor
    n^m 2^-(m + 2b + 4) and the two final roundings give
    U - L < 1.3 (n - 1) 2^B + 2 units of 2^-Q, below 2^(Q-1) as n - 1 < 2^b.  Where the skip bound is -inf (n = 2) this
    bound still holds; at m = 0, S = 4 is below every start.
    """
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")
    skip, stop = -math.inf, m.bit_length() + 4
    if m and not (alternating and n % 2):
        bound = math.log2(2 * m) + m * math.log2(n / 2) - 2 * (m - 1) * math.log2(math.sin(math.pi / n))
        stop = max(stop, math.ceil(bound) + n.bit_length() + 4)
        if n >= 3:
            skip = bound
    bits = precision_bits
    while True:
        if skip <= bits + 1:
            lower, upper = _sum_enclosure(m, n, bits, alternating)
            if 2 * (upper - lower) < 1 << bits:
                candidate = -(-lower >> bits)
                if candidate << bits > upper:
                    # hexadecimal, which neither overflows a float nor meets
                    # the limit on the decimal digits of an int
                    raise CertificationError(
                        f"{_label(label)}: enclosure [{lower:#x}, {upper:#x}] * 2^-{bits} contains no integer"
                    )
                return CertifiedInteger._at_scale(candidate, lower, upper, bits)
            if bits >= stop:
                raise CertificationError(
                    f"{_label(label)}: no certificate at {bits} bits, though the enclosure "
                    f"is proved narrower than 1/2 from {stop} bits on"
                )
        bits *= 2


def verlinde_trig_oracle(g: int, k: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> CertifiedInteger:
    """Certified evaluation of the genus-g trigonometric dimension sum at level k."""
    m, n = _verlinde_terms(g, k)
    return _certified_sum(m, n, False, precision_bits, ("verlinde(g={}, k={})", g, k))


def twisted_trig_oracle(g: int, p: int, precision_bits: int = DEFAULT_PRECISION_BITS) -> CertifiedInteger:
    """Certified evaluation of the alternating twisted dimension sum at even level p.

    With n = p/2, sin(2 pi j / p) = sin(pi j / n) and (p/4)^m = (n/2)^m, so
    the sum is (n/2)^m sum_{j=1}^{n-1} (-1)^{j+1} csc^{2m}(pi j / n), over the
    same terms as the Verlinde sum at level n - 2.  The terms j and n - j
    have equal csc^2 and signs (-1)^{j+1} and (-1)^n (-1)^{j+1}: at odd n
    every pair cancels and the sum is exactly 0, certified at
    ``precision_bits`` with no work; at even n a folded term keeps the sign
    of j (the middle j = n/2 is alone), the j = 1 term has signed weight +2,
    and the Verlinde skip and stop rules hold here too.
    """
    m, n = _twisted_terms(g, p)
    return _certified_sum(m, n, True, precision_bits, ("twisted(g={}, p={})", g, p))
