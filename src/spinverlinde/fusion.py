"""Exact Verlinde-type dimensions from fusion-matrix traces.

The genus-g dimension formula

    dim(g, k) = ((k+2)/2)^{g-1} * sum_{j=1}^{k+1} sin(pi j / (k+2))^{2-2g}

and its twisted, alternating-sign analogue

    dim'(g, p) = (p/4)^{g-1} * sum_{j=1}^{p/2-1} (-1)^{j+1} sin(2 pi j / p)^{2-2g}

are real trigonometric sums with integer values.  This module evaluates
them exactly as traces over the level-k fusion ring: with N_a the
truncated Clebsch-Gordan matrices and H = sum_a N_a N_a^T the handle
element, dim(g, k) = tr H^{g-1} and dim'(g, 2(k+2)) = tr N_k H^{g-1}.
The trace reformulation is certified against the trigonometric sums by
an arbitrary-precision interval oracle: the sum is enclosed in an
interval of width < 1/2, which pins a unique integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PRECISION_BITS = 128
DEFAULT_PRECISION_CEILING = 4096

Matrix = tuple[tuple[int, ...], ...]


class CertificationError(ArithmeticError):
    """The interval oracle could not certify a unique integer value."""


class PrecisionCeilingError(CertificationError):
    """Doubling reached the precision ceiling before the enclosure narrowed."""


# ---------------------------------------------------------------------------
# fusion ring


def _clebsch_gordan_matrix(k: int, a: int) -> Matrix:
    n = k + 1
    rows = []
    for b in range(n):
        row = [0] * n
        # c runs over |a-b| .. min(a+b, 2k-a-b) in steps of 2
        lo, hi = abs(a - b), min(a + b, 2 * k - a - b)
        if lo <= hi:
            count = (hi - lo) // 2 + 1
            row[lo : hi + 1 : 2] = [1] * count
        rows.append(tuple(row))
    return tuple(rows)


class FusionRing:
    """Truncated Clebsch-Gordan fusion data at level k.

    ``matrices[a]`` is the (k+1) x (k+1) matrix of the label a acting by
    fusion product; N_0 is the identity, every N_a is a symmetric 0/1
    matrix, all N_a commute, and N_k permutes the labels b -> k - b.
    """

    def __init__(self, level: int):
        if level < 0:
            raise ValueError(f"level must be a non-negative integer, got {level}")
        self.level = level
        self.size = level + 1
        self.matrices: tuple[Matrix, ...] = tuple(
            _clebsch_gordan_matrix(level, a) for a in range(self.size)
        )
        self._handle: Matrix | None = None

    @property
    def handle_matrix(self) -> Matrix:
        """The handle element H = sum_a N_a N_a^T, with exact integer entries.

        Since every N_a is symmetric and a -> N_a is a ring homomorphism,
        sum_a N_a^2 = sum_c (#{a : c in a x a}) N_c, and c lies in a x a
        exactly for even c with c/2 <= a <= k - c/2, i.e. k - c + 1 labels.
        This collapses the sum of matrix squares to O(n^2) per label; the
        literal definition is kept as the test oracle.
        """
        if self._handle is None:
            acc = [[0] * self.size for _ in range(self.size)]
            for c in range(0, self.size, 2):
                multiplicity = self.level - c + 1
                n_c = self.matrices[c]
                for i in range(self.size):
                    acc_i = acc[i]
                    row = n_c[i]
                    for j in range(self.size):
                        if row[j]:
                            acc_i[j] += multiplicity
            self._handle = tuple(tuple(r) for r in acc)
        return self._handle

    def __repr__(self) -> str:
        return f"FusionRing(level={self.level})"


@lru_cache(maxsize=None)
def fusion_matrices(k: int) -> FusionRing:
    """The level-k fusion ring (cached; rings are immutable)."""
    return FusionRing(k)


# ---------------------------------------------------------------------------
# dense arbitrary-precision matrix helpers


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(m: Matrix, exponent: int) -> Matrix:
    """Matrix power by repeated squaring; entries are Python big ints."""
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    result = mat_identity(len(m))
    base = m
    e = exponent
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def mat_trace(m: Matrix) -> int:
    return sum(m[i][i] for i in range(len(m)))


# ---------------------------------------------------------------------------
# exact dimension values


@lru_cache(maxsize=None)
def verlinde_dim(g: int, k: int) -> int:
    """Genus-g dimension at level k, as the exact trace tr H^{g-1}."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if k < 0:
        raise ValueError(f"level must be a non-negative integer, got {k}")
    if g == 1:
        # tr H^0 is the trace of the (k+1)-dimensional identity
        return k + 1
    ring = fusion_matrices(k)
    return mat_trace(mat_pow(ring.handle_matrix, g - 1))


@lru_cache(maxsize=None)
def twisted_dim(g: int, p: int) -> int:
    """Twisted genus-g dimension at even level p >= 4, as tr N_k H^{g-1}, k = p/2 - 2."""
    if g < 1:
        raise ValueError(f"genus must be a positive integer, got {g}")
    if p % 2 or p < 4:
        raise ValueError(f"twisted dimension needs an even level p >= 4, got {p}")
    k = p // 2 - 2
    ring = fusion_matrices(k)
    return mat_trace(mat_mul(ring.matrices[k], mat_pow(ring.handle_matrix, g - 1)))


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
