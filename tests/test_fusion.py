import math
import random
import re
import sys
import threading
import time
from fractions import Fraction
from functools import cache
from operator import mul
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import fone, from_int, fzero, mpf_pi, round_ceiling, round_floor
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_div,
    mpi_mul,
    mpi_pow_int,
    mpi_shift,
    mpi_sin,
    mpi_sub,
)

from spinverlinde import fusion
from spinverlinde.dimensions import bm_even_dim, bm_odd_dim
from spinverlinde.fusion import (
    CertificationError,
    _modulus,
    _power_sum_table,
    _PowerSumTable,
    _residue_table,
    _root_coefficient,
    _scaled_power_sum,
    _sum_residue,
    twisted_dim,
    twisted_trig_oracle,
    verlinde_dim,
    verlinde_trig_oracle,
)

# frozen reference values computed from the trigonometric sums at 200-bit
# precision, independently of the exact path
VERLINDE_G2 = {1: 4, 2: 10, 3: 20, 4: 35, 5: 56, 6: 84, 7: 120, 8: 165}
VERLINDE_MISC = {(3, 1): 8, (3, 2): 36, (3, 6): 1680, (4, 2): 136, (5, 2): 528}
TWISTED = {
    (1, 8): 1,
    (2, 8): 6,
    (3, 8): 28,
    (1, 12): 1,
    (2, 12): 19,
    (2, 16): 44,
    (3, 16): 1392,
    (2, 24): 146,
    (2, 32): 344,
}


# ---------------------------------------------------------------------------
# literal fusion-trace oracle: dim(g, k) = tr H^{g-1}, dim'(g, 2(k+2)) = tr N_k H^{g-1}


def _mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _transpose(m):
    return tuple(zip(*m))


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@cache
def fusion_ring(k):
    """(N_0, ..., N_k) by the truncated Clebsch-Gordan rule, and H = sum_a N_a N_a^T."""
    n = k + 1
    # c lies in a x b iff |a-b| <= c <= min(a+b, 2k-a-b) and c = a+b mod 2
    matrices = tuple(
        tuple(
            tuple(
                int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b - c) % 2 == 0)
                for c in range(n)
            )
            for b in range(n)
        )
        for a in range(n)
    )
    squares = [_mul(n_a, _transpose(n_a)) for n_a in matrices]
    handle = tuple(tuple(map(sum, zip(*rows))) for rows in zip(*squares))
    return matrices, handle


@cache
def handle_power(k, e):
    """H^e at level k, by plain repeated products."""
    _, handle = fusion_ring(k)
    return _identity(k + 1) if e == 0 else _mul(handle_power(k, e - 1), handle)


def trace_dim(g, k):
    return _trace(handle_power(k, g - 1))


def twisted_trace_dim(g, k):
    matrices, _ = fusion_ring(k)
    return _trace(_mul(matrices[k], handle_power(k, g - 1)))


# ---------------------------------------------------------------------------
# csc power-sum oracles: the hypergeometric recurrence of Zagier (1996), in
# Fraction arithmetic and in integers on a scale that depends on the parity;
# production runs a finite recurrence over the roots on one table per n


def fraction_power_sums(m, n):
    """[p_0(n), ..., p_m(n)], p_i(n) = sum_{j=1}^{n-1} csc^{2i}(pi j / n), as Fractions.

    With s = sin^2 z, sin nz / (n sin z) = 2F1((1+n)/2, (1-n)/2; 3/2; s) = sum_r c_r s^r
    (DLMF 15.4) and p_i(n) = -2 q_i with q_i = i [s^i] log 2F1, from the Newton
    recurrence i c_i = sum_r q_r c_{i-r}.
    """
    c = [Fraction(1)]
    for r in range(m):
        c.append(c[r] * ((2 * r + 1) ** 2 - n * n) / (2 * (2 * r + 3) * (r + 1)))
    q = [Fraction(0)]
    for i in range(1, m + 1):
        q.append(i * c[i] - sum(q[r] * c[i - r] for r in range(1, i)))
    return [Fraction(n - 1)] + [-2 * value for value in q[1:]]


def fraction_power_sum(m, n):
    return fraction_power_sums(m, n)[m]


def series_power_sums(m, n):
    """[P_0, ..., P_m], P_i = mu^i p_i(n) with mu = n for odd n and 2n for even n.

    The series of ``fraction_power_sums`` in integers: C_r = mu^r c_r and
    P_i = -2 i C_i - sum_{r<i} C_r P_{i-r}.  sin nz / sin z is an integer
    polynomial in s at odd n, and cos z times one at even n, where the s^a
    coefficient of cos z = (1 - s)^{1/2} has a denominator dividing
    2^{2a-1}, which (2n)^r / n supplies; every step must divide exactly.
    """
    mu = n if n % 2 else 2 * n
    c, p = [1], [n - 1]
    for i in range(1, m + 1):
        r = i - 1
        coefficient, remainder = divmod(mu * c[r] * ((2 * r + 1) ** 2 - n * n), 2 * (2 * r + 3) * (r + 1))
        assert remainder == 0, (n, i)
        c.append(coefficient)
        p.append(-2 * i * coefficient - sum(map(mul, c[1:i], p[i - 1 : 0 : -1])))
    return p


def table_power_sum(m, n):
    """p_m(n) as the production table gives it, n^m p_m(n) over n^m."""
    return Fraction(_scaled_power_sum(m, n), n**m)


# ---------------------------------------------------------------------------
# the residue's own oracles: Phi_n by exact polynomial division, and the
# unfolded sum with each term inverted by itself


def _poly_divide(numerator, divisor):
    """numerator / divisor for integer polynomials, lowest coefficient first,
    with a monic divisor; the division must be exact."""
    remainder, degree = list(numerator), len(divisor) - 1
    quotient = [0] * (len(numerator) - degree)
    for i in range(len(quotient) - 1, -1, -1):
        quotient[i] = remainder[i + degree]
        for j, coefficient in enumerate(divisor):
            remainder[i + j] -= quotient[i] * coefficient
    assert not any(remainder)
    return quotient


@cache
def cyclotomic_polynomial(n):
    """Phi_n, lowest coefficient first: x^n - 1 over Phi_d for every proper divisor d of n."""
    polynomial = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            polynomial = _poly_divide(polynomial, cyclotomic_polynomial(d))
    return tuple(polynomial)


def cyclotomic_value(n, t):
    """Phi_n(2^t), by Horner's rule."""
    value = 0
    for coefficient in reversed(cyclotomic_polynomial(n)):
        value = (value << t) + coefficient
    return value


def reference_modulus(n, bits):
    """(t, M): t = ceil(bits / phi(n)), phi by counting, and
    M = Phi_n(2^t) / gcd(Phi_n(2^t), n)."""
    t = -(-bits // sum(math.gcd(j, n) == 1 for j in range(1, n + 1)))
    value = cyclotomic_value(n, t)
    return t, value // math.gcd(value, n)


def unfolded_residue(m, n, bits, alternating):
    """V modulo M in (-M/2, M/2], with one term for every 1 <= j < n, each
    inverted by itself; production folds j <-> n - j and batch-inverts."""
    t, modulus = reference_modulus(n, bits)
    total = 0
    for j in range(1, n):
        term = 2 - pow(2, t * j, modulus) - pow(2, t * (n - j), modulus)
        sign = -1 if alternating and j % 2 == 0 else 1
        total += sign * pow(term, -m, modulus)
    residue = pow(2 * n, m, modulus) * total % modulus
    return residue - modulus if 2 * residue > modulus else residue


def fold_weights(n, alternating):
    """The signed weight of each folded term 1 <= j <= n/2 of the sum over j < n.

    The terms of j and n - j are equal, so they are one term of weight 2;
    the middle j = n/2 of an even n is its own mirror, weight 1.  In the
    alternating sum, at even n, a term keeps the sign (-1)^{j+1} of j.
    """
    return [(1 if 2 * j == n else 2) * (-1 if alternating and j % 2 == 0 else 1) for j in range(1, n // 2 + 1)]


# ---------------------------------------------------------------------------
# mpmath interval arithmetic, the route production took before its integer
# oracles: outward-rounded libmpi operations on raw endpoint pairs, and the
# doubling loop on them; the oracles below are its sums


class Enclosure(NamedTuple):
    """The integer that a raw interval enclosure narrower than 1/2 pins."""

    value: int
    lower: Fraction
    upper: Fraction
    precision_bits: int


def endpoint_fraction(endpoint):
    """The exact value of an mpmath raw endpoint, or None if it is +/-inf or NaN."""
    # raw endpoint: (sign, mantissa, exponent, bit count), value = +/- man * 2^exp;
    # zero is (0, 0, 0, 0), the non-finite specials have mantissa 0 and a non-zero exponent
    sign, man, exp, _ = endpoint
    if man == 0:
        return None if exp else Fraction(0)
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if sign else value


def interval_fractions(interval):
    """The exact endpoints of a raw interval."""
    return tuple(map(endpoint_fraction, interval))


def int_interval(value, prec):
    return from_int(value, prec, round_floor), from_int(value, prec, round_ceiling)


def interval_sine(j, n, prec):
    """sin(pi j / n) enclosed at ``prec`` bits."""
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    angle = mpi_div(mpi_mul(pi, int_interval(j, prec), prec), int_interval(n, prec), prec)
    return mpi_sin(angle, prec)


def interval_certify(evaluate, precision_bits, label, max_prec=4096):
    """Run ``evaluate(prec)``, doubling the precision until its raw enclosure
    is finite with width < 1/2, and return the enclosed integer; the cells
    the tests give it certify well below ``max_prec``."""
    prec = precision_bits
    while True:
        lower, upper = interval_fractions(evaluate(prec))
        if lower is not None and upper is not None and upper - lower < Fraction(1, 2):
            return Enclosure(math.ceil(lower), lower, upper, prec)
        if prec >= max_prec:
            raise CertificationError(f"{label}: not tight at {prec} bits")
        prec = min(2 * prec, max_prec)


# ---------------------------------------------------------------------------
# unfolded interval oracle: the literal sums, one interval sine for every
# 1 <= j < n; the production oracle folds j <-> n - j


@cache
def interval_sines(n, prec):
    return tuple(interval_sine(j, n, prec) for j in range(1, n))


def unfolded_verlinde_oracle(g, k, precision_bits=128):
    n, m = k + 2, g - 1

    def evaluate(prec):
        total = (fzero, fzero)
        for sine in interval_sines(n, prec):
            total = mpi_add(total, mpi_pow_int(sine, -2 * m, prec), prec)
        return mpi_shift(mpi_mul(total, int_interval(n**m, prec), prec), -m)

    return interval_certify(evaluate, precision_bits, f"unfolded verlinde(g={g}, k={k})")


def unfolded_twisted_oracle(g, p, precision_bits=128):
    n, m = p // 2, g - 1

    def evaluate(prec):
        total = (fzero, fzero)
        for j, sine in enumerate(interval_sines(n, prec), start=1):
            term = mpi_pow_int(sine, -2 * m, prec)
            total = (mpi_add if j % 2 else mpi_sub)(total, term, prec)
        return mpi_shift(mpi_mul(total, int_interval(p**m, prec), prec), -2 * m)

    return interval_certify(evaluate, precision_bits, f"unfolded twisted(g={g}, p={p})")


# ---------------------------------------------------------------------------
# folded interval oracle: the production oracle before its integer routes,
# csc^2 enclosed per folded term and cached per (n, prec); each certified
# value must lie in these, and each certificate's bound must hold them


@cache
def interval_csc_squares(n, prec):
    """((weight, csc^2(pi j / n)) for 1 <= j <= n/2), as raw intervals."""
    squares = (mpi_pow_int(interval_sine(j, n, prec), 2, prec) for j in range(1, n // 2 + 1))
    return tuple(
        (1 if 2 * j == n else 2, mpi_div((fone, fone), square, prec))
        for j, square in enumerate(squares, start=1)
    )


def interval_verlinde_evaluate(g, k):
    n, m = k + 2, g - 1

    def evaluate(prec):
        total = (fzero, fzero)
        for weight, csc2 in interval_csc_squares(n, prec):
            term = mpi_pow_int(csc2, m, prec)
            total = mpi_add(total, term if weight == 1 else mpi_shift(term, 1), prec)
        return mpi_shift(mpi_mul(total, int_interval(n**m, prec), prec), -m)

    return evaluate


def interval_twisted_evaluate(g, p):
    n, m = p // 2, g - 1

    def evaluate(prec):
        total = (fzero, fzero)
        for j, (weight, csc2) in enumerate(interval_csc_squares(n, prec), start=1):
            signed = (-1) ** (j + 1) + (weight - 1) * (-1) ** (n - j + 1)
            if signed:
                term = mpi_shift(mpi_pow_int(csc2, m, prec), abs(signed) - 1)
                total = (mpi_add if signed > 0 else mpi_sub)(total, term, prec)
        return mpi_shift(mpi_mul(total, int_interval(p**m, prec), prec), -2 * m)

    return evaluate


class TestFusionRing:
    def test_level_zero(self):
        matrices, _ = fusion_ring(0)
        assert matrices == (((1,),),)

    def test_level_one(self):
        matrices, _ = fusion_ring(1)
        assert matrices[1] == ((0, 1), (1, 0))

    def test_level_two(self):
        matrices, _ = fusion_ring(2)
        assert matrices[1] == ((0, 1, 0), (1, 0, 1), (0, 1, 0))

    @pytest.mark.parametrize("k", range(0, 9))
    def test_ring_invariants(self, k):
        matrices, _ = fusion_ring(k)
        n = k + 1
        assert matrices[0] == _identity(n)
        for n_a in matrices:
            assert n_a == _transpose(n_a)
            assert all(entry in (0, 1) for row in n_a for entry in row)
        for n_a in matrices:
            for n_b in matrices:
                assert _mul(n_a, n_b) == _mul(n_b, n_a)
        # the top label acts as the permutation b -> k - b
        top = matrices[k]
        assert all(
            top[b][c] == (1 if c == k - b else 0) for b in range(n) for c in range(n)
        )

    @pytest.mark.parametrize("k", range(0, 13))
    def test_handle_matrix_equals_literal_definition(self, k):
        # a -> N_a is a ring homomorphism into symmetric matrices, so
        # sum_a N_a N_a^T collapses to sum_c (k - c + 1) N_c over even c
        matrices, handle = fusion_ring(k)
        n = k + 1
        collapsed = tuple(
            tuple(sum((k - c + 1) * matrices[c][i][j] for c in range(0, n, 2)) for j in range(n))
            for i in range(n)
        )
        assert handle == collapsed

    def test_handle_commutes_with_fusion_matrices(self):
        matrices, handle = fusion_ring(6)
        for n_a in matrices:
            assert _mul(handle, n_a) == _mul(n_a, handle)

    @pytest.mark.parametrize("g", range(1, 6))
    @pytest.mark.parametrize("k", range(0, 13))
    def test_series_equals_literal_trace(self, g, k):
        assert verlinde_dim(g, k) == trace_dim(g, k)
        assert twisted_dim(g, 2 * (k + 2)) == twisted_trace_dim(g, k)


class TestVerlindeDim:
    def test_genus_one_is_label_count(self):
        for k in range(65):
            assert verlinde_dim(1, k) == k + 1

    @pytest.mark.parametrize("k,expected", sorted(VERLINDE_G2.items()))
    def test_genus_two_values(self, k, expected):
        assert verlinde_dim(2, k) == expected

    @pytest.mark.parametrize("gk,expected", sorted(VERLINDE_MISC.items()))
    def test_higher_genus_values(self, gk, expected):
        assert verlinde_dim(*gk) == expected

    def test_genus_three_level_one_via_handle(self):
        # H = 2I at level 1, so tr H^2 = 8
        _, handle = fusion_ring(1)
        assert handle == ((2, 0), (0, 2))
        assert verlinde_dim(3, 1) == 8

    def test_non_integral_series_value_raises(self, monkeypatch):
        # every scaled power sum reads 1: 1/2 at (2, 1) and -3/2 at (2, 8)
        monkeypatch.setattr(fusion, "_scaled_power_sum", lambda m, n: 1)
        with pytest.raises(ArithmeticError, match=r"verlinde_dim\(g=2, k=1\)"):
            verlinde_dim.__wrapped__(2, 1)
        with pytest.raises(ArithmeticError, match=r"twisted_dim\(g=2, p=8\)"):
            twisted_dim.__wrapped__(2, 8)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            verlinde_dim(0, 2)
        with pytest.raises(ValueError):
            verlinde_dim(2, -1)


class TestPowerSumTable:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_equals_fraction_recurrence(self, parity):
        # at n <= 40, m runs well past the order d = (n - 1) // 2 of the root
        # recurrence: to 80 against the Fraction recurrence, to 200 against the series
        for n in range(2 if parity == "even" else 1, 151, 2):
            top = 80 if n <= 40 else 40
            assert [table_power_sum(m, n) for m in range(top + 1)] == fraction_power_sums(top, n)
        for n in range(2 if parity == "even" else 1, 41, 2):
            # the series' scale over n is 1 at odd n and 2 at even n
            ratio = 1 if n % 2 else 2
            assert [_scaled_power_sum(m, n) * ratio**m for m in range(201)] == series_power_sums(200, n)

    def test_root_coefficients_equal_ratio_recurrence(self):
        # f_{r+1} = f_r ((2r + 1 + e)^2 - n^2) / ((2r + 2)(2r + 3)), e = 1 - n mod 2: the
        # hypergeometric series of sin nz / (n sin z) at odd n and of
        # sin nz / (n sin z cos z) = 2F1(1 + n/2, 1 - n/2; 3/2; s) at even n; both stop after d
        for n in range(1, 200):
            d, e = (n - 1) // 2, 1 - n % 2
            f = [Fraction(1)]
            for r in range(d + 3):
                f.append(f[r] * ((2 * r + 1 + e) ** 2 - n * n) / ((2 * r + 2) * (2 * r + 3)))
            assert [_root_coefficient(n, r) for r in range(1, d + 4)] == [n**r * f[r] for r in range(1, d + 4)]
            assert f[d] != 0 and not any(f[d + 1 :])

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 64), st.integers(2, 2000))
    def test_equals_fraction_recurrence_sampled(self, m, n):
        assert table_power_sum(m, n) == fraction_power_sum(m, n)

    def test_small_values(self):
        # p_1(n) = (n^2 - 1) / 3, p_2(n) = (n^2 - 1)(n^2 + 11) / 45
        for n in range(2, 60):
            assert table_power_sum(1, n) == Fraction(n * n - 1, 3)
            assert table_power_sum(2, n) == Fraction((n * n - 1) * (n * n + 11), 45)
        # n = 1 has no terms at all
        assert [table_power_sum(m, 1) for m in range(5)] == [0] * 5

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 50, 51, 102])
    def test_growth_order_does_not_matter(self, n):
        top = 60
        ascending, descending, jump = _PowerSumTable(n), _PowerSumTable(n), _PowerSumTable(n)
        values = [ascending.scaled_sum(m) for m in range(top + 1)]
        assert [descending.scaled_sum(m) for m in range(top, -1, -1)] == values[::-1]
        assert jump.scaled_sum(top) == values[top]
        assert ascending._rows == descending._rows == jump._rows
        assert all(isinstance(row, tuple) for row in ascending._rows)
        assert len(ascending._rows[1]) == top + 1
        # the root coefficients stop at the order d = (n - 1) // 2
        assert len(ascending._rows[0]) == min(top, (n - 1) // 2) + 1

    def test_growth_replaces_rows_and_keeps_the_prefix(self):
        table = _PowerSumTable(40)
        table.scaled_sum(10)
        before = table._rows
        table.scaled_sum(30)
        assert table._rows is not before
        assert table._rows[0][:11] == before[0] and table._rows[1][:11] == before[1]
        assert len(table._rows[0]) == 20
        table.scaled_sum(20)
        assert table._rows[1][:31] == table._rows[1]

    def test_wide_level_at_low_genus_grows_few_coefficients(self):
        n = 10**6 + 2
        table = _PowerSumTable(n)
        assert Fraction(table.scaled_sum(2), n**2) == Fraction((n * n - 1) * (n * n + 11), 45)
        assert tuple(map(len, table._rows)) == (3, 3)

    def test_concurrent_growth_never_shows_a_partial_table(self):
        top = 120
        reference = _PowerSumTable(50)
        expected = [reference.scaled_sum(m) for m in range(top + 1)]
        full = reference._rows
        table, bad = _PowerSumTable(50), []

        def reader(seed):
            order = list(range(top + 1))
            random.Random(seed).shuffle(order)
            for m in order:
                if table.scaled_sum(m) != expected[m]:
                    bad.append(("value", m))
                coefficients, sums = table._rows
                # F stops at d = 24 while R grows to m
                if len(coefficients) != min(len(sums), 25) or sums != full[1][: len(sums)]:
                    bad.append(("rows", len(coefficients), len(sums)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []

    def test_table_shared_by_every_genus(self, cold_caches):
        for g in range(1, 30):
            verlinde_dim(g, 40)
        info = _power_sum_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert len(_power_sum_table(42)._rows[1]) == 29


class TestHighGenus:
    """Genera well past the sweep grid, cold, against the oracles."""

    def test_high_genus_cold_within_budget(self, cold_caches):
        start = time.perf_counter()
        values = {g: verlinde_dim(g, 100) for g in range(1, 201)}
        values[400] = verlinde_dim(400, 100)
        for g, k in ((120, 40), (300, 40)):
            assert verlinde_dim(g, k) == verlinde_trig_oracle(g, k).value
        for p in (8, 200, 402):
            for g in range(1, 65):
                assert twisted_dim(g, p) == twisted_trig_oracle(g, p).value
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"high-genus sweep took {elapsed:.2f}s"
        # spot cells against the rational recurrence, dim(g, 100) = 51^{g-1} p_{g-1}(102),
        # the exact path and the oracle alike
        for g in (2, 17, 64, 200):
            assert values[g] == 51 ** (g - 1) * fraction_power_sum(g - 1, 102) == verlinde_trig_oracle(g, 100).value
        assert all(isinstance(v, int) and v > 0 for v in values.values())

    def test_small_levels_cold_within_budget(self, cold_caches):
        # the root recurrence has order 3 at n = 8 and 1 at n = 4, whatever the genus
        start = time.perf_counter()
        even, twisted, wide = bm_even_dim(1000, 16, 0), twisted_dim(1000, 16), verlinde_dim(2000, 6)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"small-level high-genus cells took {elapsed:.2f}s"
        # bm_even_dim(g, 16, 0) = (dim(g, 6) + 4^{g-1} (2^g - 1)) / 2^{2g}
        assert even << 2000 == verlinde_trig_oracle(1000, 6).value + 4**999 * ((1 << 1000) - 1)
        assert twisted == twisted_trig_oracle(1000, 16).value
        assert wide == verlinde_trig_oracle(2000, 6).value


class TestTableBudget:
    """One size check, in ``_verlinde_terms`` and ``_twisted_terms``, for the
    exact path and the oracle alike: a cell whose power-sum tables would take
    more than ``TABLE_BUDGET_MB`` together is a ValueError with the cell's label."""

    def test_the_budget_admits_the_largest_named_cell_without_computing_it(self, cold_caches):
        # (50000, 14) peaks at 1487 MB; the check reads no table and builds none
        assert fusion._verlinde_terms(50000, 14, ("verlinde_dim(g={}, k={})", 50000, 14)) == (49999, 16)
        # check integrality --genus 50000 --p 16, at n = 8 and 4: 1639 MB
        from spinverlinde import checks

        assert checks._grid("integrality", max_genus=50000, max_p=16) == [50000, 16]
        assert fusion._power_sum_table.cache_info().currsize == 0

    @pytest.mark.parametrize("n, largest", [(2, 185364), (3, 111680), (4, 92682), (8, 70061), (16, 58618)])
    def test_the_largest_genus_of_each_n(self, n, largest):
        fusion._require_tables(largest - 1, [n], ("cell",))
        message = f"cell: the power-sum table at n={n} fits in 2048 MB only up to genus {largest}"
        with pytest.raises(ValueError, match=rf"\A{re.escape(message)}\Z"):
            fusion._require_tables(largest, [n], ("cell",))

    def test_the_tables_of_a_cell_or_grid_count_together(self):
        # 10 + 7 bits a term at n = 16 and 8: 2533 MB at genus 50000
        fusion._require_tables(44957, [16, 8], ("cell",))
        message = "cell: the 2 power-sum tables up to n=16 fit in 2048 MB only up to genus 44958"
        with pytest.raises(ValueError, match=rf"\A{re.escape(message)}\Z"):
            fusion._require_tables(44958, [8, 16, 8], ("cell",))

    def test_a_table_at_n_2_counts_only_alone(self):
        # it keeps only zeros: the p = 8 limit is that of n = 4 alone
        fusion._require_tables(92681, [4, 2], ("cell",))
        message = "cell: the power-sum table at n=4 fits in 2048 MB only up to genus 92682"
        with pytest.raises(ValueError, match=rf"\A{re.escape(message)}\Z"):
            fusion._require_tables(92682, [4, 2], ("cell",))
        # n = 1 (twisted_dim's h at p = 4) has no table to count
        fusion._require_tables(185363, [2, 1], ("cell",))
        with pytest.raises(ValueError, match="n=2 fits in 2048 MB only up to genus 185364"):
            fusion._require_tables(185364, [2, 1], ("cell",))

    def test_only_the_128_largest_tables_count(self):
        # _power_sum_table caches 128 tables; a longer grid replaces the oldest
        assert fusion._power_sum_table.cache_info().maxsize == 128
        message = "grid: the 128 power-sum tables up to n=999 fit in 2048 MB only up to genus 3119"
        for tables in (range(3, 1000), range(872, 1000)):
            with pytest.raises(ValueError, match=rf"\A{re.escape(message)}\Z"):
                fusion._require_tables(3119, tables, ("grid",))
        fusion._require_tables(3118, range(3, 1000), ("grid",))

    @pytest.mark.parametrize(
        "compute, message",
        [
            (lambda: twisted_dim(50000, 32), "twisted_dim(g=50000, p=32): the 2 power-sum tables up to n=16"),
            (lambda: twisted_trig_oracle(50000, 32), "twisted(g=50000, p=32): the 2 power-sum tables up to n=16"),
            (lambda: bm_odd_dim(50000, 32, 0), "twisted_dim(g=50000, p=32): the 2 power-sum tables up to n=16"),
        ],
        ids=["twisted", "twisted-oracle", "graded"],
    )
    def test_a_twisted_cell_counts_its_tables_at_p_over_2_and_p_over_4(self, cold_caches, compute, message):
        # each table alone is under the budget: 1490 MB at n = 16, 1043 MB at n = 8
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"\A{re.escape(message)} fit in 2048 MB only up to genus 44958\Z"):
            compute()
        assert time.perf_counter() - start < 2.0
        assert fusion._power_sum_table.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "compute, message",
        [
            (lambda: verlinde_dim(10**6, 1), "verlinde_dim(g=1000000, k=1): the power-sum table at n=3"),
            (lambda: verlinde_trig_oracle(10**6, 1), "verlinde(g=1000000, k=1): the power-sum table at n=3"),
            (lambda: twisted_dim(10**20, 8), f"twisted_dim(g={10**20}, p=8): the power-sum table at n=4"),
            (lambda: twisted_trig_oracle(10**20, 8), f"twisted(g={10**20}, p=8): the power-sum table at n=4"),
            (lambda: bm_even_dim(3 * 10**6, 8, 0), "verlinde_dim(g=3000000, k=2): the power-sum table at n=4"),
        ],
        ids=["exact", "oracle", "twisted", "twisted-oracle", "graded"],
    )
    def test_a_cell_over_the_budget_is_refused_at_once(self, compute, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"\A{re.escape(message)} fits in 2048 MB only up to genus \d+\Z"):
            compute()
        assert time.perf_counter() - start < 0.5

    def test_a_graded_cell_is_refused_before_its_arf_counts(self):
        from spinverlinde.dimensions import _graded_cell, sum_over_spin

        # the counts 2^{2g-1} +/- 2^{g-1} alone would take 2.5 * 10^19 bytes
        message = f"graded cell (g={10**20}, p=8): the power-sum table at n=4 fits in 2048 MB only up to genus 92682"
        for compute in (lambda: _graded_cell(10**20, 8), lambda: sum_over_spin(10**20, 8)):
            with pytest.raises(ValueError, match=rf"\A{re.escape(message)}\Z"):
                compute()


class TestTwistedDim:
    @pytest.mark.parametrize("gp,expected", sorted(TWISTED.items()))
    def test_values(self, gp, expected):
        assert twisted_dim(*gp) == expected

    def test_genus_one_counts_fixed_labels(self):
        # tr N_k is 1 for even k (the middle label) and 0 for odd k
        assert twisted_dim(1, 8) == 1
        assert twisted_dim(1, 6) == 0

    def test_odd_or_small_p_rejected(self):
        with pytest.raises(ValueError):
            twisted_dim(2, 7)
        with pytest.raises(ValueError):
            twisted_dim(2, 2)
        with pytest.raises(ValueError):
            twisted_dim(0, 8)

    def test_p_four_reduces_to_trivial_ring(self):
        for g in range(1, 6):
            assert twisted_dim(g, 4) == 1


class TestOracles:
    def test_verlinde_oracle_certifies(self):
        certified = verlinde_trig_oracle(2, 2, 128)
        assert certified.value == 10
        # |V| <= (n - 1)(n/2)^{3m} = 3 * 2^3 at n = 4, m = 1
        assert certified.bound == 24
        assert 2 * certified.bound < certified.modulus
        assert (certified.modulus, certified.precision_bits) == (reference_modulus(4, 128)[1], 128)

    def test_exact_genus_one_sum(self):
        certified = verlinde_trig_oracle(1, 5)
        assert certified.value == 6

    def test_twisted_oracle_values(self):
        assert twisted_trig_oracle(2, 8).value == 6
        assert twisted_trig_oracle(1, 12).value == 1
        assert twisted_trig_oracle(3, 8).value == 28

    @pytest.mark.parametrize("g", range(1, 7))
    @pytest.mark.parametrize("k", range(0, 17))
    def test_trace_equals_oracle_on_grid(self, g, k):
        assert verlinde_dim(g, k) == verlinde_trig_oracle(g, k).value

    @pytest.mark.parametrize("g", range(1, 7))
    @pytest.mark.parametrize("k", range(0, 17))
    def test_twisted_trace_equals_oracle_on_grid(self, g, k):
        p = 2 * (k + 2)
        assert twisted_dim(g, p) == twisted_trig_oracle(g, p).value

    def test_integrality_and_nonnegativity_on_grid(self):
        for g in range(1, 7):
            for k in range(0, 17):
                v = verlinde_dim(g, k)
                t = twisted_dim(g, 2 * (k + 2))
                assert isinstance(v, int) and v >= 0
                assert isinstance(t, int) and t >= 0

    def test_precision_doubling_on_large_values(self):
        # at 128 starting bits the modulus is below twice the bound, and the
        # oracle must double before certifying
        certified = verlinde_trig_oracle(12, 40, 128)
        assert certified.precision_bits > 128
        assert certified.value == verlinde_dim(12, 40)

    def test_certifies_at_parameter_envelope(self):
        # g = 20, k = 200 certifies within 4096 bits
        certified = verlinde_trig_oracle(20, 200)
        assert certified.precision_bits <= 4096
        assert 2 * certified.bound < certified.modulus

    @pytest.mark.parametrize("g", [1, 2, 3, 5, 12, 40, 120])
    def test_walk_stops_only_where_the_sum_certifies(self, g):
        # the walk stops at the first doubling whose modulus exceeds twice
        # the bound (n - 1)(n/2)^{3m}, rounded up; n = 2 and the twisted sums
        # at odd n, of bound 0, included
        m = g - 1
        for k in (0, 1, 2, 3, 10, 40, 101):
            n = k + 2
            for oracle, level, alternating in (
                (verlinde_trig_oracle, k, False),
                (twisted_trig_oracle, 2 * n, True),
            ):
                bound = 0 if alternating and n % 2 else math.ceil(Fraction((n - 1) * n ** (3 * m), 2 ** (3 * m)))
                for start in (64, 128):
                    certified = oracle(g, level, start)
                    bits = certified.precision_bits
                    assert certified.bound == bound
                    assert bits in [start << i for i in range(12)]
                    assert certified.modulus == reference_modulus(n, bits)[1] > 2 * bound
                    if bits > start:
                        assert reference_modulus(n, bits // 2)[1] <= 2 * bound

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(2, 300), st.integers(0, 40), st.sampled_from([64, 128, 256]), st.booleans())
    def test_certificate_properties_sampled(self, n, m, start, alternating):
        # M divides Phi_n(2^t) and is prime to 2n, M > 2 bound, and every
        # inverse in the table times its term is 1 modulo M
        certified = fusion._certified_sum(m, n, alternating, start, ("sampled(m={}, n={})", m, n))
        bits = certified.precision_bits
        t, modulus = fusion._modulus(n, bits)
        reference_t, reference = reference_modulus(n, bits)
        assert (t, modulus) == (reference_t, certified.modulus)
        assert cyclotomic_value(n, t) % modulus == 0
        assert math.gcd(modulus, 2 * n) == 1
        assert 2 * certified.bound < modulus
        table_modulus, inverses = _residue_table(n, bits)
        assert table_modulus == modulus and len(inverses) == n // 2
        for j, inverse in enumerate(inverses, start=1):
            term = 2 - pow(2, t * j, modulus) - pow(2, t * (n - j), modulus)
            assert inverse * term % modulus == 1
        exact = twisted_dim(m + 1, 2 * n) if alternating else verlinde_dim(m + 1, n - 2)
        assert certified.value == exact

    def test_residue_outside_the_bound_is_an_error(self, monkeypatch):
        # the genus-one sum at n = 2 is bounded by 1, so a residue of 2 is a wrong proof
        monkeypatch.setattr(fusion, "_sum_residue", lambda m, n, bits, alternating: 2)
        with pytest.raises(CertificationError, match=r"^verlinde\(g=1, k=0\): residue 0x2 at 128 bits exceeds the bound 0x1$"):
            verlinde_trig_oracle(1, 0)

    def test_residue_beyond_the_float_range_is_reported(self, monkeypatch):
        # about 2^1200, past the largest float; the message must not overflow
        monkeypatch.setattr(fusion, "_sum_residue", lambda m, n, bits, alternating: 2**1200 + 1)
        with pytest.raises(CertificationError) as info:
            verlinde_trig_oracle(5, 10)
        # the bound at n = 12, m = 4 is 11 * 6^12
        assert str(info.value) == f"verlinde(g=5, k=10): residue {hex(2**1200 + 1)} at 128 bits exceeds the bound {hex(11 * 6**12)}"

    @pytest.mark.parametrize("g", [*range(1, 9), 24])
    def test_folded_equals_unfolded_oracle(self, g):
        # odd k gives odd n = p/2, where the twisted fold cancels every pair
        for k in range(0, 49) if g <= 8 else (0, 1, 2, 7, 23, 31, 48):
            for folded, unfolded in (
                (verlinde_trig_oracle(g, k), unfolded_verlinde_oracle(g, k)),
                (twisted_trig_oracle(g, 2 * (k + 2)), unfolded_twisted_oracle(g, 2 * (k + 2))),
            ):
                assert folded.value == unfolded.value
                assert 2 * folded.bound < folded.modulus

    def test_fold_covers_each_term_once(self):
        for n in range(2, 40):
            weights = fold_weights(n, False)
            assert len(weights) == len(_residue_table(n, 128)[1]) == n // 2
            # each j < n lands in the folded term min(j, n - j), once
            assert sorted(min(j, n - j) for j in range(1, n)) == [
                j for j, weight in enumerate(weights, start=1) for _ in range(weight)
            ]
            # the alternating sum keeps the sign of j on each folded term
            assert fold_weights(n, True) == [(-1) ** (j + 1) * w for j, w in enumerate(weights, start=1)]
            # the folded, batch-inverted residues are the unfolded ones; the
            # twisted sum at odd n is exactly 0
            for m in (0, 1, 6, 13):
                for alternating in (False, True):
                    expected = unfolded_residue(m, n, 128, alternating)
                    assert _sum_residue(m, n, 128, alternating) == expected, (n, m, alternating)
                    if alternating and n % 2:
                        assert expected == 0

    @pytest.mark.parametrize(
        "oracle, level, message",
        [
            (verlinde_trig_oracle, 10**9, "verlinde(g=2, k=1000000000): the certified sum has 1000000001 terms"),
            (twisted_trig_oracle, 2 * 10**9, "twisted(g=2, p=2000000000): the certified sum has 999999999 terms"),
            (verlinde_trig_oracle, 100_000, "verlinde(g=2, k=100000): the certified sum has 100001 terms"),
            (twisted_trig_oracle, 200_004, "twisted(g=2, p=200004): the certified sum has 100001 terms"),
        ],
        ids=["verlinde", "twisted", "verlinde-first-past", "twisted-first-past"],
    )
    def test_sum_past_the_range_bound_is_refused(self, cold_caches, oracle, level, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, more than 100000$"):
            oracle(2, level)
        # refused before any modulus or table was built
        assert fusion._modulus.cache_info().currsize == fusion._residue_table.cache_info().currsize == 0

    @pytest.mark.parametrize("oracle, level", [(verlinde_trig_oracle, 99_999), (twisted_trig_oracle, 200_002)])
    def test_largest_sum_within_the_range_bound_reaches_the_modulus(self, monkeypatch, oracle, level):
        class ReachedTheModulus(Exception):
            pass

        def reached(n, bits):
            raise ReachedTheModulus(n)

        monkeypatch.setattr(fusion, "_modulus", reached)
        with pytest.raises(ReachedTheModulus, match="^100001$"):
            oracle(2, level)

    def test_tables_not_reused_across_precisions(self, cold_caches):
        assert verlinde_trig_oracle(3, 10, 128).precision_bits == 128
        certified = verlinde_trig_oracle(3, 10, 256)
        assert certified.precision_bits == 256
        coarse, fine = _residue_table(12, 128), _residue_table(12, 256)
        assert certified.modulus == fine[0] > coarse[0] << 100
        assert _residue_table.cache_info().currsize == 2

    def test_caches_are_bounded(self, cold_caches):
        """Every cache of the module, empty after the cold-cache fixture; only
        the value caches, one integer per cell, are unbounded.  A residue
        table holds M and n/2 inverses below it: by sys.getsizeof, about
        1.4 KB at n = 50, Q = 128, and 2.2 MB at n = 1000, Q = 32768, the
        precision of (g, k) = (1000, 1000), where M has 32 868 bits."""
        caches = {name: value for name, value in vars(fusion).items() if hasattr(value, "cache_info")}
        assert {name: cache.cache_info()[2:] for name, cache in caches.items()} == {
            "verlinde_dim": (None, 0),
            "twisted_dim": (None, 0),
            "_power_sum_table": (128, 0),
            "_modulus": (256, 0),
            "_residue_table": (64, 0),
        }
        modulus, inverses = _residue_table(50, 128)
        size = sys.getsizeof((modulus, inverses)) + sys.getsizeof(inverses) + sum(map(sys.getsizeof, (modulus, *inverses)))
        assert 1000 < size < 2000
        # the tables keep the 64 most recently used
        for k in range(80):
            for g in (2, 3):
                assert verlinde_trig_oracle(g, k).value == verlinde_dim(g, k)
        info = _residue_table.cache_info()
        assert info.misses > info.maxsize == info.currsize == 64
        assert verlinde_trig_oracle(4, 79).value == verlinde_dim(4, 79)
        assert _residue_table.cache_info().misses == info.misses
        assert _modulus.cache_info().currsize <= 256

    def test_genus_one_oracle_is_exact(self):
        # at m = 0 the bound is the number of terms, n - 1 = k + 1, the sum itself
        for k in range(0, 65):
            certified = verlinde_trig_oracle(1, k)
            assert certified.value == certified.bound == k + 1

    def test_low_precision_rejected(self):
        with pytest.raises(ValueError):
            verlinde_trig_oracle(2, 2, 32)

    def test_twisted_oracle_at_odd_n_builds_no_bounds(self, cold_caches):
        # at odd n = p/2 every folded pair cancels, so the sum is exactly 0,
        # of bound 0, at the starting precision and with no table
        for g, p, bits in ((1, 6, 128), (3, 102, 128), (2, 10, 256), (400, 806, 64)):
            certified = twisted_trig_oracle(g, p, bits)
            assert (certified.value, certified.bound, certified.precision_bits) == (0, 0, bits)
        assert _residue_table.cache_info().misses == 0
        with pytest.raises(ValueError):
            twisted_trig_oracle(3, 102, 32)


class TestRawIntervalOracle:
    """The modular oracle against the libmpi interval sums."""

    @pytest.mark.parametrize("g", [*range(1, 9), 24])
    def test_certificates_intersect_libmpi(self, g):
        # each certified value lies in the libmpi enclosure that pins the
        # same integer, from 128 bits up
        for k in range(0, 49):
            p = 2 * (k + 2)
            for certified, reference, exact in (
                (
                    verlinde_trig_oracle(g, k),
                    interval_certify(interval_verlinde_evaluate(g, k), 128, "interval verlinde"),
                    verlinde_dim(g, k),
                ),
                (
                    twisted_trig_oracle(g, p),
                    interval_certify(interval_twisted_evaluate(g, p), 128, "interval twisted"),
                    twisted_dim(g, p),
                ),
            ):
                assert certified.value == reference.value == exact
                assert reference.lower <= certified.value <= reference.upper
                assert 2 * certified.bound < certified.modulus

    def test_bound_holds_the_libmpi_sums(self):
        # each sum's 192-bit interval enclosure meets [-bound, bound]: a sum
        # above Jordan's bound would put the whole enclosure above it.  The
        # bound is tight at n = 2, and 0 for the twisted sum at odd n
        for g in (1, 2, 3, 5, 9, 24):
            for k in range(0, 31):
                p = 2 * (k + 2)
                for certified, reference in (
                    (verlinde_trig_oracle(g, k), interval_verlinde_evaluate(g, k)(192)),
                    (twisted_trig_oracle(g, p), interval_twisted_evaluate(g, p)(192)),
                ):
                    lower, upper = interval_fractions(reference)
                    assert lower <= certified.bound and -certified.bound <= upper, (g, k)

    @pytest.mark.parametrize("bits", [64, 256])
    def test_sum_enclosures_contain_libmpi(self, bits):
        # at a fixed precision, certifying or not, each sum's residue class
        # modulo the M of (n, bits) holds the integer its libmpi enclosure pins
        for g in (1, 2, 3, 5, 9):
            for k in range(0, 31):
                m, n = g - 1, k + 2
                modulus = _modulus(n, bits)[1]
                for alternating, evaluate in (
                    (False, interval_verlinde_evaluate(g, k)),
                    (True, interval_twisted_evaluate(g, 2 * n)),
                ):
                    reference = interval_certify(evaluate, 128, "interval sum")
                    residue = _sum_residue(m, n, bits, alternating)
                    assert (residue - reference.value) % modulus == 0, (g, k, alternating)

    @pytest.mark.parametrize("g, bits", [(300, 4096), (400, 8192)])
    def test_walk_builds_one_table_at_high_genus(self, g, bits, cold_caches):
        # the walk doubles on the modulus alone and builds only the table of
        # the precision that certifies; the twisted sum at even n = 42 reads it
        for oracle, level, exact in ((verlinde_trig_oracle, 40, verlinde_dim), (twisted_trig_oracle, 84, twisted_dim)):
            certified = oracle(g, level)
            assert (certified.value, certified.precision_bits) == (exact(g, level), bits)
        info = _residue_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_invalid_precisions_rejected_before_the_skip(self):
        with pytest.raises(ValueError):
            verlinde_trig_oracle(400, 40, 32)
        with pytest.raises(ValueError):
            twisted_trig_oracle(400, 84, 63)
