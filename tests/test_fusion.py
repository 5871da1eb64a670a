import math
import random
import re
import sys
import threading
import time
from fractions import Fraction
from functools import cache, lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import fone, from_int, fzero, mpf_pi, round_ceiling, round_floor
from mpmath.libmp.libmpi import (
    mpi_add,
    mpi_cos_sin,
    mpi_div,
    mpi_mul,
    mpi_pow_int,
    mpi_shift,
    mpi_sin,
    mpi_sub,
)

from spinverlinde import fusion
from spinverlinde.fusion import (
    DEFAULT_PRECISION_BITS,
    CertificationError,
    CertifiedInteger,
    _csc_square_bounds,
    _exp_i_ball,
    _extend_power_sums,
    _pi_ball,
    _power_row,
    _power_sum_table,
    _PowerSumTable,
    _scaled_power_sum,
    _sine_balls,
    _sum_enclosure,
    _unit_root_ball,
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
# rational csc power-sum oracle: the recurrence of Zagier (1996) in Fraction
# arithmetic, one pass per call; production runs it in integers on one table per n


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


def table_power_sum(m, n):
    """p_m(n) as the production table gives it, scale^m p_m(n) over scale^m."""
    return Fraction(_scaled_power_sum(m, n), (n if n % 2 else 2 * n) ** m)


# ---------------------------------------------------------------------------
# per-term rounded powers: the oracle's sums before its power rows, with a
# binary powering chain for each bound of each folded term


def scaled_power(x, m, bits, up):
    """(x 2^-bits)^m at scale 2^bits, for x >= 0, with every product rounded
    down, or up if ``up``."""
    result = 1 << bits
    for bit in bin(m)[2:]:
        result *= result
        result = -(-result >> bits) if up else result >> bits
        if bit == "1":
            result *= x
            result = -(-result >> bits) if up else result >> bits
    return result


@lru_cache(maxsize=1)
def per_term_powers(m, n, bits, fine_bits):
    """[(low, high)]: each folded term's rounded powers, one chain each; the
    last call is kept, for the other sum."""
    shift = fine_bits - bits
    return [
        (scaled_power(lo << shift, m, fine_bits, up=False), scaled_power(hi << shift, m, fine_bits, up=True))
        for lo, hi in zip(*_csc_square_bounds(n, bits))
    ]


def fold_weights(n, alternating):
    """The signed weight of each folded term 1 <= j <= n/2 of the sum over j < n.

    csc^2(pi j / n) = csc^2(pi (n - j) / n), so j and n - j are one term of
    weight 2; the middle j = n/2 of an even n is its own mirror, weight 1.
    In the alternating sum, at even n, a term keeps the sign (-1)^{j+1} of j.
    """
    return [(1 if 2 * j == n else 2) * (-1 if alternating and j % 2 == 0 else 1) for j in range(1, n // 2 + 1)]


def folded_enclosure(m, n, bits, alternating, powers):
    """The enclosure of the sum at scale 2^bits from the rounded powers
    [(low, high)] of its folded terms at the oracle's finer scale, weighted
    one term at a time: the oracle of ``_sum_enclosure``'s slice sums."""
    lower = upper = 0
    for weight, (low, high) in zip(fold_weights(n, alternating), powers, strict=True):
        lower += weight * (low if weight > 0 else high)
        upper += weight * (high if weight > 0 else low)
    shift = m + 2 * n.bit_length() + 4
    return n**m * lower >> shift, -(-(n**m) * upper >> shift)


def per_term_sum_enclosure(m, n, bits, alternating):
    """``_sum_enclosure`` from the same bounds, folded here, one chain per power."""
    if alternating and n % 2:
        return 0, 0
    if _csc_square_bounds(n, bits) is None:
        return None
    fine_bits = bits + 2 * n.bit_length() + 4
    return folded_enclosure(m, n, bits, alternating, per_term_powers(m, n, bits, fine_bits))


# ---------------------------------------------------------------------------
# mpmath interval arithmetic, the route production took before its integer
# oracle: outward-rounded libmpi operations on raw endpoint pairs, and the
# doubling loop on them; the oracles below are its sums


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
            return CertifiedInteger(math.ceil(lower), lower, upper, prec)
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
# folded interval oracle: the production oracle before its integer route,
# csc^2 enclosed per folded term and cached per (n, prec); the integer
# enclosures must intersect these and hold what these hold


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
        # every scaled power sum reads 1: 1/2 at (2, 1) and -3/4 at (2, 8)
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
        for n in range(2 if parity == "even" else 3, 151, 2):
            assert [table_power_sum(m, n) for m in range(41)] == fraction_power_sums(40, n)

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

    def test_growth_replaces_rows_and_keeps_the_prefix(self):
        table = _PowerSumTable(40)
        table.scaled_sum(10)
        before = table._rows
        table.scaled_sum(30)
        assert table._rows is not before
        assert table._rows[0][:11] == before[0] and table._rows[1][:11] == before[1]
        table.scaled_sum(20)
        assert table._rows[1][:31] == table._rows[1]

    def test_concurrent_growth_never_shows_a_partial_table(self):
        top = 120
        expected = [_PowerSumTable(50).scaled_sum(m) for m in range(top + 1)]
        table, bad = _PowerSumTable(50), []

        def reader(seed):
            order = list(range(top + 1))
            random.Random(seed).shuffle(order)
            for m in order:
                if table.scaled_sum(m) != expected[m]:
                    bad.append(("value", m))
                coefficients, sums = table._rows
                if len(coefficients) != len(sums) or list(sums) != expected[: len(sums)]:
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

    def test_unscaled_even_coefficients_are_not_integral(self):
        # scale = n for even n fails: C_2 at n = 6 is 5670/20
        with pytest.raises(ArithmeticError, match=r"n=6: .* r=2 is 5670/20, not an integer"):
            _extend_power_sums(6, 6, (1,), (5,), 3)
        # the production scale 2n is integral there
        sums = _extend_power_sums(6, 12, (1,), (5,), 3)[1]
        assert list(sums) == [12**m * p for m, p in enumerate(fraction_power_sums(3, 6))]


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
        # spot cells against the rational recurrence: dim(g, 100) = 51^{g-1} p_{g-1}(102)
        for g in (2, 17, 64, 200):
            assert values[g] == 51 ** (g - 1) * fraction_power_sum(g - 1, 102)
        assert all(isinstance(v, int) and v > 0 for v in values.values())


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
        assert certified.width < Fraction(1, 10**30)
        assert certified.lower <= 10 <= certified.upper

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
        # at 128 starting bits the enclosure is wider than 1/2 and the
        # oracle must retry before certifying
        certified = verlinde_trig_oracle(12, 40, 128)
        assert certified.precision_bits > 128
        assert certified.value == verlinde_dim(12, 40)

    def test_certifies_at_parameter_envelope(self):
        # g = 20, k = 200 certifies within 4096 bits
        certified = verlinde_trig_oracle(20, 200)
        assert certified.precision_bits <= 4096
        assert certified.width < Fraction(1, 2)

    # the probes stand in for the sums at n = 42, where the walk tries 128
    # bits and then 256, the first doubling at or above its 138-bit stop

    def test_unbounded_enclosure_never_certifies(self, monkeypatch):
        tried = []

        def unit_wide(m, n, bits, alternating):
            tried.append(bits)
            return 0, 1 << bits

        # an enclosure one unit wide at every precision never narrows below
        # 1/2; the walk raises instead of doubling for ever
        monkeypatch.setattr(fusion, "_sum_enclosure", unit_wide)
        stop = "no certificate at 256 bits, though the enclosure is proved narrower than 1/2 from 138 bits on"
        with pytest.raises(CertificationError, match=stop):
            verlinde_trig_oracle(12, 40)
        assert tried == [128, 256]
        tried.clear()
        with pytest.raises(CertificationError, match=stop):
            twisted_trig_oracle(12, 84, 64)
        assert tried == [128, 256]
        # where the enclosure is exact (m = 0) the first attempt is the last
        tried.clear()
        with pytest.raises(CertificationError, match="no certificate at 128 bits"):
            verlinde_trig_oracle(1, 0)
        assert tried == [128]

    @pytest.mark.parametrize("g", [1, 2, 3, 5, 12, 40, 120])
    def test_walk_stops_only_where_the_sum_certifies(self, g, monkeypatch):
        # the stop rule's upper bound: at the precision where a walk over
        # enclosures one unit wide gives up, the honest enclosure is narrower
        # than 1/2, n = 2 and the odd-n twisted sums included
        honest = fusion._sum_enclosure
        tried = []

        def unit_wide(m, n, bits, alternating):
            tried.append(bits)
            return 0, 1 << bits

        monkeypatch.setattr(fusion, "_sum_enclosure", unit_wide)
        for k in (0, 1, 2, 3, 10, 40, 101):
            for oracle, level, alternating in (
                (verlinde_trig_oracle, k, False),
                (twisted_trig_oracle, 2 * (k + 2), True),
            ):
                tried.clear()
                with pytest.raises(CertificationError, match="no certificate at"):
                    oracle(g, level)
                lower, upper = honest(g - 1, k + 2, tried[-1], alternating)
                assert 2 * (upper - lower) < 1 << tried[-1], (g, level)

    def test_non_finite_enclosure_triggers_doubling(self, monkeypatch):
        def probe(m, n, bits, alternating):
            return (5 << bits, 5 << bits) if bits >= 256 else (0, 1 << bits)

        monkeypatch.setattr(fusion, "_sum_enclosure", probe)
        certified = verlinde_trig_oracle(12, 40)
        assert (certified.value, certified.precision_bits) == (5, 256)

    def test_enclosure_without_an_integer_is_an_error(self, monkeypatch):
        monkeypatch.setattr(fusion, "_sum_enclosure", lambda m, n, bits, alternating: (1, 2))
        with pytest.raises(CertificationError, match=r"\[0x1, 0x2\] \* 2\^-128 contains no integer"):
            verlinde_trig_oracle(1, 0)

    def test_enclosure_beyond_the_float_range_is_reported(self, monkeypatch):
        # about 2^1200, past the largest float; the message must not overflow
        monkeypatch.setattr(
            fusion, "_sum_enclosure", lambda m, n, bits, alternating: ((2**1200 << bits) + 1, (2**1200 << bits) + 2)
        )
        with pytest.raises(CertificationError) as info:
            verlinde_trig_oracle(5, 10)
        lower, upper = hex((2**1200 << 128) + 1), hex((2**1200 << 128) + 2)
        assert str(info.value) == f"verlinde(g=5, k=10): enclosure [{lower}, {upper}] * 2^-128 contains no integer"

    @pytest.mark.parametrize("g", [*range(1, 9), 24])
    def test_folded_equals_unfolded_oracle(self, g):
        # odd k gives odd n = p/2, where the twisted fold cancels every pair
        for k in range(0, 49) if g <= 8 else (0, 1, 2, 7, 23, 31, 48):
            for folded, unfolded in (
                (verlinde_trig_oracle(g, k), unfolded_verlinde_oracle(g, k)),
                (twisted_trig_oracle(g, 2 * (k + 2)), unfolded_twisted_oracle(g, 2 * (k + 2))),
            ):
                assert folded.value == unfolded.value
                assert folded.width < Fraction(1, 2)
                assert folded.precision_bits <= unfolded.precision_bits

    def test_fold_covers_each_term_once(self):
        for n in range(2, 40):
            los, his = _csc_square_bounds(n, 128)
            assert len(los) == len(his) == n // 2
            # each j < n lands in the folded term min(j, n - j), once
            weights = fold_weights(n, False)
            assert sorted(min(j, n - j) for j in range(1, n)) == [
                j for j, weight in enumerate(weights, start=1) for _ in range(weight)
            ]
            # the alternating sum keeps the sign of j on each folded term
            assert fold_weights(n, True) == [(-1) ** (j + 1) * w for j, w in enumerate(weights, start=1)]
            # the slice sums of a row are its weighted sums; the twisted sum
            # at odd n is exactly 0
            for m in (0, 1, 6, 13):
                for alternating in (False, True):
                    expected = (
                        (0, 0)
                        if alternating and n % 2
                        else folded_enclosure(m, n, 128, alternating, zip(*_power_row(n, 128, m)))
                    )
                    assert _sum_enclosure(m, n, 128, alternating) == expected, (n, m, alternating)

    def test_enclosures_not_reused_across_precisions(self):
        assert verlinde_trig_oracle(3, 10, 128).precision_bits == 128
        certified = verlinde_trig_oracle(3, 10, 256)
        assert certified.precision_bits == 256
        assert certified.width < Fraction(1, 2**200)
        coarse = _csc_square_bounds(12, 128)
        fine = _csc_square_bounds(12, 256)
        # (hi - lo) 2^-256 < (hi - lo) 2^-128, term by term
        assert all(fh - fl < (ch - cl) << 128 for (cl, ch), (fl, fh) in zip(zip(*coarse), zip(*fine)))

    def test_caches_are_bounded(self, cold_caches):
        # every cache of the module, empty after the cold-cache fixture; only
        # the value caches, one integer per cell, are unbounded
        caches = {name: value for name, value in vars(fusion).items() if hasattr(value, "cache_info")}
        assert {name: cache.cache_info()[2:] for name, cache in caches.items()} == {
            "verlinde_dim": (None, 0),
            "twisted_dim": (None, 0),
            "_power_sum_table": (128, 0),
            "_pi_ball": (32, 0),
            "_csc_square_bounds": (256, 0),
            "_power_row": (64, 0),
        }
        # the power rows keep the 64 most recently used of the more walked
        for k in range(12):
            for g in range(2, k + 3):
                assert verlinde_trig_oracle(g, k).value == verlinde_dim(g, k)
        info = _power_row.cache_info()
        assert info.misses > info.maxsize == info.currsize == 64
        # the last cell's rows, its prefixes included, are among them
        assert verlinde_trig_oracle(13, 11).value == verlinde_dim(13, 11)
        assert _power_row.cache_info().misses == info.misses

    def test_genus_one_oracle_is_exact(self):
        # csc2^0 = 1 exactly, so the sum of the fold weights is exact
        for k in range(0, 65):
            assert verlinde_trig_oracle(1, k).width == 0

    def test_low_precision_rejected(self):
        with pytest.raises(ValueError):
            verlinde_trig_oracle(2, 2, 32)

    def test_twisted_oracle_at_odd_n_builds_no_bounds(self, cold_caches):
        # at odd n = p/2 every folded pair cancels, so the sum is exactly 0
        for g, p, bits in ((1, 6, 128), (3, 102, 128), (2, 10, 256), (400, 806, 64)):
            certified = twisted_trig_oracle(g, p, bits)
            assert (certified.value, certified.width, certified.precision_bits) == (0, 0, bits)
        assert _csc_square_bounds.cache_info().misses == 0
        assert _power_row.cache_info().currsize == 0
        with pytest.raises(ValueError):
            twisted_trig_oracle(3, 102, 32)


class TestRawIntervalOracle:
    """The integer oracle against the libmpi interval route it replaced."""

    @pytest.mark.parametrize("prec", [64, 128, 256, 512])
    def test_bounds_contain_libmpi_intervals(self, prec):
        # every [lo, hi] 2^-prec holds the (2 prec + 64)-bit interval enclosure
        scale = 1 << prec
        for n in range(2, 41):
            bounds = _csc_square_bounds(n, prec)
            reference = interval_csc_squares(n, 2 * prec + 64)
            assert fold_weights(n, False) == [weight for weight, _ in reference]
            for lo, hi, (_, csc2) in zip(*bounds, reference):
                ref_lo, ref_hi = interval_fractions(csc2)
                assert Fraction(lo, scale) <= ref_lo and ref_hi <= Fraction(hi, scale)

    @pytest.mark.parametrize("g", [*range(1, 9), 24])
    def test_certificates_intersect_libmpi(self, g):
        # the interval route tries every precision from 128 bits up, so a
        # precision no higher than its own also shows that the skip rule never
        # passes a precision that would certify
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
                assert certified.lower <= reference.upper and reference.lower <= certified.upper
                assert certified.lower <= exact <= certified.upper
                assert reference.lower <= exact <= reference.upper
                assert certified.precision_bits <= reference.precision_bits

    @pytest.mark.parametrize("bits", [64, 256])
    def test_sum_enclosures_contain_libmpi(self, bits):
        # at a fixed precision, certifying or not, each sum's [L, U] 2^-bits
        # holds its (2 bits + 64)-bit interval enclosure
        scale = 1 << bits
        prec = 2 * bits + 64
        for g in (1, 2, 3, 5, 9):
            for k in range(0, 31):
                p = 2 * (k + 2)
                for enclosure, reference in (
                    (_sum_enclosure(g - 1, k + 2, bits, False), interval_verlinde_evaluate(g, k)(prec)),
                    (_sum_enclosure(g - 1, k + 2, bits, True), interval_twisted_evaluate(g, p)(prec)),
                ):
                    ref_lo, ref_hi = interval_fractions(reference)
                    assert Fraction(enclosure[0], scale) <= ref_lo
                    assert ref_hi <= Fraction(enclosure[1], scale)

    def test_skipped_precisions_cannot_certify(self, monkeypatch):
        honest = fusion._sum_enclosure
        calls = []

        def recording(m, n, bits, alternating):
            calls.append((m, n, bits, alternating))
            return honest(m, n, bits, alternating)

        monkeypatch.setattr(fusion, "_sum_enclosure", recording)
        skipped = {verlinde_trig_oracle: 0, twisted_trig_oracle: 0}
        for g in (2, 5, 9, 12, 17, 24, 33, 48, 64, 90, 120):
            for k in (1, 2, 5, 16, 40, 100):
                for oracle, level in ((verlinde_trig_oracle, k), (twisted_trig_oracle, 2 * (k + 2))):
                    calls.clear()
                    certified = oracle(g, level)
                    # the walk doubles from its first attempt, start, to the one that certifies
                    (m, n, start, alternating), *_ = calls
                    assert [bits for _, _, bits, _ in calls] == [start << i for i in range(len(calls))]
                    assert certified.precision_bits == calls[-1][2]
                    # every precision the walk skipped is one at which the sum cannot certify
                    prec = DEFAULT_PRECISION_BITS
                    while prec < start:
                        lower, upper = honest(m, n, prec, alternating)
                        assert 2 * (upper - lower) >= 1 << prec
                        prec *= 2
                        skipped[oracle] += 1
        assert all(skipped.values())

    @pytest.mark.parametrize("g, bits", [(300, 4096), (400, 8192)])
    def test_skip_reaches_high_genus_without_interval_work(self, g, bits, monkeypatch):
        # bounds of 3553 and 4741 bits: the walk skips straight to the
        # precision that certifies, with one enclosure and no other
        honest = fusion._sum_enclosure
        tried = []

        def recording(m, n, bits, alternating):
            tried.append(bits)
            return honest(m, n, bits, alternating)

        monkeypatch.setattr(fusion, "_sum_enclosure", recording)
        # the twisted sum at even n = 42 has the same bound
        for oracle, level, exact in ((verlinde_trig_oracle, 40, verlinde_dim), (twisted_trig_oracle, 84, twisted_dim)):
            tried.clear()
            certified = oracle(g, level)
            assert (certified.value, certified.precision_bits, tried) == (exact(g, level), bits, [bits])

    def test_invalid_precisions_rejected_before_the_skip(self):
        with pytest.raises(ValueError):
            verlinde_trig_oracle(400, 40, 32)
        with pytest.raises(ValueError):
            twisted_trig_oracle(400, 84, 63)


PRECISIONS = [64 << i for i in range(7)]


@pytest.fixture
def isolated_rows():
    """Empty the power rows before and after the test, so that rows built
    from fake bounds never reach another test."""
    _power_row.cache_clear()
    yield
    _power_row.cache_clear()


class TestFixedPointBounds:
    """The integer sine balls and csc^2 bounds, and the directed roundings of the sums."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 50, 51, 1000])
    def test_sine_balls_contain_the_sines(self, n):
        # 4200 bits is where the series behind e^{i pi/n} are longest; there the
        # reference sines of n = 1000 take seconds, so every 25th j and the last
        for scale_bits in (80, 4200):
            balls = list(_sine_balls(n, scale_bits))
            stride = 25 if n * scale_bits > 10**6 else 1
            for j in {*range(1, len(balls) + 1, stride), len(balls)}:
                y, rho = balls[j - 1]
                sine = mpi_shift(interval_sine(j, n, 2 * scale_bits + 64), scale_bits)
                ref_lo, ref_hi = interval_fractions(sine)
                assert y - rho <= ref_lo and ref_hi <= y + rho, (n, j, scale_bits)
            assert all(0 < rho <= 3 * j for j, (_, rho) in enumerate(balls, start=1))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        # a case costs about n bits^1.5, so higher precisions draw smaller n
        st.sampled_from(PRECISIONS).flatmap(
            lambda bits: st.tuples(st.integers(2, min(5000, (1 << 20) // bits)), st.just(bits))
        ),
        st.data(),
    )
    def test_sampled_bounds_contain_libmpi_enclosures(self, case, data):
        n, bits = case
        los, his = _csc_square_bounds.__wrapped__(n, bits)
        assert all(0 < hi - lo <= 2 for lo, hi in zip(los, his))
        prec = 2 * bits + 64
        scale = 1 << bits
        for j in data.draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=6)):
            lo, hi = los[j - 1], his[j - 1]
            ref_lo, ref_hi = interval_fractions(mpi_pow_int(interval_sine(j, n, prec), -2, prec))
            assert Fraction(lo, scale) <= ref_lo and ref_hi <= Fraction(hi, scale), (n, j, bits)

    @pytest.mark.parametrize("n", [2**16 - 1, 2**16])
    def test_guard_keeps_the_largest_levels_tight(self, n):
        # the guard's bound on hi - lo does not depend on the precision, so the
        # cheapest one shows it
        assert max(hi - lo for lo, hi in zip(*_csc_square_bounds.__wrapped__(n, 64))) <= 2

    @pytest.mark.parametrize("y", [3, 2], ids=["y-equals-rho", "y-below-rho"])
    def test_sine_ball_reaching_zero_is_an_error(self, monkeypatch, y):
        # the guard keeps every y above rho; a ball that may reach 0 bounds no
        # csc^2, and the error names the level, the precision and the index
        monkeypatch.setattr(fusion, "_sine_balls", lambda n, scale_bits: iter([(1 << scale_bits, 1), (y, 3)]))
        message = "csc^2 bounds at n=5, 64 bits: the sine ball of j=2 may reach 0"
        with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
            _csc_square_bounds.__wrapped__(5, 64)

    def test_rounded_powers_bracket_the_exact_power(self, monkeypatch, isolated_rows):
        # the power rows of the one term x at n = 3 and 64 bits, walked at
        # 72 bits, are the chains
        for x in (0, 1, 2**64 - 1, 2**64, 3 * 2**70 + 12345, 7**40):
            _power_row.cache_clear()
            monkeypatch.setattr(fusion, "_csc_square_bounds", lambda n, bits: ((x,), (x,)))
            for m in range(0, 40):
                exact = Fraction(x**m, 2 ** (64 * (m - 1))) if m else Fraction(2**64)
                low = scaled_power(x, m, 64, up=False)
                high = scaled_power(x, m, 64, up=True)
                assert low <= exact <= high
                # a rounding costs one unit, scaled by the later factors' size
                assert high - low <= 2 * m * (1 + (high >> 64))
                chains = [scaled_power(x << 8, m, 72, up=False)], [scaled_power(x << 8, m, 72, up=True)]
                assert _power_row(3, 64, m) == chains

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 50, 51, 1000])
    def test_power_rows_equal_the_per_term_chains(self, n, cold_caches):
        # in a shuffled order of m, a row is built on prefix rows kept from
        # earlier rows, or walked anew down to m = 0
        for bits in (64, 128, 512):
            order = list(range(65))
            random.Random(bits + n).shuffle(order)
            for m in order:
                for alternating in (False, True):
                    expected = per_term_sum_enclosure(m, n, bits, alternating)
                    assert _sum_enclosure(m, n, bits, alternating) == expected, (m, bits, alternating)

    def test_concurrent_rows_stay_exact_and_bounded(self, cold_caches):
        # 120 rows at three levels, more than the cache keeps, asked for by
        # eight threads in their own orders
        cases = [(m, n) for n in (12, 13, 50) for m in range(40)]
        expected = {case: per_term_sum_enclosure(*case, 128, False) for case in cases}
        bad = []

        def worker(seed):
            order = cases[:]
            random.Random(seed).shuffle(order)
            for m, n in order:
                if _sum_enclosure(m, n, 128, False) != expected[m, n]:
                    bad.append((m, n))
                if _power_row.cache_info().currsize > 64:
                    bad.append(("size", _power_row.cache_info().currsize))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []

    def test_high_genus_cells_share_prefix_rows(self, cold_caches):
        # g 100..120 at k 100 certify at one precision, so each distinct
        # prefix m >> s of m = 99..119, 0 included, is walked once
        for g in range(100, 121):
            assert verlinde_trig_oracle(g, 100).precision_bits == 2048
        prefixes = {m >> s for m in range(99, 120) for s in range(m.bit_length() + 1)}
        assert _power_row.cache_info().misses == len(prefixes) == 46
        for m in (99, 119):
            assert _sum_enclosure(m, 102, 2048, False) == per_term_sum_enclosure(m, 102, 2048, False)

    @pytest.mark.parametrize("large", [False, True])
    def test_sum_roundings_are_outward(self, monkeypatch, isolated_rows, large):
        # point bounds lo = hi leave only the roundings of the powers and of
        # the prefactor, which must still enclose the exact sum
        bits = 64
        for n in (3, 4, 7, 12):
            values = tuple(
                ((2 * j + 3) ** 3 << bits) + 1 if large else (1 << bits) + (2 * j + 1) * 12345
                for j in range(1, n // 2 + 1)
            )
            monkeypatch.setattr(fusion, "_csc_square_bounds", lambda n_, bits_: (values, values))
            for m in (1, 2, 5, 9):
                for alternating in (False, True):
                    lower, upper = _sum_enclosure(m, n, bits, alternating)
                    sign = [(-1) ** (j + 1) if alternating else 1 for j in range(n)]
                    exact = Fraction(n, 2) ** m * sum(
                        (sign[j] + (2 * j != n) * sign[n - j]) * Fraction(x, 1 << bits) ** m
                        for j, x in enumerate(values, start=1)
                    )
                    assert Fraction(lower, 1 << bits) <= exact <= Fraction(upper, 1 << bits)


# past 4096 bits, where high-genus cells certify, and the series run some
# guard bits above the oracle's precision
SERIES_BITS = [1, 64, 80, 1000, 4200, 8300]
SERIES_LEVELS = [2, 3, 4, 7, 50, 51, 1000, 2**16]


def disc_holds(c, s, r, cos_sin, bits):
    """Whether the disc of centre (c + i s) 2^-bits and radius r 2^-bits holds
    the box of a raw ``mpi_cos_sin`` result."""
    scale = 1 << bits
    (cos_lo, cos_hi), (sin_lo, sin_hi) = (interval_fractions(part) for part in cos_sin)
    dx = max(abs(c - cos_lo * scale), abs(c - cos_hi * scale))
    dy = max(abs(s - sin_lo * scale), abs(s - sin_hi * scale))
    return dx * dx + dy * dy <= r * r


class TestSeriesBalls:
    """The integer series for pi and e^{iu} against mpmath's."""

    @pytest.mark.parametrize("bits", SERIES_BITS)
    def test_pi_ball_holds_mpmath_pi(self, bits):
        p, r = _pi_ball(bits)
        prec = bits + 64
        lower = math.floor(endpoint_fraction(mpf_pi(prec, round_floor)) * 2**bits)
        upper = math.ceil(endpoint_fraction(mpf_pi(prec, round_ceiling)) * 2**bits)
        assert p - r <= lower and upper <= p + r
        # the bound the guard of _unit_root_ball relies on
        assert 10 * r < 43 * bits + 400

    @pytest.mark.parametrize("bits", SERIES_BITS)
    def test_exp_i_ball_holds_mpmath_cos_sin(self, bits):
        prec = 2 * bits + 64
        p, _ = _pi_ball(bits)
        for n in SERIES_LEVELS:
            u = p // n
            angle = mpi_shift(int_interval(u, prec), -bits)
            c, s, r = _exp_i_ball(u, bits)
            assert disc_holds(c, s, r, mpi_cos_sin(angle, prec), bits), n
            assert r <= 3 * max(bits, 9) + 6

    @pytest.mark.parametrize("bits", SERIES_BITS)
    def test_unit_root_ball_holds_mpmath_cos_sin(self, bits):
        prec = 2 * bits + 64
        pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
        for n in SERIES_LEVELS:
            c, s, r_w = _unit_root_ball(n, bits)
            angle = mpi_div(pi, int_interval(n, prec), prec)
            assert disc_holds(c, s, r_w, mpi_cos_sin(angle, prec), bits), n
            assert 0 < r_w <= 2
