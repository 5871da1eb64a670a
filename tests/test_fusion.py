from fractions import Fraction
from functools import cache

import pytest

from spinverlinde import fusion
from spinverlinde.fusion import (
    CertificationError,
    PrecisionCeilingError,
    _certify,
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
        monkeypatch.setattr(fusion, "_csc_power_sum", lambda m, n: Fraction(1, 3))
        with pytest.raises(ArithmeticError, match=r"verlinde_dim\(g=2, k=1\)"):
            verlinde_dim.__wrapped__(2, 1)
        with pytest.raises(ArithmeticError, match=r"twisted_dim\(g=2, p=8\)"):
            twisted_dim.__wrapped__(2, 8)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            verlinde_dim(0, 2)
        with pytest.raises(ValueError):
            verlinde_dim(2, -1)


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

    def test_precision_ceiling_error(self):
        with pytest.raises(PrecisionCeilingError):
            verlinde_trig_oracle(12, 40, 64, 64)

    def test_certifies_at_parameter_envelope(self):
        # the default ceiling must suffice out to g = 20, k = 200
        certified = verlinde_trig_oracle(20, 200)
        assert certified.precision_bits <= 4096
        assert certified.width < Fraction(1, 2)

    def test_unbounded_enclosure_never_certifies(self):
        # [-inf, +inf] is not tight at any precision; it must not read as [0, 0]
        with pytest.raises(PrecisionCeilingError, match="inf"):
            _certify(lambda ctx: ctx.mpf([float("-inf"), float("inf")]), 128, 512, "probe")
        with pytest.raises(PrecisionCeilingError):
            _certify(lambda ctx: ctx.mpf([0, float("inf")]), 128, 512, "probe")

    def test_non_finite_enclosure_triggers_doubling(self):
        def evaluate(ctx):
            return ctx.mpf(5) if ctx.prec >= 512 else ctx.mpf([float("nan"), float("nan")])

        certified = _certify(evaluate, 128, 4096, "probe")
        assert (certified.value, certified.precision_bits) == (5, 512)

    def test_ceiling_error_is_certification_error(self):
        assert issubclass(PrecisionCeilingError, CertificationError)

    def test_low_precision_rejected(self):
        with pytest.raises(ValueError):
            verlinde_trig_oracle(2, 2, 32)
