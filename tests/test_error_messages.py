"""Every error message of ``dimensions`` and of the ``fusion`` labels, pinned
byte for byte: each test matches the whole text, anchored at both ends."""

import re

import pytest

from spinverlinde import dimensions, fusion
from spinverlinde.dimensions import (
    IdentityViolationError,
    IntegralityError,
    bm_even_dim,
    bm_odd_dim,
    corollary_dims,
    dims_via_traces,
    sum_over_spin,
)
from spinverlinde.fusion import CertificationError, twisted_trig_oracle, verlinde_trig_oracle

GENUS_ONE = "genus 1 sits outside the moduli-space derivation; pass allow_genus_one=True to extrapolate"


def raises_exactly(error, message):
    return pytest.raises(error, match=rf"\A{re.escape(message)}\Z")


@pytest.mark.parametrize(
    "call, message",
    [
        ((bm_even_dim, 0, 8, 0), "bm_even_dim(g=0, p=8, eps=0): genus must be a positive integer, got 0"),
        ((bm_even_dim, 1, 8, 0), f"bm_even_dim(g=1, p=8, eps=0): {GENUS_ONE}"),
        ((bm_even_dim, 2, 12, 0), "bm_even_dim(g=2, p=12, eps=0): level must be a positive multiple of 8, got 12"),
        ((bm_even_dim, 2, -8, 0), "bm_even_dim(g=2, p=-8, eps=0): level must be a positive multiple of 8, got -8"),
        ((bm_even_dim, 2, 8, 2), "bm_even_dim(g=2, p=8, eps=2): eps must be 0 or 1, got 2"),
        # a bit that is not an int is refused by the int rule, with no context
        ((bm_even_dim, 2, 8, "1"), "eps values are integers, got str '1'"),
        # genus, then level, then eps: the first invalid argument is named
        ((bm_odd_dim, -1, 12, 3), "bm_odd_dim(g=-1, p=12, eps=3): genus must be a positive integer, got -1"),
        ((bm_odd_dim, 1, 12, 3), f"bm_odd_dim(g=1, p=12, eps=3): {GENUS_ONE}"),
        ((bm_odd_dim, 2, 12, 3), "bm_odd_dim(g=2, p=12, eps=3): level must be a positive multiple of 8, got 12"),
        ((bm_odd_dim, 2, 0, 3), "bm_odd_dim(g=2, p=0, eps=3): level must be a positive multiple of 8, got 0"),
        ((bm_odd_dim, 2, 8, 3), "bm_odd_dim(g=2, p=8, eps=3): eps must be 0 or 1, got 3"),
        ((sum_over_spin, 0, 8), "sum_over_spin(g=0, p=8): genus must be a positive integer, got 0"),
        ((sum_over_spin, 1, 20), f"sum_over_spin(g=1, p=20): {GENUS_ONE}"),
        ((sum_over_spin, 2, 20), "sum_over_spin(g=2, p=20): level must be a positive multiple of 8, got 20"),
        (
            (corollary_dims, 0, 1, 2),
            "corollary_dims(g=0, k=1, eps=2, convention='bm'): genus must be a positive integer, got 0",
        ),
        ((corollary_dims, 1, 1, 0), f"corollary_dims(g=1, k=1, eps=0, convention='bm'): {GENUS_ONE}"),
        ((corollary_dims, 2, 1, 2), "corollary_dims(g=2, k=1, eps=2, convention='bm'): eps must be 0 or 1, got 2"),
        (
            (dims_via_traces, 0, 5, 10, 1, 0),
            "dims_via_traces(g=0, eps=5, base_dim=10, lambda_rho=1, w2=0): genus must be a positive integer, got 0",
        ),
        (
            (dims_via_traces, 1, 0, 10, 1, 0),
            f"dims_via_traces(g=1, eps=0, base_dim=10, lambda_rho=1, w2=0): {GENUS_ONE}",
        ),
        (
            (dims_via_traces, 2, 5, 10, 1, -1),
            "dims_via_traces(g=2, eps=5, base_dim=10, lambda_rho=1, w2=-1): eps must be 0 or 1, got 5",
        ),
        (
            (dims_via_traces, 2, 0, 10, 1, -1),
            "dims_via_traces(g=2, eps=0, base_dim=10, lambda_rho=1, w2=-1): w2 must be 0 or 1, got -1",
        ),
    ],
)
def test_validation_errors(call, message):
    function, *arguments = call
    # the int rule refuses with TypeError, every other rule with ValueError
    error = TypeError if " are integers, got " in message else ValueError
    with raises_exactly(error, message):
        function(*arguments)


def test_corollary_convention_is_shown_as_repr():
    with raises_exactly(
        ValueError, "corollary_dims(g=1, k=2, eps=0, convention='corollary'): " + GENUS_ONE
    ):
        corollary_dims(1, 2, 0, convention="corollary")


class TestIntegralityErrors:
    """A base dimension off by one makes the numerator non-divisible; the
    message names the base dimension the formula read."""

    @pytest.fixture
    def base_off_by_one(self, monkeypatch):
        monkeypatch.setattr(dimensions, "verlinde_dim", lambda g, k: fusion.verlinde_dim(g, k) + 1)

    @pytest.fixture
    def twisted_base_off_by_one(self, monkeypatch):
        monkeypatch.setattr(dimensions, "twisted_dim", lambda g, p: fusion.twisted_dim(g, p) + 1)

    def test_even(self, base_off_by_one):
        # 10 + 1 + (8/4)^1 (2^2 - 1) = 17, and 96832 + 1 - 8^2 (2^3 + 1) = 96257
        with raises_exactly(
            IntegralityError, "bm_even_dim(g=2, p=8, eps=0) [base dim 11]: numerator 17 is not divisible by 2^4"
        ):
            bm_even_dim(2, 8, 0)
        with raises_exactly(
            IntegralityError, "bm_even_dim(g=3, p=32, eps=1) [base dim 96833]: numerator 96257 is not divisible by 2^6"
        ):
            bm_even_dim(3, 32, 1)

    def test_odd(self, twisted_base_off_by_one):
        # 6 + 1 - 2 (2^2 - 1) = 1
        with raises_exactly(
            IntegralityError, "bm_odd_dim(g=2, p=8, eps=0) [twisted base dim 7]: numerator 1 is not divisible by 2^4"
        ):
            bm_odd_dim(2, 8, 0)

    def test_negative(self, monkeypatch):
        # -22 + 6 = -16 and -10 - 6 = -16: exactly divisible, quotient -1
        monkeypatch.setattr(dimensions, "verlinde_dim", lambda g, k: -22)
        with raises_exactly(
            IntegralityError, "bm_even_dim(g=2, p=8, eps=0) [base dim -22]: dimension came out negative (-1)"
        ):
            bm_even_dim(2, 8, 0)
        monkeypatch.setattr(dimensions, "twisted_dim", lambda g, p: -10)
        with raises_exactly(
            IntegralityError, "bm_odd_dim(g=2, p=8, eps=0) [twisted base dim -10]: dimension came out negative (-1)"
        ):
            bm_odd_dim(2, 8, 0)

    def test_sum_over_spin_reports_the_failing_summand(self, base_off_by_one):
        with raises_exactly(
            IntegralityError, "bm_even_dim(g=2, p=8, eps=0) [base dim 11]: numerator 17 is not divisible by 2^4"
        ):
            sum_over_spin(2, 8)

    def test_corollary(self, base_off_by_one):
        # corollary_dims evaluates bm_even_dim at the level p = 8 that k = 1 pairs with
        with raises_exactly(
            IntegralityError, "bm_even_dim(g=2, p=8, eps=0) [base dim 11]: numerator 17 is not divisible by 2^4"
        ):
            corollary_dims(2, 1, 0)

    def test_corollary_odd_part(self, twisted_base_off_by_one):
        # 44 + 1 - 4 * 3 = 33, at the level p = 16 that k = 2 pairs with under "corollary"
        with raises_exactly(
            IntegralityError, "bm_odd_dim(g=2, p=16, eps=0) [twisted base dim 45]: numerator 33 is not divisible by 2^4"
        ):
            corollary_dims(2, 2, 0, convention="corollary")

    def test_corollary_negative(self, monkeypatch):
        monkeypatch.setattr(dimensions, "twisted_dim", lambda g, p: -10)
        with raises_exactly(
            IntegralityError, "bm_odd_dim(g=2, p=8, eps=0) [twisted base dim -10]: dimension came out negative (-1)"
        ):
            corollary_dims(2, 1, 0)

    def test_dims_via_traces(self):
        # base_dim 10 + 1 off by one: 11 + 6 = 17
        with raises_exactly(
            IntegralityError,
            "dims_via_traces(g=2, eps=0, base_dim=11, lambda_rho=1, w2=0): numerator 17 is not divisible by 2^4",
        ):
            dims_via_traces(2, 0, 11, 1, 0)
        with raises_exactly(
            IntegralityError,
            "dims_via_traces(g=2, eps=1, base_dim=7, lambda_rho=1, w2=1): numerator 17 is not divisible by 2^4",
        ):
            dims_via_traces(2, 1, 7, 1, 1)


class TestIdentityViolations:
    def test_sum_over_spin(self, monkeypatch):
        # every even summand reads 1: 6 + 10 = 16 against verlinde_dim(2, 2) = 10
        honest = dimensions._graded_dim
        monkeypatch.setattr(dimensions, "_graded_dim", lambda g, p, eps, odd: honest(g, p, eps, odd) if odd else 1)
        with raises_exactly(
            IdentityViolationError, "sum_over_spin(g=2, p=8): spin-structure sum 16 != unrefined dimension 10"
        ):
            sum_over_spin(2, 8)

    def test_dims_via_traces(self, lift_sign_flipped_at_a1):
        with raises_exactly(
            IdentityViolationError,
            "dims_via_traces(g=2, eps=0, base_dim=10, lambda_rho=1, w2=0): termwise trace sum 12 != closed form 16",
        ):
            dims_via_traces(2, 0, 10, 1, 0)


class TestFusionLabels:
    def test_non_integral_power_sum(self, monkeypatch):
        # every scaled power sum reads 1: 1/2 at (2, 1) and -3/2 at (2, 8)
        monkeypatch.setattr(fusion, "_scaled_power_sum", lambda m, n: 1)
        with raises_exactly(ArithmeticError, "verlinde_dim(g=2, k=1): power-sum value 1/2 is not an integer"):
            fusion.verlinde_dim.__wrapped__(2, 1)
        with raises_exactly(ArithmeticError, "twisted_dim(g=2, p=8): power-sum value -3/2 is not an integer"):
            fusion.twisted_dim.__wrapped__(2, 8)

    def test_residue_outside_the_bound(self, monkeypatch):
        # the bounds (n - 1)(n/2)^{3m}, rounded up: 8 * 4.5^6 at n = 9, m = 2,
        # and 3 * 2^3 at n = 4, m = 1
        monkeypatch.setattr(fusion, "_sum_residue", lambda m, n, bits, alternating: -(1 << 40))
        with raises_exactly(
            CertificationError, "verlinde(g=3, k=7): residue -0x10000000000 at 128 bits exceeds the bound 0x1037f"
        ):
            verlinde_trig_oracle(3, 7)
        with raises_exactly(
            CertificationError, "twisted(g=2, p=8): residue -0x10000000000 at 256 bits exceeds the bound 0x18"
        ):
            twisted_trig_oracle(2, 8, 256)

    def test_no_certificate(self, monkeypatch, cold_caches):
        # w -> 2 modulo 2^(bits + 2): every folded term is even, not a unit;
        # the bound of n = 42, m = 11 has 151 bits, so the walk goes on to 256 bits
        monkeypatch.setattr(fusion, "_modulus", lambda n, bits: (1, 1 << bits + 2))
        with raises_exactly(CertificationError, "residue table at n=42, 256 bits: the term of j=1 is not a unit"):
            verlinde_trig_oracle(12, 40)
        with raises_exactly(CertificationError, "residue table at n=42, 512 bits: the term of j=1 is not a unit"):
            twisted_trig_oracle(12, 84, 512)
