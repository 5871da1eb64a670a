"""Property tests past the enumeration cap, graded cells past the default
grids, exact dimensions against the interval oracles at sampled cells
of the certified envelope g <= 20, k <= 512, the exact halvings against
``divmod``, the level dictionary past the m <= 50 of ``check levels``, the
Heisenberg product past the table of elements it keeps, and the rebase of
the twisted algebra past its table of sign vectors.

Hypothesis runs derandomized and without its example database, so every
run draws the same cases and stores no failing examples between runs.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinverlinde.dimensions import (
    IntegralityError,
    _exact_quotient,
    _graded_cell,
    bm_even_dim,
    bm_odd_dim,
    corollary_bases,
    corollary_dims,
    sum_over_spin,
)
from spinverlinde.f2 import F2Vector, SymplecticF2Space
from spinverlinde.fusion import _integral, twisted_dim, twisted_trig_oracle, verlinde_dim, verlinde_trig_oracle
from spinverlinde.heisenberg import HeisenbergElement, TwistedAlgebraElement, _element, _signs, projection
from spinverlinde.levels import (
    Lattice,
    LevelValue,
    beta_pullback,
    bhmv_from_su2,
    bhmv_level,
    bm_from_so3,
    so3_from_bm,
    so3_from_su2,
    so3_level,
    su2_from_bhmv,
    su2_level,
)
from spinverlinde.spin import QuadraticRefinement, lift_sign

MAX_GENUS = 64

deterministic = settings(derandomize=True, database=None, deadline=None)


@st.composite
def spaces(draw, min_genus=1, max_genus=MAX_GENUS):
    return SymplecticF2Space(draw(st.integers(min_genus, max_genus)))


@st.composite
def vectors(draw, space):
    return space.vector(draw(st.integers(0, (1 << space.dimension) - 1)))


@st.composite
def refinements(draw, space):
    return QuadraticRefinement(space, draw(st.integers(0, (1 << space.dimension) - 1)))


@st.composite
def space_with(draw, n_vectors):
    """A space of random genus, one refinement of it and ``n_vectors`` vectors in it."""
    space = draw(spaces())
    return space, draw(refinements(space)), [draw(vectors(space)) for _ in range(n_vectors)]


@deterministic
@given(space_with(3))
def test_pairing_bilinear_alternating_symmetric(case):
    space, _, (v, w, x) = case
    assert space.pair(v + w, x) == space.pair(v, x) ^ space.pair(w, x)
    assert space.pair(v, v) == 0
    assert space.pair(v, w) == space.pair(w, v)


@deterministic
@given(space_with(2))
def test_refinement_law(case):
    space, q, (v, w) = case
    assert q(v + w) == q(v) ^ q(w) ^ space.pair(v, w)


@deterministic
@given(st.data())
def test_arf_additive_under_orthogonal_sum(data):
    first = data.draw(spaces(max_genus=MAX_GENUS // 2))
    second = data.draw(spaces(max_genus=MAX_GENUS - first.genus))
    q1, q2 = data.draw(refinements(first)), data.draw(refinements(second))
    total = SymplecticF2Space(first.genus + second.genus)
    shift = first.dimension
    q = QuadraticRefinement(total, q1.basis_values | (q2.basis_values << shift))
    v1, v2 = data.draw(vectors(first)), data.draw(vectors(second))
    # q restricts to q1 and q2 on the two orthogonal summands
    assert q(total.vector(v1.bits | (v2.bits << shift))) == q1(v1) ^ q2(v2)
    assert q.arf() == q1.arf() ^ q2.arf()


def literal_pair(g, v, w):
    """sum_i a_i(v) b_i(w) + b_i(v) a_i(w) mod 2, from the coordinates a1, b1, ..., ag, bg."""
    x, y = v.coordinates(), w.coordinates()
    return sum(x[2 * i] * y[2 * i + 1] + x[2 * i + 1] * y[2 * i] for i in range(g)) % 2


@deterministic
@given(space_with(2))
def test_bit_level_pairing_and_refinement_match_coordinate_formulas(case):
    space, q, (v, ell) = case
    g = space.genus
    values = [(q.basis_values >> j) & 1 for j in range(2 * g)]
    x = v.coordinates()
    assert space.pair(v, ell) == literal_pair(g, v, ell)
    # q(v) = sum_j q(e_j) v_j + sum_i a_i(v) b_i(v)
    linear = sum(value * coord for value, coord in zip(values, x))
    cross = sum(x[2 * i] * x[2 * i + 1] for i in range(g))
    assert q.evaluate(v) == (linear + cross) % 2
    # (q + <ell, .>)(e_j) = q(e_j) + <ell, e_j>
    shifted = [value ^ literal_pair(g, ell, e) for value, e in zip(values, space.basis())]
    assert q.shift(ell).basis_values == sum(bit << j for j, bit in enumerate(shifted))
    assert q.arf() == sum(values[2 * i] * values[2 * i + 1] for i in range(g)) % 2


@deterministic
@given(space_with(2))
def test_arf_difference_is_quadratic(case):
    space, sigma, (z, w) = case

    def difference(u):
        return sigma.shift(u).arf() ^ sigma.arf()

    assert difference(z + w) == difference(z) ^ difference(w) ^ space.pair(z, w)


@deterministic
@given(space_with(1), st.integers(0, 1), st.integers(0, 1))
def test_lift_sign_follows_the_refinement(case, w2_bundle, w2_rho):
    # lift_sign reads sigma(z); the expected side takes the shift-then-Arf
    # route of the definition, so the two agree by Johnson's identity only
    _, sigma, (z,) = case
    arf_difference = sigma.shift(z).arf() ^ sigma.arf()
    assert lift_sign(sigma, z, w2_bundle, w2_rho) == (-1) ** (w2_bundle + w2_rho * arf_difference)


@st.composite
def heisenberg_rows(draw, length=128):
    """A genus g <= 10, one element x of its Heisenberg group and ``length`` elements y,
    the row y from a ``Random`` of drawn seed, so that it is spread out and cheap to draw."""
    space = draw(spaces(max_genus=10))
    x = HeisenbergElement(draw(st.integers(0, 3)), draw(vectors(space)))
    rng, dim = random.Random(draw(st.integers(0, 2**32 - 1))), space.dimension
    ys = [HeisenbergElement(rng.randrange(4), F2Vector(rng.getrandbits(dim), dim)) for _ in range(length)]
    return space.genus, x, ys


def literal_product(g, x, y):
    """(t + t' + 2 sum_i a_i(v) b_i(w), v + w), read off the coordinates a1, b1, ..., ag, bg."""
    v, w = x.vector.coordinates(), y.vector.coordinates()
    cocycle = sum(v[2 * i] * w[2 * i + 1] for i in range(g)) % 2
    vector = F2Vector(x.vector.bits ^ y.vector.bits, 2 * g)
    return HeisenbergElement((x.central + y.central + 2 * cocycle) % 4, vector)


def test_heisenberg_product_is_the_cocycle_formula_past_its_table():
    # rows of 256 products up to genus 10 make more distinct products than the
    # table of elements behind ``__mul__`` holds, so it evicts while they run;
    # the second x * y of a pair is read from the table
    before = _element.cache_info()

    @deterministic
    @given(heisenberg_rows())
    def rows(case):
        g, x, ys = case
        for y in ys:
            for left, right in ((x, y), (y, x)):
                expected = literal_product(g, left, right)
                assert left * right == expected and left * right == expected

    rows()
    after = _element.cache_info()
    assert after.misses - before.misses > after.maxsize


@st.composite
def rebase_rows(draw, length=4):
    """A genus 4 <= g <= 6, a projection and an element of mixed signs over one
    refinement of it, and ``length`` shifts ell; the numerators and the shifts
    come from a ``Random`` of drawn seed."""
    space = draw(spaces(min_genus=4, max_genus=6))
    sigma = draw(refinements(space))
    rng, dim = random.Random(draw(st.integers(0, 2**32 - 1))), space.dimension
    mixed = TwistedAlgebraElement(sigma, {m: Fraction(rng.randrange(-3, 4), 5) for m in range(1 << dim)})
    ells = [F2Vector(rng.getrandbits(dim), dim) for _ in range(length)]
    return space, [projection(sigma), mixed], ells


def test_rebase_is_the_per_mask_sign_past_its_table():
    # rows of shifts at genus 4 to 6 ask for more sign vectors than the table
    # behind ``rebase`` holds, so it evicts while they run
    before = _signs.cache_info()

    @deterministic
    @given(rebase_rows())
    def rows(case):
        space, elements, ells = case
        for ell in ells:
            dual = space.dual_bits(ell)
            for x in elements:
                signed = tuple(-n if (m & dual).bit_count() & 1 else n for m, n in enumerate(x.numerators))
                moved = x.rebase(ell)
                assert (moved.spin, moved.numerators, moved.denominator) == (
                    x.spin.shift(ell),
                    signed,
                    x.denominator,
                )

    rows()
    after = _signs.cache_info()
    assert after.misses - before.misses > after.maxsize


@settings(deterministic, max_examples=8)
@given(st.integers(1, 20), st.integers(0, 512))
@example(20, 512)
def test_exact_dimensions_equal_interval_oracles(g, k):
    assert verlinde_dim(g, k) == verlinde_trig_oracle(g, k).value
    p = 2 * (k + 2)
    assert twisted_dim(g, p) == twisted_trig_oracle(g, p).value


@settings(deterministic, max_examples=40)
@given(st.integers(2, 60), st.integers(1, 128).map(lambda i: 8 * i))
@example(60, 1024)
def test_graded_cell_past_the_default_grids(g, p):
    dims, even_total, odd_total = _graded_cell(g, p)
    assert dims == [(bm_even_dim(g, p, eps), bm_odd_dim(g, p, eps)) for eps in (0, 1)]
    unrefined = verlinde_dim(g, p // 2 - 2)
    assert even_total == unrefined == sum_over_spin(g, p)
    assert even_total + odd_total == unrefined + twisted_dim(g, p)


@settings(deterministic)
@given(st.integers(1, 500_000).map(lambda m: 2 * m - 1))
@example(999_999)
def test_bm_pairing_past_check_levels(k):
    # odd SO(3) levels up to 10^6: bm and bhmv-after-pullback agree, and bm inverts
    assert bm_from_so3(k).value == bhmv_from_su2(beta_pullback(k)).value
    assert so3_from_bm(bm_from_so3(k)) == so3_level(k)


@settings(deterministic)
@given(st.integers(0, 10**6))
@example(10**6)
def test_round_trips_past_check_levels(k):
    assert su2_from_bhmv(bhmv_from_su2(k)) == su2_level(k)
    assert so3_from_su2(beta_pullback(k)) == so3_level(k)


@settings(deterministic)
@given(st.integers(2, 10**6).map(lambda m: 2 * m))
@example(4)
@example(2 * 10**6)
def test_bhmv_round_trip_from_every_even_level(p):
    # every even p >= 4 is 2(k + 2) at k = p/2 - 2 >= 0, and bhmv_from_su2 takes it back
    assert bhmv_from_su2(su2_from_bhmv(bhmv_level(p))) == bhmv_level(p)


@settings(deterministic, max_examples=40)
@given(st.integers(2, 10), st.integers(0, 100).map(lambda i: 2 * i), st.integers(0, 1))
@example(10, 200, 1)
def test_corollary_reading_is_bm_after_the_shift(g, k, eps):
    # the corollary reading at even k is the bm reading at k + 1
    assert corollary_bases(g, k, "corollary") == corollary_bases(g, k + 1)
    assert corollary_dims(g, k, eps, convention="corollary") == corollary_dims(g, k + 1, eps)


@st.composite
def halvings(draw):
    """(numerator, g): numerator = quotient 2^{2g} + remainder, of either sign,
    with a remainder of 0 in about half the draws."""
    g = draw(st.integers(1, 200))
    quotient = draw(st.integers(-(1 << 600), 1 << 600))
    remainder = draw(st.one_of(st.just(0), st.integers(1, (1 << 2 * g) - 1)))
    return (quotient << 2 * g) + remainder, g


@deterministic
@given(halvings())
@example((-(1 << 2), 1))
@example((-(1 << 2) + 1, 1))
def test_exact_halvings_agree_with_divmod(case):
    numerator, g = case
    quotient, remainder = divmod(numerator, 1 << 2 * g)
    if remainder:
        with pytest.raises(ArithmeticError, match="is not an integer"):
            _integral(numerator, 2 * g, ("cell {}", g))
        with pytest.raises(IntegralityError, match=f"is not divisible by 2\\^{2 * g}"):
            _exact_quotient(numerator, g, ("cell {}", g))
        return
    assert _integral(numerator, 2 * g, ("cell {}", g)) == quotient
    if quotient < 0:
        with pytest.raises(IntegralityError, match=rf"dimension came out negative \({quotient}\)"):
            _exact_quotient(numerator, g, ("cell {}", g))
    else:
        assert _exact_quotient(numerator, g, ("cell {}", g)) == quotient


# each conversion of the level dictionary: its source lattice, the rule a level
# of that lattice must meet besides, and the conversion that takes its image back
CONVERSIONS = {
    "beta_pullback": (Lattice.SO3, lambda k: True, beta_pullback, so3_from_su2),
    "so3_from_su2": (Lattice.SU2, lambda k: k % 2 == 0, so3_from_su2, beta_pullback),
    "bhmv_from_su2": (Lattice.SU2, lambda k: True, bhmv_from_su2, su2_from_bhmv),
    "su2_from_bhmv": (Lattice.BHMV, lambda p: p % 2 == 0 and p >= 4, su2_from_bhmv, bhmv_from_su2),
    "bm_from_so3": (Lattice.SO3, lambda k: k % 2 == 1, bm_from_so3, so3_from_bm),
    "so3_from_bm": (Lattice.BM, lambda p: True, so3_from_bm, bm_from_so3),
}


def _is_level(lattice, value):
    try:
        LevelValue(lattice, value)
    except ValueError:
        return False
    return True


@settings(deterministic, max_examples=300)
@given(st.sampled_from(sorted(CONVERSIONS)), st.integers(-(10**6), 10**6))
@example("beta_pullback", -1)
@example("so3_from_su2", -4)
@example("bhmv_from_su2", -2)
def test_every_accepted_level_round_trips(name, value):
    # a conversion takes exactly the levels of its source lattice that meet
    # its own rule, and its inverse takes each image back
    lattice, rule, convert, inverse = CONVERSIONS[name]
    try:
        image = convert(value)
    except ValueError:
        assert not (_is_level(lattice, value) and rule(value))
        return
    assert _is_level(lattice, value) and rule(value)
    assert inverse(image) == LevelValue(lattice, value)
