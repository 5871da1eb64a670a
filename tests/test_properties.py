"""Property tests past the enumeration cap, graded cells past the default
grids, exact dimensions against the interval oracles at sampled cells
of the certified envelope g <= 20, k <= 512, and the level dictionary past
the m <= 50 of ``check levels``.

Hypothesis runs derandomized and without its example database, so every
run draws the same cases and stores no failing examples between runs.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinverlinde.dimensions import (
    _graded_cell,
    bm_even_dim,
    bm_odd_dim,
    corollary_bases,
    corollary_dims,
    sum_over_spin,
)
from spinverlinde.f2 import SymplecticF2Space
from spinverlinde.fusion import twisted_dim, twisted_trig_oracle, verlinde_dim, verlinde_trig_oracle
from spinverlinde.levels import (
    beta_pullback,
    bhmv_from_su2,
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


@settings(deterministic, max_examples=40)
@given(st.integers(2, 10), st.integers(0, 100).map(lambda i: 2 * i), st.integers(0, 1))
@example(10, 200, 1)
def test_corollary_reading_is_bm_after_the_shift(g, k, eps):
    # the corollary reading at even k is the bm reading at k + 1
    assert corollary_bases(g, k, "corollary") == corollary_bases(g, k + 1)
    assert corollary_dims(g, k, eps, convention="corollary") == corollary_dims(g, k + 1, eps)
