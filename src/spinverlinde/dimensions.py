"""Spin-refined dimension formulas for surface state spaces.

For a genus-g surface with a spin structure of Arf invariant eps, the
graded dimensions at a level p divisible by 8 are

    even = 2^{-2g} (dim V_p  + (p/4)^{g-1} ((-1)^eps 2^g - 1))
    odd  = 2^{-2g} (dim V'_p - (p/4)^{g-1} ((-1)^eps 2^g - 1))

with dim V_p the level-(p/2 - 2) dimension and dim V'_p its twisted
analogue.  Integrality of these expressions is itself a theorem under
test: any non-exact division raises, it is never rounded away.

The same numbers arise by averaging lifted [Z]-actions over the group of
two-torsion classes (``dims_via_traces``), which this module computes
both in closed form and termwise as the trace of the averaging
projection P_sigma, insisting the two agree exactly.  Every formula calls
``_numerator``, the bases of a level p are ``_level_bases``, and
``_graded_cell`` evaluates each (g, p, eps) of a cell once for all readers.
"""

from __future__ import annotations

from . import _value
from ._value import Value, _labelled, _require_int
from .f2 import SymplecticF2Space
from .fusion import twisted_dim, verlinde_dim
from .heisenberg import projection, trace_functional
from .levels import _is_bm_level, _pairs_with_spin, bm_from_so3
from .spin import QuadraticRefinement, _arf_counts

#: Base-dimension bindings exposed for the shifted-level reading ("bm",
#: the default: level p = 4(k+1) at odd k) and for the literal corollary
#: reading ("corollary": p = 4(k+2) at even k, correction base k+2).
CONVENTIONS = ("bm", "corollary")


class IntegralityError(ArithmeticError):
    """A dimension formula produced a non-integral or negative value.

    This signals a level-convention bug, never a rounding situation; the
    message carries every input and names the level p the formula read.
    """


class IdentityViolationError(ArithmeticError):
    """An identity the theory guarantees failed to hold exactly."""


class GradedDimension(Value):
    """Dimensions of the even and odd components of a graded state space."""

    even: int
    odd: int

    def __init__(self, even: int, odd: int) -> None:
        self._store(even=even, odd=odd)

    @property
    def total(self) -> int:
        return self.even + self.odd


# Each ``where`` below is a label for ``_value._labelled``.  A genus and a bit
# are refused by ``_value._require_genus`` and ``_value._require_bit``, a level
# by ``_value._require_int`` and the range check here: TypeError for a value
# that is not an int, or is a bool, and ValueError for an int out of range.


def _require_genus(g: int, allow_genus_one: bool, where: tuple) -> None:
    _value._require_genus(g, where)
    if g == 1 and not allow_genus_one:
        message = "genus 1 sits outside the moduli-space derivation; pass allow_genus_one=True to extrapolate"
        raise ValueError(_labelled(where, message))


def _require_bm_level(p: int, where: tuple) -> None:
    _require_int(p, "levels")
    if not _is_bm_level(p):
        raise ValueError(_labelled(where, f"level must be a positive multiple of 8, got {p}"))


def _exact_quotient(numerator: int, g: int, where: tuple) -> int:
    # a mask and a shift, as fusion._integral divides
    if numerator & ((1 << (2 * g)) - 1):
        raise IntegralityError(_labelled(where, f"numerator {numerator} is not divisible by 2^{2 * g}"))
    quotient = numerator >> (2 * g)
    if quotient < 0:
        raise IntegralityError(_labelled(where, f"dimension came out negative ({quotient})"))
    return quotient


def _numerator(g: int, eps: int, base: int, sign: int, correction_base: int) -> int:
    """2^{2g} times a graded dimension, base + sign c^{g-1} ((-1)^eps 2^g - 1), c = correction_base."""
    return base + sign * correction_base ** (g - 1) * ((1 << g) - 1 if eps == 0 else -(1 << g) - 1)


def _level_bases(g: int, p: int) -> tuple[int, int, int]:
    """The bases of the level p: the dimensions at levels p/2 - 2 and p (twisted), and p/4."""
    return verlinde_dim(g, p // 2 - 2), twisted_dim(g, p), p // 4


def bm_even_dim(g: int, p: int, eps: int, *, allow_genus_one: bool = False) -> int:
    """Even graded dimension at level p (multiple of 8) and Arf invariant eps."""
    return _checked_graded_dim(g, p, eps, allow_genus_one, False)


def bm_odd_dim(g: int, p: int, eps: int, *, allow_genus_one: bool = False) -> int:
    """Odd graded dimension at level p (multiple of 8) and Arf invariant eps."""
    return _checked_graded_dim(g, p, eps, allow_genus_one, True)


# the labels of bm_even_dim and bm_odd_dim, by odd, and those of their quotients
_WHERE = "bm_even_dim(g={}, p={}, eps={})", "bm_odd_dim(g={}, p={}, eps={})"
_QUOTIENT = _WHERE[0] + " [base dim {}]", _WHERE[1] + " [twisted base dim {}]"


def _checked_graded_dim(g: int, p: int, eps: int, allow_genus_one: bool, odd: bool) -> int:
    where = _WHERE[odd], g, p, eps
    _require_genus(g, allow_genus_one, where)
    _require_bm_level(p, where)
    _value._require_bit(eps, "eps", where)
    return _graded_dim(g, p, eps, odd)


def _graded_dim(g: int, p: int, eps: int, odd: bool) -> int:
    """The even (odd false) or odd graded dimension of a (g, p, eps) already checked."""
    base = twisted_dim(g, p) if odd else verlinde_dim(g, p // 2 - 2)
    numerator = _numerator(g, eps, base, -1 if odd else 1, p // 4)
    return _exact_quotient(numerator, g, (_QUOTIENT[odd], g, p, eps, base))


def spin_cs_dims(g: int, m: int, eps: int, *, allow_genus_one: bool = False) -> GradedDimension:
    """Graded dimensions of the spin theory at index m >= 1 (level p = 8m).

    The trivial-w2 component carries the even grading and the
    non-trivial-w2 component the odd grading.  The inputs are checked once,
    under the name of ``bm_even_dim``.
    """
    _require_int(m, "indices")
    if m < 1:
        raise ValueError(f"spin_cs_dims: index m must be a positive integer, got {m}")
    p = 8 * m
    return GradedDimension(bm_even_dim(g, p, eps, allow_genus_one=allow_genus_one), _graded_dim(g, p, eps, True))


def _pairs(k: int, convention: str) -> bool:
    """Whether ``convention`` pairs the integer level k with a level p: k
    positive and odd under "bm", non-negative and even under "corollary",
    which reads k as the bm level k + 1."""
    return _pairs_with_spin(k + (convention == "corollary"))


def _level_p(k: int, convention: str) -> int:
    """The level p an integer level k is paired with under ``convention``.

    "bm": k positive and odd, p = 4(k+1) by ``bm_from_so3``; "corollary": k
    non-negative and even, p = 4(k+2), the bm pairing after the metaplectic
    shift k -> k + 1.  A k that is not an int, or is a bool, is refused as
    ``LevelValue`` refuses it, before the shift turns a bool into an int.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    _require_int(k, "levels")
    if not _pairs(k, convention):
        levels = "positive odd" if convention == "bm" else "non-negative even"
        raise ValueError(f"convention {convention!r} pairs only {levels} levels, got k={k}")
    return bm_from_so3(k + (convention == "corollary")).value


def corollary_bases(g: int, k: int, convention: str = "bm") -> tuple[int, int, int]:
    """Resolve (base_even, base_odd, correction_base) for an integer level k.

    Two readings of the level dictionary are exposed and none is silently
    preferred beyond the documented default:

    - "bm" (default): k odd, level p = 4(k+1); bases are the dimensions at
      levels 2k and p, correction base p/4 = k+1.
    - "corollary": k even, level p = 4(k+2); bases at levels 2k+2 and p,
      correction base k+2.

    Under either reading the bases are the dimensions at levels p/2 - 2
    and p, and the correction base is p/4.
    """
    return _level_bases(g, _level_p(k, convention))


def corollary_dims(
    g: int, k: int, eps: int, *, convention: str = "bm", allow_genus_one: bool = False
) -> GradedDimension:
    """Graded dimensions at the level p that ``convention`` pairs with the
    integer level k, by the formulas of ``bm_even_dim`` and ``bm_odd_dim``.

    The genus and eps are checked once, under this function's name; the
    level p is ``_level_p(k, convention)``, which refuses an unknown
    convention and a k the convention does not pair.  A non-integral or
    negative value raises the IntegralityError of ``bm_even_dim`` or
    ``bm_odd_dim``, which names the level p they read.
    """
    where = "corollary_dims(g={}, k={}, eps={}, convention={!r})", g, k, eps, convention
    _require_genus(g, allow_genus_one, where)
    _value._require_bit(eps, "eps", where)
    p = _level_p(k, convention)
    return GradedDimension(_graded_dim(g, p, eps, False), _graded_dim(g, p, eps, True))


def dims_via_traces(
    g: int,
    eps: int,
    base_dim: int,
    lambda_rho: int,
    w2: int,
    *,
    allow_genus_one: bool = False,
) -> int:
    """Dimension by averaging lifted [Z]-action traces over all two-torsion classes.

    The termwise sum is 2^{2g} times ``trace_functional`` of the averaging
    projection P_sigma at the canonical refinement of Arf invariant eps:
    [Z] = 0 traces to ``base_dim`` and every other class to its lift sign
    times (lambda_rho + 1)^{g-1}.  It must match the closed form

        2^{-2g} (base_dim + (-1)^{w2} ((-1)^eps 2^g - 1) (lambda_rho + 1)^{g-1})

    exactly before the quotient is taken.
    """
    where = "dims_via_traces(g={}, eps={}, base_dim={}, lambda_rho={}, w2={})", g, eps, base_dim, lambda_rho, w2
    _require_genus(g, allow_genus_one, where)
    _value._require_bit(eps, "eps", where)
    _require_int(base_dim, "base dimensions")
    _require_int(lambda_rho, "lambda_rho values")
    _value._require_bit(w2, "w2", where)

    sigma = QuadraticRefinement.canonical(SymplecticF2Space(g), eps)
    termwise = trace_functional(projection(sigma), base_dim, lambda_rho, w2) * (1 << (2 * g))
    closed = _numerator(g, eps, base_dim, (-1) ** w2, lambda_rho + 1)
    if termwise != closed:
        raise IdentityViolationError(_labelled(where, f"termwise trace sum {termwise} != closed form {closed}"))
    return _exact_quotient(closed, g, where)


def _graded_cell(g: int, p: int) -> tuple[list[tuple[int, int]], int, int]:
    """The graded dimensions (even, odd) of a cell (g, p) its caller has checked
    at Arf invariants 0 and 1, each evaluated once, and the even and odd totals
    over all 2^{2g} spin structures, each Arf value weighted by its number of
    structures; ``sum_over_spin``, ``spin-dims`` and the graded suites read them."""
    n_even, n_odd = _arf_counts(g)
    dims = [(_graded_dim(g, p, eps, False), _graded_dim(g, p, eps, True)) for eps in (0, 1)]
    (even0, odd0), (even1, odd1) = dims
    return dims, n_even * even0 + n_odd * even1, n_even * odd0 + n_odd * odd1


def sum_over_spin(g: int, p: int, *, allow_genus_one: bool = False) -> int:
    """Total even dimension over all 2^{2g} spin structures.

    Grouping by Arf invariant and weighting by the refinement counts, the
    sum collapses to the plain level-(p/2 - 2) dimension; a mismatch is a
    hard identity violation.
    """
    where = "sum_over_spin(g={}, p={})", g, p
    _require_genus(g, allow_genus_one, where)
    _require_bm_level(p, where)
    total = _graded_cell(g, p)[1]
    expected = _level_bases(g, p)[0]
    if total != expected:
        raise IdentityViolationError(_labelled(where, f"spin-structure sum {total} != unrefined dimension {expected}"))
    return total
