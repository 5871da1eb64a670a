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

from ._value import Value
from .f2 import SymplecticF2Space
from .fusion import _label, twisted_dim, verlinde_dim
from .heisenberg import projection, trace_functional
from .levels import bm_from_so3
from .spin import QuadraticRefinement, count_by_arf

#: Base-dimension bindings exposed for the shifted-level reading ("bm",
#: the default: level p = 4(k+1) at odd k) and for the literal corollary
#: reading ("corollary": p = 4(k+2) at even k, correction base k+2).
CONVENTIONS = ("bm", "corollary")


class IntegralityError(ArithmeticError):
    """A dimension formula produced a non-integral or negative value.

    This signals a level-convention bug, never a rounding situation; the
    message carries every input so the offending convention is visible.
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


# Each ``where`` below is a label for ``_label``, a format template and its
# values, whose text is built only on the path that raises.


def _require_genus(g: int, allow_genus_one: bool, where: tuple) -> None:
    if g < 1:
        raise ValueError(f"{_label(where)}: genus must be a positive integer, got {g}")
    if g == 1 and not allow_genus_one:
        raise ValueError(
            f"{_label(where)}: genus 1 sits outside the moduli-space derivation; "
            "pass allow_genus_one=True to extrapolate"
        )


def _require_bm_level(p: int, where: tuple) -> None:
    if p <= 0 or p % 8:
        raise ValueError(f"{_label(where)}: level must be a positive multiple of 8, got {p}")


def _require_bit(value: int, name: str, where: tuple) -> None:
    if value not in (0, 1):
        raise ValueError(f"{_label(where)}: {name} must be 0 or 1, got {value!r}")


def _exact_quotient(numerator: int, g: int, where: tuple) -> int:
    quotient, remainder = divmod(numerator, 1 << (2 * g))
    if remainder:
        raise IntegralityError(
            f"{_label(where)}: numerator {numerator} is not divisible by 2^{2 * g}"
        )
    if quotient < 0:
        raise IntegralityError(f"{_label(where)}: dimension came out negative ({quotient})")
    return quotient


def _numerator(g: int, eps: int, base: int, sign: int, correction_base: int) -> int:
    """2^{2g} times a graded dimension, base + sign c^{g-1} ((-1)^eps 2^g - 1), c = correction_base."""
    return base + sign * correction_base ** (g - 1) * ((1 << g) - 1 if eps == 0 else -(1 << g) - 1)


def _level_bases(g: int, p: int) -> tuple[int, int, int]:
    """The bases of the level p: the dimensions at levels p/2 - 2 and p (twisted), and p/4."""
    return verlinde_dim(g, p // 2 - 2), twisted_dim(g, p), p // 4


def bm_even_dim(g: int, p: int, eps: int, *, allow_genus_one: bool = False) -> int:
    """Even graded dimension at level p (multiple of 8) and Arf invariant eps."""
    where = "bm_even_dim(g={}, p={}, eps={})", g, p, eps
    _require_genus(g, allow_genus_one, where)
    _require_bm_level(p, where)
    _require_bit(eps, "eps", where)
    base = verlinde_dim(g, p // 2 - 2)
    numerator = _numerator(g, eps, base, 1, p // 4)
    return _exact_quotient(numerator, g, ("bm_even_dim(g={}, p={}, eps={}) [base dim {}]", g, p, eps, base))


def bm_odd_dim(g: int, p: int, eps: int, *, allow_genus_one: bool = False) -> int:
    """Odd graded dimension at level p (multiple of 8) and Arf invariant eps."""
    where = "bm_odd_dim(g={}, p={}, eps={})", g, p, eps
    _require_genus(g, allow_genus_one, where)
    _require_bm_level(p, where)
    _require_bit(eps, "eps", where)
    base = twisted_dim(g, p)
    numerator = _numerator(g, eps, base, -1, p // 4)
    return _exact_quotient(numerator, g, ("bm_odd_dim(g={}, p={}, eps={}) [twisted base dim {}]", g, p, eps, base))


def spin_cs_dims(g: int, m: int, eps: int, *, allow_genus_one: bool = False) -> GradedDimension:
    """Graded dimensions of the spin theory at index m >= 1 (level p = 8m).

    The trivial-w2 component carries the even grading and the
    non-trivial-w2 component the odd grading.
    """
    if m < 1:
        raise ValueError(f"spin_cs_dims: index m must be a positive integer, got {m}")
    p = 8 * m
    return GradedDimension(
        even=bm_even_dim(g, p, eps, allow_genus_one=allow_genus_one),
        odd=bm_odd_dim(g, p, eps, allow_genus_one=allow_genus_one),
    )


def _pairs(k: int, convention: str) -> bool:
    """Whether ``convention`` pairs the integer level k with a level p: k
    positive and odd under "bm", non-negative and even under "corollary"."""
    if convention == "bm":
        return k >= 1 and k % 2 == 1
    return k >= 0 and k % 2 == 0


def _level_p(k: int, convention: str) -> int:
    """The level p an integer level k is paired with under ``convention``.

    "bm": k positive and odd, p = 4(k+1) by ``bm_from_so3``; "corollary": k
    non-negative and even, p = 4(k+2), the bm pairing after the metaplectic
    shift k -> k + 1.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if not _pairs(k, convention):
        levels = "positive odd" if convention == "bm" else "non-negative even"
        raise ValueError(f"convention {convention!r} pairs only {levels} levels, got k={k}")
    if convention == "bm":
        return bm_from_so3(k).value
    return bm_from_so3(k + 1).value


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
    g: int,
    k: int,
    eps: int,
    base_even: int | None = None,
    base_odd: int | None = None,
    correction_base: int | None = None,
    *,
    convention: str = "bm",
    allow_genus_one: bool = False,
) -> GradedDimension:
    """Graded dimensions from explicitly supplied base dimensions.

    Callers may pass the bases directly to exercise any reading of the
    level conventions; omitted values are resolved by ``corollary_bases``
    under ``convention``.  Under the default binding this coincides with
    ``bm_even_dim`` / ``bm_odd_dim``.
    """
    where = "corollary_dims(g={}, k={}, eps={}, convention={!r})", g, k, eps, convention
    _require_genus(g, allow_genus_one, where)
    _require_bit(eps, "eps", where)
    if base_even is None or base_odd is None or correction_base is None:
        resolved = corollary_bases(g, k, convention)
        base_even = resolved[0] if base_even is None else base_even
        base_odd = resolved[1] if base_odd is None else base_odd
        correction_base = resolved[2] if correction_base is None else correction_base
    where = (
        "corollary_dims(g={}, k={}, eps={}, convention={!r}) [bases ({}, {}), correction base {}]",
        g, k, eps, convention, base_even, base_odd, correction_base,
    )
    return GradedDimension(
        even=_exact_quotient(_numerator(g, eps, base_even, 1, correction_base), g, where),
        odd=_exact_quotient(_numerator(g, eps, base_odd, -1, correction_base), g, where),
    )


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
    _require_bit(eps, "eps", where)
    _require_bit(w2, "w2", where)

    sigma = QuadraticRefinement.canonical(SymplecticF2Space(g), eps)
    termwise = trace_functional(projection(sigma), base_dim, lambda_rho, w2) * (1 << (2 * g))
    closed = _numerator(g, eps, base_dim, (-1) ** w2, lambda_rho + 1)
    if termwise != closed:
        raise IdentityViolationError(
            f"{_label(where)}: termwise trace sum {termwise} != closed form {closed}"
        )
    return _exact_quotient(closed, g, where)


def _graded_cell(g: int, p: int, allow_genus_one: bool = False) -> tuple[list[tuple[int, int]], int, int]:
    """The graded dimensions (even, odd) of the cell (g, p) at Arf invariants 0
    and 1, each evaluated once, and the even and odd totals over all 2^{2g}
    spin structures, each Arf value weighted by its number of structures;
    ``sum_over_spin``, ``spin-dims`` and the graded suites all read them."""
    n_even, n_odd = count_by_arf(g)
    flag = {"allow_genus_one": allow_genus_one}
    dims = [(bm_even_dim(g, p, eps, **flag), bm_odd_dim(g, p, eps, **flag)) for eps in (0, 1)]
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
    total = _graded_cell(g, p, allow_genus_one)[1]
    expected = _level_bases(g, p)[0]
    if total != expected:
        raise IdentityViolationError(
            f"{_label(where)}: spin-structure sum {total} != unrefined dimension {expected}"
        )
    return total
