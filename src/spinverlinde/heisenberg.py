"""Twisted group algebra of two-torsion classes and a finite Heisenberg model.

Two deliberately separate models live here.

The *twisted group algebra* realizes the lifted actions [Z] relative to a
reference spin structure sigma: composition is the sign-free rule
[Z'] . [Z] = [Z' + Z], while moving the reference by ell multiplies the
[Z] symbol by (-1)^{<Z, ell>}.  Averaging all symbols yields projections
P_sigma that are idempotent and mutually orthogonal; all coefficients are
exact rationals.

The *Heisenberg group* is the central extension of GF(2)^{2g} by Z/4 with
the honest projective cocycle, acting on functions GF(2)^g -> C through
monomial matrices whose entries are powers of i.  Each model is verified
internally; no identification between them is claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .f2 import F2Vector, SymplecticF2Space, _a_positions_mask
from .spin import QuadraticRefinement, lift_sign

#: Largest genus for which the 2^g-dimensional representation is built.
DEFAULT_REPRESENTATION_CAP = 10

_Scalar = (int, Fraction)


# ---------------------------------------------------------------------------
# twisted group algebra


class TwistedAlgebraElement:
    """A finite rational combination of symbols [Z] over a reference spin structure."""

    __slots__ = ("spin", "coeffs")

    def __init__(self, spin: QuadraticRefinement, coeffs: dict[int, Fraction] | None = None):
        self.spin = spin
        size = 1 << spin.space.dimension
        clean: dict[int, Fraction] = {}
        for mask, value in (coeffs or {}).items():
            if not 0 <= mask < size:
                raise ValueError(f"support mask {mask} outside the {size} group elements")
            if not isinstance(value, _Scalar):
                raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")
            value = Fraction(value)
            if value:
                clean[mask] = value
        self.coeffs = clean

    @classmethod
    def symbol(cls, spin: QuadraticRefinement, z: F2Vector, coefficient=1) -> "TwistedAlgebraElement":
        """The single symbol coefficient * [Z]."""
        spin.space._check_member(z)
        return cls(spin, {z.bits: Fraction(coefficient)})

    @classmethod
    def zero(cls, spin: QuadraticRefinement) -> "TwistedAlgebraElement":
        return cls(spin, {})

    def coefficient(self, z: F2Vector) -> Fraction:
        return self.coeffs.get(z.bits, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[F2Vector]:
        dim = self.spin.space.dimension
        return [F2Vector(mask, dim) for mask in sorted(self.coeffs)]

    def _require_same_spin(self, other: "TwistedAlgebraElement") -> None:
        if self.spin != other.spin:
            raise ValueError("mismatched reference spin structures")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedAlgebraElement):
            return NotImplemented
        return self.spin == other.spin and self.coeffs == other.coeffs

    def __add__(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        self._require_same_spin(other)
        total = dict(self.coeffs)
        for mask, value in other.coeffs.items():
            total[mask] = total.get(mask, Fraction(0)) + value
        return TwistedAlgebraElement(self.spin, total)

    def __neg__(self) -> "TwistedAlgebraElement":
        return TwistedAlgebraElement(self.spin, {m: -v for m, v in self.coeffs.items()})

    def __sub__(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TwistedAlgebraElement):
            return self._convolve(other)
        if isinstance(other, _Scalar):
            scalar = Fraction(other)
            return TwistedAlgebraElement(self.spin, {m: v * scalar for m, v in self.coeffs.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _Scalar):
            return self.__mul__(other)
        return NotImplemented

    def _convolve(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        """Group-algebra product under [Z'] . [Z] = [Z' + Z], extended bilinearly.

        Runs on integer numerators over a common denominator; exercised
        4000+ times in the exhaustive orthogonality sweeps, so the inner
        loop stays allocation-light.
        """
        self._require_same_spin(other)
        left_den = math.lcm(*(v.denominator for v in self.coeffs.values())) if self.coeffs else 1
        right_den = math.lcm(*(v.denominator for v in other.coeffs.values())) if other.coeffs else 1
        left = [(m, v.numerator * (left_den // v.denominator)) for m, v in self.coeffs.items()]
        right = [(m, v.numerator * (right_den // v.denominator)) for m, v in other.coeffs.items()]
        acc: dict[int, int] = {}
        get = acc.get
        for m1, n1 in left:
            for m2, n2 in right:
                key = m1 ^ m2
                acc[key] = get(key, 0) + n1 * n2
        denominator = left_den * right_den
        return TwistedAlgebraElement(
            self.spin, {m: Fraction(n, denominator) for m, n in acc.items() if n}
        )

    def rebase(self, ell: F2Vector) -> "TwistedAlgebraElement":
        """Rewrite over the reference moved by ell: [Z] picks up (-1)^{<Z, ell>}.

        An element expressed over sigma + ell becomes the same element
        expressed over sigma; rebasing twice by the same ell is the identity.
        """
        space = self.spin.space
        space._check_member(ell)
        dual = space.dual_bits(ell)
        moved = self.spin.shift(ell)
        return TwistedAlgebraElement(
            moved,
            {m: (-v if (m & dual).bit_count() & 1 else v) for m, v in self.coeffs.items()},
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        dim = self.spin.space.dimension
        parts = [f"{v}*[{F2Vector(m, dim)}]" for m, v in sorted(self.coeffs.items())]
        return " + ".join(parts)


def projection(sigma: QuadraticRefinement) -> TwistedAlgebraElement:
    """The averaging projection P_sigma = 2^{-2g} sum over all [Z].

    The 2^{-2g} normalization is the only one that is idempotent under
    the composition rule: the convolution square of the full sum carries
    a factor 2^{2g}, so a 1/2^g weight would not square to itself.
    """
    dim = sigma.space.dimension
    weight = Fraction(1, 1 << dim)
    return TwistedAlgebraElement(sigma, {mask: weight for mask in range(1 << dim)})


def orthogonality_check(sigma: QuadraticRefinement, ell: F2Vector) -> bool:
    """Whether P_{sigma + ell} . P_sigma vanishes identically, computed symbolically."""
    if ell.is_zero:
        raise ValueError("ell must be a non-trivial class")
    shifted_projection = projection(sigma.shift(ell))
    product = shifted_projection.rebase(ell) * projection(sigma)
    return product.is_zero


def trace_functional(
    x: TwistedAlgebraElement, base_dim: int, lambda_rho: int, w2: int
) -> Fraction:
    """Linear trace of a twisted-algebra element.

    [0] traces to the base dimension; a non-trivial [Z] traces to its
    lift sign times (lambda_rho + 1)^{g-1}.
    """
    space = x.spin.space
    weight = (lambda_rho + 1) ** (space.genus - 1)
    total = Fraction(0)
    for mask, value in x.coeffs.items():
        if mask == 0:
            total += value * base_dim
        else:
            z = F2Vector(mask, space.dimension)
            total += value * (lift_sign(x.spin, z, w2, 1) * weight)
    return total


# ---------------------------------------------------------------------------
# Heisenberg group and its monomial representation


def _a_part(v: F2Vector) -> int:
    """The a-coordinates of v compressed to a g-bit mask."""
    bits = 0
    for i in range(v.dim // 2):
        bits |= ((v.bits >> (2 * i)) & 1) << i
    return bits


def _b_part(v: F2Vector) -> int:
    bits = 0
    for i in range(v.dim // 2):
        bits |= ((v.bits >> (2 * i + 1)) & 1) << i
    return bits


def _polarized_cocycle(v: F2Vector, w: F2Vector) -> int:
    """sum_i a_i(v) b_i(w) mod 2: a polarization of the symplectic pairing.

    Not symmetric; its antisymmetrization is <v, w>, which is what makes
    the extension genuinely non-commutative.
    """
    a_mask = _a_positions_mask(v.dim // 2)
    return (v.bits & (w.bits >> 1) & a_mask).bit_count() & 1


@dataclass(frozen=True)
class HeisenbergElement:
    """An element (t, v) of the extension of GF(2)^{2g} by Z/4.

    Multiplication is (t, v)(t', v') = (t + t' + 2 c(v, v'), v + v') with
    c the polarized cocycle; the commutator of (., v) and (., v') is the
    central element (-1)^{<v, v'>} and the center is {(t, 0)} = Z/4.
    """

    central: int
    vector: F2Vector

    def __post_init__(self) -> None:
        if not 0 <= self.central < 4:
            raise ValueError(f"central part must be reduced mod 4, got {self.central}")

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if self.vector.dim != other.vector.dim:
            raise ValueError("dimension mismatch between Heisenberg elements")
        twist = 2 * _polarized_cocycle(self.vector, other.vector)
        return HeisenbergElement(
            (self.central + other.central + twist) % 4, self.vector + other.vector
        )

    def inverse(self) -> "HeisenbergElement":
        # (t, v)^-1 = (-t - 2 c(v, v), v)
        twist = 2 * _polarized_cocycle(self.vector, self.vector)
        return HeisenbergElement((-self.central - twist) % 4, self.vector)


class HeisenbergGroup:
    """The order-2^{2g+2} central extension attached to a genus-g surface."""

    def __init__(self, genus: int):
        self.space = SymplecticF2Space(genus)
        self.genus = genus

    def element(self, central: int, vector: F2Vector) -> HeisenbergElement:
        self.space._check_member(vector)
        return HeisenbergElement(central % 4, vector)

    def from_vector(self, vector: F2Vector) -> HeisenbergElement:
        return self.element(0, vector)

    @property
    def identity(self) -> HeisenbergElement:
        return HeisenbergElement(0, self.space.zero)

    @property
    def central_generator(self) -> HeisenbergElement:
        return HeisenbergElement(1, self.space.zero)

    @property
    def order(self) -> int:
        return 4 << self.space.dimension

    def elements(self) -> Iterator[HeisenbergElement]:
        for vector in self.space.vectors():
            for t in range(4):
                yield HeisenbergElement(t, vector)


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^phase as (real, imaginary)


@dataclass(frozen=True)
class MonomialMatrix:
    """An exact n x n matrix with a single non-zero entry per row, a power of i.

    Row x holds i^phases[x] in column columns[x]; phases are reduced mod 4,
    so equal matrices compare and hash equal.
    """

    columns: tuple[int, ...]
    phases: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.phases):
            raise ValueError("columns and phases must have one entry per row")
        if not set(self.phases) <= {0, 1, 2, 3}:
            raise ValueError("phases must be reduced mod 4")

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(tuple(range(n)), (0,) * n)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        # row x of self picks row columns[x] of other
        columns, phases = other.columns, other.phases
        return MonomialMatrix(
            tuple(columns[c] for c in self.columns),
            tuple((t + phases[c]) & 3 for c, t in zip(self.columns, self.phases)),
        )

    def __neg__(self) -> "MonomialMatrix":
        return MonomialMatrix(self.columns, tuple((t + 2) & 3 for t in self.phases))

    def times_i(self) -> "MonomialMatrix":
        return MonomialMatrix(self.columns, tuple((t + 1) & 3 for t in self.phases))

    def trace(self) -> tuple[int, int]:
        """Trace as a Gaussian integer (real part, imaginary part), from the fixed points."""
        fixed = [_UNITS[t] for x, (c, t) in enumerate(zip(self.columns, self.phases)) if c == x]
        return sum(re for re, _ in fixed), sum(im for _, im in fixed)


def heisenberg_rep(
    h: HeisenbergElement, representation_cap: int = DEFAULT_REPRESENTATION_CAP
) -> MonomialMatrix:
    """The 2^g-dimensional monomial representation of a Heisenberg element.

    On functions f : GF(2)^g -> C the vector part acts by
    (W(a, b) f)(x) = (-1)^{b . x} f(x + a) and the central generator by i,
    so row x has the entry i^{t + 2 (b . x)} in column x + a.  The
    assignment is an exact group homomorphism into monomial matrices with
    entries in {+/-1, +/-i}.
    """
    genus = h.vector.dim // 2
    if genus > representation_cap:
        raise ValueError(
            f"genus {genus} exceeds the representation cap {representation_cap}"
        )
    xs = range(1 << genus)
    a_bits = _a_part(h.vector)
    b_bits = _b_part(h.vector)
    return MonomialMatrix(
        tuple(x ^ a_bits for x in xs),
        tuple((h.central + 2 * (x & b_bits).bit_count()) & 3 for x in xs),
    )
