"""Twisted group algebra of two-torsion classes and a finite Heisenberg model.

Two deliberately separate models live here.

The *twisted group algebra* realizes the lifted actions [Z] relative to a
reference spin structure sigma: composition is the sign-free rule
[Z'] . [Z] = [Z' + Z], while moving the reference by ell multiplies the
[Z] symbol by (-1)^{<Z, ell>}.  Averaging all symbols yields projections
P_sigma that are idempotent and mutually orthogonal.  Elements are exact integer
vectors over one denominator; products run through the fast Walsh-Hadamard transform.

The *Heisenberg group* is the central extension of GF(2)^{2g} by Z/4 with
the honest projective cocycle, acting on functions GF(2)^g -> C through
monomial matrices whose entries are powers of i.  Each model is verified
internally; no identification between them is claimed.

``HeisenbergElement.__mul__`` is the one place the cocycle is written;
``inverse`` reads c(v, v) off a product.  The product stays inline, the
cocycle and the vector built in place, because ``check all`` spends most of
its time in it: the plain form is about 15% slower on that workload (see
the comment in ``__mul__``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterator

from ._value import Value, _new, _setattr
from .f2 import F2Vector, SymplecticF2Space
from .spin import QuadraticRefinement, _check_w2_bits, _lift_sign

#: Largest genus for which the 2^g-dimensional representation is built.
DEFAULT_REPRESENTATION_CAP = 10

_Scalar = (int, Fraction)


# ---------------------------------------------------------------------------
# twisted group algebra


def _walsh_hadamard(values: list[int]) -> list[int]:
    """Unnormalized Walsh-Hadamard transform of values, in place; applied twice it scales by n.

    Each of the log2(n) stages sends entries i, i + n/2 to 2i, 2i + 1, rotating the index bits once.
    """
    half = len(values) >> 1
    for _ in range(half.bit_length()):
        left, right = values[:half], values[half:]
        values[0::2] = map(add, left, right)
        values[1::2] = map(sub, left, right)
    return values


class TwistedAlgebraElement:
    """A rational combination of symbols [Z] over a reference spin structure.

    The coefficient of [Z] is numerators[Z.bits] / denominator, one positive
    denominator for all, in lowest terms so that equal elements store equal tuples.
    """

    __slots__ = ("spin", "numerators", "denominator")

    def __init__(self, spin: QuadraticRefinement, coeffs: dict[int, Fraction] | None = None):
        spin.space._check_enumeration_cap()
        size = 1 << spin.space.dimension
        coeffs = coeffs or {}
        for mask, value in coeffs.items():
            if not 0 <= mask < size:
                raise ValueError(f"support mask {mask} outside the {size} group elements")
            if not isinstance(value, _Scalar):
                raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")
        # over the lcm of the reduced denominators the vector is already in lowest terms
        denominator = math.lcm(*(Fraction(value).denominator for value in coeffs.values()))
        numerators = [0] * size
        for mask, value in coeffs.items():
            numerators[mask] = int(value * denominator)
        self.spin, self.numerators, self.denominator = spin, tuple(numerators), denominator

    @classmethod
    def _trusted(
        cls, spin: QuadraticRefinement, numerators: tuple[int, ...], denominator: int
    ) -> "TwistedAlgebraElement":
        """The element numerators / denominator, already in lowest terms, without validation."""
        element = cls.__new__(cls)
        element.spin, element.numerators, element.denominator = spin, numerators, denominator
        return element

    @classmethod
    def _reduced(cls, spin: QuadraticRefinement, numerators, denominator: int) -> "TwistedAlgebraElement":
        """The element numerators / denominator, brought to lowest terms."""
        common = math.gcd(denominator, *numerators)
        if common != 1:
            denominator //= common
            numerators = [n // common for n in numerators]
        return cls._trusted(spin, tuple(numerators), denominator)

    @classmethod
    def symbol(cls, spin: QuadraticRefinement, z: F2Vector, coefficient=1) -> "TwistedAlgebraElement":
        """The single symbol coefficient * [Z]."""
        spin.space._check_member(z)
        return cls(spin, {z.bits: Fraction(coefficient)})

    @classmethod
    def zero(cls, spin: QuadraticRefinement) -> "TwistedAlgebraElement":
        return cls(spin, {})

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The non-zero coefficients by mask."""
        return {m: Fraction(n, self.denominator) for m, n in enumerate(self.numerators) if n}

    def coefficient(self, z: F2Vector) -> Fraction:
        self.spin.space._check_member(z)
        return Fraction(self.numerators[z.bits], self.denominator)

    @property
    def is_zero(self) -> bool:
        return not any(self.numerators)

    def support(self) -> list[F2Vector]:
        dim = self.spin.space.dimension
        return [F2Vector(mask, dim) for mask, n in enumerate(self.numerators) if n]

    def _require_same_spin(self, other: "TwistedAlgebraElement") -> None:
        if self.spin != other.spin:
            raise ValueError("mismatched reference spin structures")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedAlgebraElement):
            return NotImplemented
        same_scale = self.spin == other.spin and self.denominator == other.denominator
        return same_scale and self.numerators == other.numerators

    def __add__(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        self._require_same_spin(other)
        denominator = math.lcm(self.denominator, other.denominator)
        left, right = denominator // self.denominator, denominator // other.denominator
        numerators = [left * a + right * b for a, b in zip(self.numerators, other.numerators)]
        return self._reduced(self.spin, numerators, denominator)

    def __neg__(self) -> "TwistedAlgebraElement":
        return self._reduced(self.spin, [-n for n in self.numerators], self.denominator)

    def __sub__(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TwistedAlgebraElement):
            return self._convolve(other)
        if isinstance(other, _Scalar):
            scalar = Fraction(other)
            numerators = [n * scalar.numerator for n in self.numerators]
            return self._reduced(self.spin, numerators, self.denominator * scalar.denominator)
        return NotImplemented

    __rmul__ = __mul__  # only ever reached with a scalar on the left

    def _convolve(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        """Group-algebra product under [Z'] . [Z] = [Z' + Z], extended bilinearly.

        That is the XOR convolution of the numerator vectors: a pointwise
        product between Walsh-Hadamard transforms, whose inverse divides by 2^{2g}.
        """
        self._require_same_spin(other)
        left = _walsh_hadamard(list(self.numerators))
        right = _walsh_hadamard(list(other.numerators))
        product = _walsh_hadamard(list(map(mul, left, right)))
        denominator = self.denominator * other.denominator * len(product)
        return self._reduced(self.spin, product, denominator)

    def rebase(self, ell: F2Vector) -> "TwistedAlgebraElement":
        """Rewrite over the reference moved by ell: [Z] picks up (-1)^{<Z, ell>}.

        An element expressed over sigma + ell becomes the same element
        expressed over sigma; rebasing twice by the same ell is the identity.
        """
        space = self.spin.space
        dual = space.dual_bits(ell)
        # signs[m] = (-1)^{<Z, ell>} for Z of mask m, doubled over the coordinates:
        # the masks with bit j set repeat the signs below them, negated if dual has bit j
        signs = [1]
        for j in range(space.dimension):
            signs += [-s for s in signs] if dual >> j & 1 else signs
        numerators = tuple(map(mul, self.numerators, signs))
        # sign flips keep the gcd, so the result is still in lowest terms
        return self._trusted(self.spin.shift(ell), numerators, self.denominator)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        dim = self.spin.space.dimension
        return " + ".join(f"{v}*[{F2Vector(m, dim)}]" for m, v in self.coeffs.items())


def projection(sigma: QuadraticRefinement) -> TwistedAlgebraElement:
    """The averaging projection P_sigma = 2^{-2g} sum over all [Z].

    The 2^{-2g} normalization is the only one that is idempotent under
    the composition rule: the convolution square of the full sum carries
    a factor 2^{2g}, so a 1/2^g weight would not square to itself.
    """
    sigma.space._check_enumeration_cap()
    size = 1 << sigma.space.dimension
    return TwistedAlgebraElement._reduced(sigma, (1,) * size, size)


def orthogonality_check(sigma: QuadraticRefinement, ell: F2Vector) -> bool:
    """Whether P_{sigma + ell} . P_sigma vanishes identically, computed symbolically."""
    if ell.is_zero:
        raise ValueError("ell must be a non-trivial class")
    return (projection(sigma.shift(ell)).rebase(ell) * projection(sigma)).is_zero


def trace_functional(x: TwistedAlgebraElement, base_dim: int, lambda_rho: int, w2: int) -> Fraction:
    """Linear trace of a twisted-algebra element.

    [0] traces to the base dimension; a non-trivial [Z] traces to its
    lift sign times (lambda_rho + 1)^{g-1}.
    """
    terms = [(mask, n) for mask, n in enumerate(x.numerators[1:], start=1) if n]
    if terms:
        _check_w2_bits(w2, 1)
    signed = sum(n * _lift_sign(x.spin, mask, w2, 1) for mask, n in terms)
    weight = (lambda_rho + 1) ** (x.spin.space.genus - 1)
    return Fraction(x.numerators[0] * base_dim + signed * weight, x.denominator)


# ---------------------------------------------------------------------------
# Heisenberg group and its monomial representation


def _compressed_part(v: F2Vector, offset: int) -> int:
    """The a-coordinates (offset 0) or b-coordinates (offset 1) of v as a g-bit mask."""
    bits = 0
    for i in range(v.dim // 2):
        bits |= ((v.bits >> (2 * i + offset)) & 1) << i
    return bits


class HeisenbergElement(Value):
    """An element (t, v) of the extension of GF(2)^{2g} by Z/4.

    Multiplication is (t, v)(t', v') = (t + t' + 2 c(v, v'), v + v') with
    c the polarized cocycle of ``__mul__``; the commutator of (., v) and
    (., v') is the central element (-1)^{<v, v'>} and the center is
    {(t, 0)} = Z/4.
    """

    central: int
    vector: F2Vector

    def __init__(self, central: int, vector: F2Vector) -> None:
        if not 0 <= central < 4:
            raise ValueError(f"central part must be reduced mod 4, got {central}")
        self._store(central=central, vector=vector)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """(t, v)(t', w) = (t + t' + 2 c(v, w), v + w), the one place the cocycle is written.

        c(v, w) = sum_i a_i(v) b_i(w) mod 2 is a polarization of the
        symplectic pairing.  It is not symmetric; its antisymmetrization is
        <v, w>, which is what makes the extension genuinely non-commutative.
        """
        v, w = self.vector, other.vector
        dim = v.dim
        if dim != w.dim:
            raise ValueError("dimension mismatch between Heisenberg elements")
        v_bits, w_bits = v.bits, w.bits
        # 2 c(v, w): ((1 << dim) - 1) // 3 is the mask of the a-positions, and
        # the & 3 below keeps only the parity of the count.  The cocycle and the
        # product's vector are built inline because that pays: the plain
        # HeisenbergElement(..., v + w) with the mask from f2._a_positions_mask
        # took the benchmark workload ``identities`` (``check all``) from 0.406
        # to 0.466 s, medians of 5 alternating runs of wall_s at reference speed
        twist = (v_bits & (w_bits >> 1) & ((1 << dim) - 1) // 3).bit_count() << 1
        vector = _new(F2Vector)
        _setattr(vector, "bits", v_bits ^ w_bits)
        _setattr(vector, "dim", dim)
        element = _new(HeisenbergElement)
        _setattr(element, "central", (self.central + other.central + twist) & 3)
        _setattr(element, "vector", vector)
        return element

    def inverse(self) -> "HeisenbergElement":
        # (t, v)^-1 = (-t - 2 c(v, v), v), with t + 2 c(v, v) read off (t, v)(0, v)
        square = self * HeisenbergElement(0, self.vector)
        return HeisenbergElement(-square.central % 4, self.vector)


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


class MonomialMatrix(Value):
    """An exact n x n matrix with a single non-zero entry per row, a power of i.

    Row x holds i^phases[x] in column columns[x]; phases are reduced mod 4,
    so equal matrices compare and hash equal.
    """

    columns: tuple[int, ...]
    phases: tuple[int, ...]

    def __init__(self, columns: tuple[int, ...], phases: tuple[int, ...]) -> None:
        if len(columns) != len(phases):
            raise ValueError("columns and phases must have one entry per row")
        if not set(phases) <= {0, 1, 2, 3}:
            raise ValueError("phases must be reduced mod 4")
        n = len(columns)
        if n and not (0 <= min(columns) and max(columns) < n):
            raise ValueError(f"columns must lie in range({n})")
        self._store(columns=columns, phases=phases)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.columns == other.columns and self.phases == other.phases

    def __hash__(self) -> int:
        return hash((self.columns, self.phases))

    @classmethod
    def _trusted(cls, columns: tuple[int, ...], phases: tuple[int, ...]) -> "MonomialMatrix":
        """The matrix (columns, phases) without validation, for values valid by construction."""
        matrix = _new(cls)
        _setattr(matrix, "columns", columns)
        _setattr(matrix, "phases", phases)
        return matrix

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(tuple(range(n)), (0,) * n)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        # row x of self picks row columns[x] of other
        columns, phases = other.columns, other.phases
        if len(columns) != len(self.columns):
            raise ValueError(f"size mismatch: {len(self.columns)} x {len(columns)} monomial matrices")
        product_columns, product_phases = [], []
        for c, t in zip(self.columns, self.phases):
            product_columns.append(columns[c])
            product_phases.append((t + phases[c]) & 3)
        return MonomialMatrix._trusted(tuple(product_columns), tuple(product_phases))

    def __neg__(self) -> "MonomialMatrix":
        return MonomialMatrix._trusted(self.columns, tuple([(t + 2) & 3 for t in self.phases]))

    def times_i(self) -> "MonomialMatrix":
        return MonomialMatrix._trusted(self.columns, tuple([(t + 1) & 3 for t in self.phases]))

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
        raise ValueError(f"genus {genus} exceeds the representation cap {representation_cap}")
    xs = range(1 << genus)
    a_bits = _compressed_part(h.vector, 0)
    b_bits = _compressed_part(h.vector, 1)
    return MonomialMatrix(
        tuple(x ^ a_bits for x in xs),
        tuple((h.central + 2 * (x & b_bits).bit_count()) & 3 for x in xs),
    )
