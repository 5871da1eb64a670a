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
``inverse`` reads c(v, v) off a product.  ``check all`` spends most of its
time on these products, so both are built for speed: a ``MonomialMatrix``
stores the images of its n basis points e_x and, once it has been a right
operand, the map it induces on the 4n points i^s e_x, so that ``@`` is one
C-level gather of n entries; ``__mul__`` computes its cocycle and vector on
every call but takes the element itself from a bounded table (see
``_element``).  The projection suite builds P_sigma and P_(sigma+ell)
rebased by ell for every case, so those builders skip what a case cannot
change: ``projection`` is trusted to be in lowest terms, and ``rebase``
reads the signs (-1)^{<Z, ell>} from a table of 64 sign vectors keyed by
the dual mask of ell (see ``_signs``) and moves the reference through that
same mask.
``trace_functional`` likewise reads the lift signs of its reference spin
structure from a table of 64 sign vectors keyed by (spin structure, w2)
(see ``_lift_signs``), so the trace route evaluates each sign once per
(sigma, w2) rather than once per trace: 4284 + 5424 evaluations in the
``tracedecomp`` and ``traces`` suites at their defaults.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, mul, sub
from typing import Iterator

from ._value import Value, _new, _require_bit, _require_int, _require_record, _setattr
from .f2 import F2Vector, SymplecticF2Space
from .spin import QuadraticRefinement, _lift_sign

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


class TwistedAlgebraElement(Value):
    """A rational combination of symbols [Z] over a reference spin structure.

    The coefficient of [Z] is numerators[Z.bits] / denominator, one positive
    denominator for all, in lowest terms so that equal elements store equal tuples.
    """

    spin: QuadraticRefinement
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, spin: QuadraticRefinement, coeffs: dict[int, Fraction] | None = None) -> None:
        _require_record(spin, QuadraticRefinement, "spin structures")
        spin.space._check_enumeration_cap()
        size = 1 << spin.space.dimension
        coeffs = coeffs or {}
        for mask, value in coeffs.items():
            _require_int(mask, "support masks")
            if not 0 <= mask < size:
                raise ValueError(f"support mask {mask} outside the {size} group elements")
            _require_record(value, _Scalar, "coefficients", "exact rationals")
        # over the lcm of the reduced denominators the vector is already in lowest terms
        denominator = math.lcm(*(Fraction(value).denominator for value in coeffs.values()))
        numerators = tuple([int(coeffs.get(mask, 0) * denominator) for mask in range(size)])
        self._store(spin=spin, numerators=numerators, denominator=denominator)

    @classmethod
    def _trusted(
        cls, spin: QuadraticRefinement, numerators: tuple[int, ...], denominator: int
    ) -> "TwistedAlgebraElement":
        """The element numerators / denominator, already in lowest terms, without validation."""
        element = _new(cls)
        _setattr(element, "spin", spin)
        _setattr(element, "numerators", numerators)
        _setattr(element, "denominator", denominator)
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
        _require_record(spin, QuadraticRefinement, "spin structures")
        spin.space._check_member(z)
        return cls(spin, {z.bits: coefficient})

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

    def __add__(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        if not isinstance(other, TwistedAlgebraElement):
            return NotImplemented
        self._require_same_spin(other)
        denominator = math.lcm(self.denominator, other.denominator)
        left, right = denominator // self.denominator, denominator // other.denominator
        numerators = [left * a + right * b for a, b in zip(self.numerators, other.numerators)]
        return self._reduced(self.spin, numerators, denominator)

    def __neg__(self) -> "TwistedAlgebraElement":
        return self._reduced(self.spin, [-n for n in self.numerators], self.denominator)

    def __sub__(self, other: "TwistedAlgebraElement") -> "TwistedAlgebraElement":
        if not isinstance(other, TwistedAlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TwistedAlgebraElement):
            return self._convolve(other)
        # a bool is no scalar: True * x is a TypeError, not x
        if isinstance(other, _Scalar) and other.__class__ is not bool:
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
        spin = self.spin
        space = spin.space
        space._check_member(ell)
        dual = space._dual_mask(ell.bits)
        numerators = tuple(map(mul, self.numerators, _signs(space.dimension, dual)))
        # sign flips keep the gcd, so the result is still in lowest terms; the
        # reference is spin.shift(ell), built from the dual mask already in hand
        moved = QuadraticRefinement._trusted(space, spin.basis_values ^ dual)
        return self._trusted(moved, numerators, self.denominator)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        dim = self.spin.space.dimension
        return " + ".join(f"{v}*[{F2Vector(m, dim)}]" for m, v in self.coeffs.items())


@lru_cache(maxsize=64)
def _signs(dimension: int, dual: int) -> tuple[int, ...]:
    """signs[m] = (-1)^{<Z, ell>} for Z of mask m, where dual is the mask of <ell, .>.

    Doubled over the coordinates: the masks with bit j set repeat the signs
    below them, negated if dual has bit j.  The table keeps 64 sign vectors of
    2^dimension entries each (sys.getsizeof 552 bytes at genus 3, 32.8 KB at
    the default enumeration cap, genus 6, so at most 2.1 MB there).
    """
    signs = [1]
    for j in range(dimension):
        signs += [-s for s in signs] if dual >> j & 1 else signs
    return tuple(signs)


def projection(sigma: QuadraticRefinement) -> TwistedAlgebraElement:
    """The averaging projection P_sigma = 2^{-2g} sum over all [Z].

    The 2^{-2g} normalization is the only one that is idempotent under
    the composition rule: the convolution square of the full sum carries
    a factor 2^{2g}, so a 1/2^g weight would not square to itself.
    """
    _require_record(sigma, QuadraticRefinement, "spin structures")
    sigma.space._check_enumeration_cap()
    size = 1 << sigma.space.dimension
    # the numerators (1, ..., 1) over 2^{2g} are already in lowest terms
    return TwistedAlgebraElement._trusted(sigma, (1,) * size, size)


def orthogonality_check(sigma: QuadraticRefinement, ell: F2Vector) -> bool:
    """Whether P_{sigma + ell} . P_sigma vanishes identically, computed symbolically."""
    _require_record(sigma, QuadraticRefinement, "spin structures")
    # a value that is no vector of the space is refused by shift, below
    if ell == sigma.space.zero:
        raise ValueError("ell must be a non-trivial class")
    return (projection(sigma.shift(ell)).rebase(ell) * projection(sigma)).is_zero


def trace_functional(x: TwistedAlgebraElement, base_dim: int, lambda_rho: int, w2: int) -> Fraction:
    """Linear trace of a twisted-algebra element.

    [0] traces to the base dimension; a non-trivial [Z] traces to its
    lift sign times (lambda_rho + 1)^{g-1}.  The signs come from the table
    of x's reference spin structure and w2 (see ``_lift_signs``), so a
    structure traced again, as by every (base, lambda) of ``tracedecomp``
    and every level of ``traces``, evaluates none of them again; the inputs
    are checked on every call, then ``_trace`` computes.  The table holds 64
    vectors of 4^g small ints, 32.8 KB each at the enumeration cap, so 2.1 MB.
    """
    _require_record(x, TwistedAlgebraElement, "twisted-algebra elements")
    _require_int(base_dim, "base dimensions")
    _require_int(lambda_rho, "lambda_rho values")
    _require_bit(w2, "w2")
    return _trace(x, base_dim, lambda_rho, w2)


def _trace(x: TwistedAlgebraElement, base_dim: int, lambda_rho: int, w2: int) -> Fraction:
    """trace_functional of inputs already checked."""
    signed = sum(map(mul, x.numerators, _lift_signs(x.spin, w2)))
    weight = (lambda_rho + 1) ** (x.spin.space.genus - 1)
    return Fraction(x.numerators[0] * base_dim + signed * weight, x.denominator)


@lru_cache(maxsize=64)
def _lift_signs(spin: QuadraticRefinement, w2: int) -> tuple[int, ...]:
    """signs[m] = _lift_sign(spin, m, w2, 1) for every non-zero mask m, and 0 at mask 0.

    The 0 keeps [0], which traces to the base dimension, out of the signed
    sum.  The table keeps 64 vectors of 4^g small ints (sys.getsizeof 552
    bytes at genus 3, 32.8 KB at the default enumeration cap, genus 6, so at
    most 2.1 MB there), as ``_signs`` does.
    """
    return (0, *[_lift_sign(spin, mask, w2, 1) for mask in range(1, 1 << spin.space.dimension)])


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
        _require_int(central, "central parts")
        _require_record(vector, F2Vector, "vectors")
        if not 0 <= central < 4:
            raise ValueError(f"central part must be reduced mod 4, got {central}")
        self._store(central=central, vector=vector)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """(t, v)(t', w) = (t + t' + 2 c(v, w), v + w), the one place the cocycle is written.

        c(v, w) = sum_i a_i(v) b_i(w) mod 2 is a polarization of the
        symplectic pairing.  It is not symmetric; its antisymmetrization is
        <v, w>, which is what makes the extension genuinely non-commutative.
        """
        try:
            w = other.vector
        except AttributeError:
            return NotImplemented
        v = self.vector
        dim = v.dim
        if dim != w.dim:
            raise ValueError("dimension mismatch between Heisenberg elements")
        v_bits, w_bits = v.bits, w.bits
        # 2 c(v, w): ((1 << dim) - 1) // 3 is the mask of the a-positions, and
        # the & 3 below keeps only the parity of the count
        twist = (v_bits & (w_bits >> 1) & ((1 << dim) - 1) // 3).bit_count() << 1
        return _element((self.central + other.central + twist) & 3, v_bits ^ w_bits, dim)

    def inverse(self) -> "HeisenbergElement":
        # (t, v)^-1 = (-t - 2 c(v, v), v), with t + 2 c(v, v) read off (t, v)(0, v)
        square = self * HeisenbergElement(0, self.vector)
        return HeisenbergElement(-square.central % 4, self.vector)


@lru_cache(maxsize=4096)
def _element(central: int, bits: int, dim: int) -> HeisenbergElement:
    """The element (central, F2Vector(bits, dim)), built once while it stays in the table.

    4096 entries hold every element up to genus 5.  Building the vector and
    the element through ``object.__setattr__`` costs more than the cocycle;
    a genus-3 product takes 0.34 us through the table (timeit, best of 5,
    2-vCPU machine, Python 3.11).
    """
    element = _new(HeisenbergElement)
    _setattr(element, "central", central)
    _setattr(element, "vector", F2Vector._trusted(bits, dim))
    return element


class HeisenbergGroup(Value):
    """The order-2^{2g+2} central extension attached to a genus-g surface."""

    genus: int

    def __init__(self, genus: int) -> None:
        # the space of the vector parts, which validates the genus; it is not a field
        self._store(genus=genus, space=SymplecticF2Space(genus))

    def element(self, central: int, vector: F2Vector) -> HeisenbergElement:
        _require_int(central, "central parts")  # before central % 4 turns a bool into an int
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
    and several rows may share a column.  The matrix is stored as the images
    of its n basis points, images[x] = 4 columns[x] + phases[x], the point
    i^phases[x] e_columns[x] that e_x goes to, so equal matrices compare and
    hash equal.  A monomial map commutes with multiplication by i, so those n
    images decide the map on all 4n points i^s e_x: the first time a matrix
    is a right operand it builds that map (``_points``), a private attribute
    that is no field, and every product a @ b is then one gather of a's n
    images from b's point map.
    """

    # the point map of a right operand; a slot, so vars(), pickle and copy carry the field alone
    __slots__ = ("_points",)

    images: tuple[int, ...]

    def __init__(self, columns: tuple[int, ...], phases: tuple[int, ...]) -> None:
        if len(columns) != len(phases):
            raise ValueError("columns and phases must have one entry per row")
        for entry in (*columns, *phases):
            _require_int(entry, "columns and phases")
        if not set(phases) <= {0, 1, 2, 3}:
            raise ValueError("phases must be reduced mod 4")
        n = len(columns)
        if n and not (0 <= min(columns) and max(columns) < n):
            raise ValueError(f"columns must lie in range({n})")
        self._store(images=tuple([4 * c + t for c, t in zip(columns, phases)]))

    def __getstate__(self) -> dict:
        return {"images": self.images}

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple([image >> 2 for image in self.images])

    @property
    def phases(self) -> tuple[int, ...]:
        return tuple([image & 3 for image in self.images])

    def __repr__(self) -> str:
        return f"MonomialMatrix(columns={self.columns!r}, phases={self.phases!r})"

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "MonomialMatrix":
        """The matrix of the basis images without validation, for values valid by construction."""
        matrix = _new(cls)
        _setattr(matrix, "images", images)
        return matrix

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        _require_int(n, "matrix sizes")
        if n < 0:
            raise ValueError(f"matrix size must be non-negative, got {n}")
        return cls(tuple(range(n)), (0,) * n)

    def _point_map(self) -> tuple[int, ...]:
        """points[4x + s] = 4 columns[x] + (phases[x] + s) mod 4, the image of i^s e_x; built once."""
        points = tuple([image & -4 | (image + s) & 3 for image in self.images for s in range(4)])
        _setattr(self, "_points", points)
        return points

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        # e_x goes to the point images[x] under self, and on through other's point map
        try:
            points = other._points
        except AttributeError:
            if not isinstance(other, MonomialMatrix):
                return NotImplemented
            points = other._point_map()
        images = self.images
        n = len(images)
        if n << 2 != len(points):
            raise ValueError(f"size mismatch: {n} x {len(points) >> 2} monomial matrices")
        # itemgetter() with no index raises, and of one index returns the bare item
        gathered = itemgetter(*images)(points) if n > 1 else tuple([points[i] for i in images])
        product = _new(MonomialMatrix)
        _setattr(product, "images", gathered)
        return product

    def __neg__(self) -> "MonomialMatrix":
        return MonomialMatrix._trusted(tuple([image ^ 2 for image in self.images]))

    def times_i(self) -> "MonomialMatrix":
        return MonomialMatrix._trusted(tuple([image & -4 | (image + 1) & 3 for image in self.images]))

    def trace(self) -> tuple[int, int]:
        """Trace as a Gaussian integer (real part, imaginary part), from the fixed points."""
        fixed = [_UNITS[image & 3] for x, image in enumerate(self.images) if image >> 2 == x]
        return sum(re for re, _ in fixed), sum(im for _, im in fixed)


def heisenberg_rep(h: HeisenbergElement) -> MonomialMatrix:
    """The 2^g-dimensional monomial representation of a Heisenberg element.

    On functions f : GF(2)^g -> C the vector part acts by
    (W(a, b) f)(x) = (-1)^{b . x} f(x + a) and the central generator by i,
    so row x has the entry i^{t + 2 (b . x)} in column x + a.  The
    assignment is an exact group homomorphism into monomial matrices with
    entries in {+/-1, +/-i}.
    """
    _require_record(h, HeisenbergElement, "Heisenberg elements")
    genus = h.vector.dim // 2
    if genus > DEFAULT_REPRESENTATION_CAP:
        raise ValueError(f"genus {genus} exceeds the representation cap {DEFAULT_REPRESENTATION_CAP}")
    a_bits = _compressed_part(h.vector, 0)
    b_bits = _compressed_part(h.vector, 1)
    central = h.central
    # row x: the entry i^{t + 2 (b . x)} in column x + a, as the point 4 (x + a) + phase
    return MonomialMatrix._trusted(
        tuple([(x ^ a_bits) << 2 | (central + 2 * (x & b_bits).bit_count()) & 3 for x in range(1 << genus)])
    )
