"""Symplectic linear algebra over GF(2).

Models the mod-2 first cohomology of a closed genus-g surface together
with its cup-product pairing.  Vectors are fixed-width bit masks in the
basis a1, b1, a2, b2, ..., ag, bg: bit 2(i-1) carries the a_i coordinate
and bit 2(i-1)+1 the b_i coordinate.  With that layout the pairing is a
mask-and-popcount operation, O(1) for any genus we will ever meet.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ._value import Value, _new, _require_bit, _require_genus, _require_int, _require_record, _setattr

#: Largest genus for which brute-force enumeration of all 2^{2g} vectors
#: is permitted (2^12 = 4096 vectors at the cap).
DEFAULT_ENUMERATION_CAP = 6


class EnumerationCapError(ValueError):
    """A brute-force sweep would exceed the enumeration cap."""


def _a_positions_mask(genus: int) -> int:
    # bits 0, 2, 4, ... up to 2g-2: the a-coordinate positions, 0b0101... = (4^g - 1) / 3
    return ((1 << 2 * genus) - 1) // 3


class F2Vector(Value):
    """A vector in GF(2)^{2g}, stored as a bit mask of its coordinates."""

    bits: int
    dim: int

    def __init__(self, bits: int, dim: int) -> None:
        _require_int(bits, "bit masks")
        _require_int(dim, "dimensions")
        if dim <= 0 or dim % 2:
            raise ValueError(f"dimension must be a positive even integer, got {dim}")
        if not 0 <= bits < (1 << dim):
            raise ValueError(f"bit mask {bits} out of range for dimension {dim}")
        self._store(bits=bits, dim=dim)

    @classmethod
    def _trusted(cls, bits: int, dim: int) -> "F2Vector":
        """The vector (bits, dim) without validation, for values valid by construction."""
        vector = _new(cls)
        _setattr(vector, "bits", bits)
        _setattr(vector, "dim", dim)
        return vector

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if not isinstance(other, F2Vector):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return F2Vector._trusted(self.bits ^ other.bits, self.dim)

    __xor__ = __add__

    def coordinate(self, index: int) -> int:
        """Coordinate at 0-based position ``index`` in the a1,b1,a2,b2,... order."""
        _require_int(index, "coordinate indices")
        if not 0 <= index < self.dim:
            raise IndexError(f"coordinate index {index} out of range for dimension {self.dim}")
        return (self.bits >> index) & 1

    def coordinates(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.dim))

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def weight(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        names = []
        for i in range(self.dim):
            if (self.bits >> i) & 1:
                kind = "a" if i % 2 == 0 else "b"
                names.append(f"{kind}{i // 2 + 1}")
        return "+".join(names)


class SymplecticF2Space(Value):
    """GF(2)^{2g} with the standard symplectic pairing <a_i, b_i> = 1.

    The pairing is symmetric (characteristic two), alternating and
    non-degenerate; it is the cup product on the mod-2 cohomology of a
    genus-g surface in a standard geometric basis.
    """

    genus: int

    def __init__(self, genus: int) -> None:
        _require_genus(genus)
        # _a_mask is read by every pairing and refinement evaluation; it is not a field
        self._store(genus=genus, _a_mask=_a_positions_mask(genus))

    @property
    def dimension(self) -> int:
        return 2 * self.genus

    @property
    def zero(self) -> F2Vector:
        return F2Vector(0, self.dimension)

    def vector(self, bits: int | Iterable[int]) -> F2Vector:
        """Build a vector from a bit mask or from an iterable of 2g coordinates."""
        if not isinstance(bits, Iterable):  # a mask, which F2Vector refuses unless an int
            return F2Vector(bits, self.dimension)
        coords = list(bits)
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates, got {len(coords)}")
        mask = 0
        for i, c in enumerate(coords):
            _require_bit(c, "coordinate")
            mask |= c << i
        return F2Vector(mask, self.dimension)

    def basis_a(self, i: int) -> F2Vector:
        """The basis vector a_i, 1 <= i <= g."""
        _require_int(i, "basis indices")
        if not 1 <= i <= self.genus:
            raise IndexError(f"a_{i} does not exist at genus {self.genus}")
        return F2Vector(1 << (2 * (i - 1)), self.dimension)

    def basis_b(self, i: int) -> F2Vector:
        """The basis vector b_i, 1 <= i <= g."""
        _require_int(i, "basis indices")
        if not 1 <= i <= self.genus:
            raise IndexError(f"b_{i} does not exist at genus {self.genus}")
        return F2Vector(1 << (2 * (i - 1) + 1), self.dimension)

    def basis(self) -> tuple[F2Vector, ...]:
        dim = self.dimension
        return tuple(F2Vector._trusted(1 << j, dim) for j in range(dim))

    def _check_member(self, v: F2Vector) -> None:
        """The one membership check: an F2Vector (else TypeError) of the space's dimension (else ValueError)."""
        _require_record(v, F2Vector, "vectors")
        if v.dim != 2 * self.genus:
            raise ValueError(f"dimension mismatch: vector has dimension {v.dim}, space has {self.dimension}")

    def _dual_mask(self, bits: int) -> int:
        """dual_bits on a bare mask: pairing against basis vectors swaps each (a_i, b_i) pair of bits."""
        a_mask = self._a_mask
        return ((bits & a_mask) << 1) | ((bits >> 1) & a_mask)

    def dual_bits(self, v: F2Vector) -> int:
        """Bit mask of the linear functional <v, .>: position j holds <v, e_j>."""
        self._check_member(v)
        return self._dual_mask(v.bits)

    def pair(self, v: F2Vector, w: F2Vector) -> int:
        """The symplectic pairing <v, w> in {0, 1}."""
        # one class test for both, before the dimensions, which a value of another type may not have
        if not v.__class__ is w.__class__ is F2Vector or v.dim != 2 * self.genus or w.dim != 2 * self.genus:
            self._check_member(v)
            self._check_member(w)
        return (v.bits & self._dual_mask(w.bits)).bit_count() & 1

    def _check_enumeration_cap(self) -> None:
        """Refuse anything that walks or stores all 2^{2g} vectors above the cap."""
        if self.genus > DEFAULT_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"genus {self.genus} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}"
            )

    def vectors(self) -> Iterator[F2Vector]:
        """All 2^{2g} vectors, in increasing bit-mask (lexicographic) order."""
        self._check_enumeration_cap()
        dim = self.dimension
        for mask in range(1 << dim):
            yield F2Vector._trusted(mask, dim)

    def character_sum(self, b: F2Vector) -> int:
        """Sum over all vectors l of (-1)^{<b, l>}.

        Vanishes unless b = 0, in which case every term is +1 and the sum
        is the full group order 2^{2g}.
        """
        self._check_member(b)
        return (1 << self.dimension) if b.is_zero else 0
