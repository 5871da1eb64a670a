"""Symplectic linear algebra over GF(2).

Models the mod-2 first cohomology of a closed genus-g surface together
with its cup-product pairing.  Vectors are fixed-width bit masks in the
basis a1, b1, a2, b2, ..., ag, bg: bit 2(i-1) carries the a_i coordinate
and bit 2(i-1)+1 the b_i coordinate.  With that layout the pairing is a
mask-and-popcount operation, O(1) for any genus we will ever meet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Largest genus for which brute-force enumeration of all 2^{2g} vectors
#: is permitted by default (2^12 = 4096 vectors at the cap).
DEFAULT_ENUMERATION_CAP = 6


class EnumerationCapError(ValueError):
    """A brute-force sweep would exceed the configured genus cap."""


def _a_positions_mask(genus: int) -> int:
    # bits 0, 2, 4, ... up to 2g-2: the a-coordinate positions, 0b0101... = (4^g - 1) / 3
    return ((1 << 2 * genus) - 1) // 3


@dataclass(frozen=True)
class F2Vector:
    """A vector in GF(2)^{2g}, stored as a bit mask of its coordinates."""

    bits: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.dim % 2:
            raise ValueError(f"dimension must be a positive even integer, got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise ValueError(f"bit mask {self.bits} out of range for dimension {self.dim}")

    def __add__(self, other: "F2Vector") -> "F2Vector":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return F2Vector(self.bits ^ other.bits, self.dim)

    __xor__ = __add__

    def coordinate(self, index: int) -> int:
        """Coordinate at 0-based position ``index`` in the a1,b1,a2,b2,... order."""
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


@dataclass(frozen=True)
class SymplecticF2Space:
    """GF(2)^{2g} with the standard symplectic pairing <a_i, b_i> = 1.

    The pairing is symmetric (characteristic two), alternating and
    non-degenerate; it is the cup product on the mod-2 cohomology of a
    genus-g surface in a standard geometric basis.
    """

    genus: int
    enumeration_cap: int = field(default=DEFAULT_ENUMERATION_CAP, compare=False)

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError(f"genus must be a positive integer, got {self.genus}")

    @property
    def dimension(self) -> int:
        return 2 * self.genus

    @property
    def zero(self) -> F2Vector:
        return F2Vector(0, self.dimension)

    def vector(self, bits: int | Iterable[int]) -> F2Vector:
        """Build a vector from a bit mask or from an iterable of 2g coordinates."""
        if isinstance(bits, int):
            return F2Vector(bits, self.dimension)
        coords = list(bits)
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates, got {len(coords)}")
        mask = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError(f"coordinates must be bits, got {c!r}")
            mask |= c << i
        return F2Vector(mask, self.dimension)

    def basis_a(self, i: int) -> F2Vector:
        """The basis vector a_i, 1 <= i <= g."""
        if not 1 <= i <= self.genus:
            raise IndexError(f"a_{i} does not exist at genus {self.genus}")
        return F2Vector(1 << (2 * (i - 1)), self.dimension)

    def basis_b(self, i: int) -> F2Vector:
        """The basis vector b_i, 1 <= i <= g."""
        if not 1 <= i <= self.genus:
            raise IndexError(f"b_{i} does not exist at genus {self.genus}")
        return F2Vector(1 << (2 * (i - 1) + 1), self.dimension)

    def basis(self) -> tuple[F2Vector, ...]:
        return tuple(F2Vector(1 << j, self.dimension) for j in range(self.dimension))

    def _check_member(self, v: F2Vector) -> None:
        if v.dim != self.dimension:
            raise ValueError(
                f"dimension mismatch: vector has dimension {v.dim}, space has {self.dimension}"
            )

    def dual_bits(self, v: F2Vector) -> int:
        """Bit mask of the linear functional <v, .>: position j holds <v, e_j>."""
        self._check_member(v)
        a_mask = _a_positions_mask(self.genus)
        # pairing against basis vectors swaps each (a_i, b_i) pair of bits
        return ((v.bits & a_mask) << 1) | ((v.bits >> 1) & a_mask)

    def pair(self, v: F2Vector, w: F2Vector) -> int:
        """The symplectic pairing <v, w> in {0, 1}."""
        self._check_member(v)
        self._check_member(w)
        return (v.bits & self.dual_bits(w)).bit_count() & 1

    def _check_enumeration_cap(self) -> None:
        """Refuse anything that walks or stores all 2^{2g} vectors above the cap."""
        if self.genus > self.enumeration_cap:
            raise EnumerationCapError(
                f"genus {self.genus} exceeds enumeration cap {self.enumeration_cap}"
            )

    def vectors(self) -> Iterator[F2Vector]:
        """All 2^{2g} vectors, in increasing bit-mask (lexicographic) order."""
        self._check_enumeration_cap()
        dim = self.dimension
        for mask in range(1 << dim):
            yield F2Vector(mask, dim)

    def character_sum(self, b: F2Vector) -> int:
        """Sum over all vectors l of (-1)^{<b, l>}.

        Vanishes unless b = 0, in which case every term is +1 and the sum
        is the full group order 2^{2g}.
        """
        self._check_member(b)
        return (1 << self.dimension) if b.is_zero else 0
