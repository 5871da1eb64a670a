"""Spin structures on a surface as quadratic refinements of the cup pairing.

A spin structure on a closed genus-g surface is encoded by the quadratic
refinement q : GF(2)^{2g} -> GF(2) it induces on mod-2 cohomology, i.e.
q(v + w) = q(v) + q(w) + <v, w>.  A refinement is determined by its values
on the 2g basis vectors, and the set of refinements is a free transitive
H^1-torsor under q -> q + <l, .>.  The Arf invariant classifies the two
orbits under the symplectic group and doubles as the mod-2 index of the
Dirac operator of the corresponding spin structure.

``QuadraticRefinement._value`` is the one spelling of q on a bit mask, which
``evaluate`` and the lift signs call.
"""

from __future__ import annotations

from typing import Iterator

from ._value import Value, _new, _require_bit, _require_genus, _require_int, _setattr
from .f2 import F2Vector, SymplecticF2Space


class QuadraticRefinement(Value):
    """A quadratic refinement of the symplectic pairing, i.e. a spin structure.

    ``basis_values`` is a bit mask holding q on the ordered basis
    a1, b1, ..., ag, bg; values on arbitrary vectors follow from the
    refinement law and are independent of the expansion order.
    """

    space: SymplecticF2Space
    basis_values: int

    def __init__(self, space: SymplecticF2Space, basis_values: int) -> None:
        _require_int(basis_values, "basis values")
        if not 0 <= basis_values < (1 << space.dimension):
            raise ValueError(
                f"basis_values {basis_values} out of range for dimension {space.dimension}"
            )
        self._store(space=space, basis_values=basis_values)

    @classmethod
    def _trusted(cls, space: SymplecticF2Space, basis_values: int) -> "QuadraticRefinement":
        """The refinement (space, basis_values) without validation, for values valid by construction."""
        refinement = _new(cls)
        _setattr(refinement, "space", space)
        _setattr(refinement, "basis_values", basis_values)
        return refinement

    def _value(self, bits: int) -> int:
        """q on the bare mask of a vector of the space.

        Expanding v over the basis, the cross terms <e_i, e_j> contribute
        exactly one 1 per index i with both a_i and b_i present, so
        q(v) = sum of basis values on the support + #{i : a_i, b_i in v}.
        """
        linear = (self.basis_values & bits).bit_count()
        cross = (bits & (bits >> 1) & self.space._a_mask).bit_count()
        return (linear + cross) & 1

    def evaluate(self, v: F2Vector) -> int:
        """q(v) in {0, 1}."""
        if v.dim != 2 * self.space.genus:
            self.space._check_member(v)
        return self._value(v.bits)

    __call__ = evaluate

    def shift(self, ell: F2Vector) -> "QuadraticRefinement":
        """The refinement q + <ell, .>, realizing the torsor action sigma -> sigma + ell."""
        space = self.space
        space._check_member(ell)
        return QuadraticRefinement._trusted(space, self.basis_values ^ space._dual_mask(ell.bits))

    def arf(self) -> int:
        """The Arf invariant, as the closed form sum of q(a_i) q(b_i)."""
        values = self.basis_values
        return (values & (values >> 1) & self.space._a_mask).bit_count() & 1

    def arf_by_counting(self) -> int:
        """Arf invariant from the zero-counting definition; the independent oracle.

        epsilon = 0 iff q vanishes on the majority 2^{2g-1} + 2^{g-1} of
        vectors.  Requires the genus to sit under the enumeration cap.
        """
        zeros = sum(1 for v in self.space.vectors() if self.evaluate(v) == 0)
        g = self.space.genus
        if zeros == (1 << (2 * g - 1)) + (1 << (g - 1)):
            return 0
        if zeros == (1 << (2 * g - 1)) - (1 << (g - 1)):
            return 1
        raise AssertionError(f"impossible zero count {zeros} for a quadratic refinement")

    @classmethod
    def canonical(cls, space: SymplecticF2Space, arf_value: int) -> "QuadraticRefinement":
        """A reference refinement with the requested Arf invariant.

        arf 0: q = 0 on the basis; arf 1: q(a1) = q(b1) = 1, zero elsewhere.
        """
        _require_bit(arf_value, "Arf invariant")
        return cls(space, 0b11 if arf_value else 0)

    @classmethod
    def all_refinements(cls, space: SymplecticF2Space) -> Iterator["QuadraticRefinement"]:
        """All 2^{2g} refinements of the pairing, in basis-mask order."""
        for mask in range(1 << space.dimension):
            yield cls._trusted(space, mask)


def count_by_arf(genus: int) -> tuple[int, int]:
    """Counts of (even-Arf, odd-Arf) refinements on a genus-g surface.

    The closed forms 2^{2g-1} +/- 2^{g-1}; the two entries sum to 2^{2g}.
    """
    _require_genus(genus)
    return _arf_counts(genus)


def _arf_counts(genus: int) -> tuple[int, int]:
    """count_by_arf at a genus already checked."""
    half = 1 << (2 * genus - 1)
    offset = 1 << (genus - 1)
    return half + offset, half - offset


def arf_gauss_sum(genus: int) -> int:
    """Sum of (-1)^{arf} over all refinements: (even count) - (odd count) = 2^g."""
    even, odd = count_by_arf(genus)
    return even - odd


def lift_sign(sigma: QuadraticRefinement, z: F2Vector, w2_bundle: int, w2_rho: int) -> int:
    """Sign of the lifted [Z]-action on the Pfaffian line over a fixed point.

    (-1)^{w2_bundle + w2_rho * (arf(sigma + Z) - arf(sigma))}, the Arf
    difference taken mod 2.  By Johnson's identity (D. Johnson, "Spin
    structures and quadratic forms on surfaces", 1980)
    arf(sigma + <Z, .>) - arf(sigma) = sigma(Z), so the sign is
    (-1)^{w2_bundle + w2_rho * sigma(Z)}: one evaluation of the refinement.
    """
    _require_bit(w2_bundle, "w2_bundle")
    _require_bit(w2_rho, "w2_rho")
    sigma.space._check_member(z)
    return _lift_sign(sigma, z.bits, w2_bundle, w2_rho)


def _lift_sign(sigma: QuadraticRefinement, bits: int, w2_bundle: int, w2_rho: int) -> int:
    """lift_sign on the bare mask of a vector of sigma's space, for w2 inputs already checked."""
    return 1 - 2 * ((w2_bundle + w2_rho * sigma._value(bits)) & 1)
