import pytest

from spinverlinde.f2 import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    F2Vector,
    SymplecticF2Space,
    _a_positions_mask,
)


def brute_character_sum(space, b):
    # independent enumeration oracle
    return sum(1 - 2 * space.pair(b, ell) for ell in space.vectors())


class TestPairing:
    def test_a_positions_mask_closed_form(self):
        for g in range(0, 65):
            mask = 0
            for i in range(g):
                mask |= 1 << (2 * i)
            assert _a_positions_mask(g) == mask

    def test_defining_basis_relation(self):
        space = SymplecticF2Space(1)
        assert space.pair(space.basis_a(1), space.basis_b(1)) == 1

    def test_alternating_on_basis(self):
        space = SymplecticF2Space(1)
        assert space.pair(space.basis_a(1), space.basis_a(1)) == 0

    def test_mixed_genus_two_vector(self):
        # <a1 + b2, b1 + a2> expands to <a1,b1> + <b2,a2> = 1 + 1 = 0
        space = SymplecticF2Space(2)
        v = space.basis_a(1) + space.basis_b(2)
        w = space.basis_b(1) + space.basis_a(2)
        assert space.pair(v, w) == 0

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_bilinear_exhaustive(self, g):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for v in vectors:
            for w in vectors:
                for x in space.basis():
                    assert space.pair(v + w, x) == space.pair(v, x) ^ space.pair(w, x)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_symmetric_and_alternating_exhaustive(self, g):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        for v in vectors:
            assert space.pair(v, v) == 0
            for w in vectors:
                assert space.pair(v, w) == space.pair(w, v)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_nondegenerate(self, g):
        space = SymplecticF2Space(g)
        for v in space.vectors():
            if not v.is_zero:
                assert any(space.pair(v, w) == 1 for w in space.basis())

    def test_dimension_mismatch_rejected(self):
        space = SymplecticF2Space(2)
        alien = F2Vector(1, 6)
        with pytest.raises(ValueError, match="dimension mismatch"):
            space.pair(space.zero, alien)


class TestVectors:
    def test_vector_construction_from_coordinates(self):
        space = SymplecticF2Space(2)
        v = space.vector([1, 0, 0, 1])
        assert v == space.basis_a(1) + space.basis_b(2)
        assert str(v) == "a1+b2"

    def test_addition_is_xor(self):
        space = SymplecticF2Space(2)
        v = space.vector(0b0110)
        assert v + v == space.zero
        assert (v + space.basis_a(1)).bits == 0b0111

    def test_coordinate_access(self):
        space = SymplecticF2Space(2)
        v = space.basis_b(2)
        assert v.coordinates() == (0, 0, 0, 1)
        assert v.coordinate(3) == 1
        assert v.weight() == 1

    def test_invalid_masks_rejected(self):
        with pytest.raises(ValueError):
            F2Vector(16, 4)
        with pytest.raises(ValueError):
            F2Vector(0, 3)
        space = SymplecticF2Space(1)
        with pytest.raises(ValueError):
            space.vector([1, 0, 1])


class TestEnumeration:
    @pytest.mark.parametrize("g,count", [(1, 4), (2, 16), (3, 64)])
    def test_counts(self, g, count):
        space = SymplecticF2Space(g)
        vectors = list(space.vectors())
        assert len(vectors) == count
        assert len({v.bits for v in vectors}) == count

    def test_lexicographic_order(self):
        space = SymplecticF2Space(2)
        masks = [v.bits for v in space.vectors()]
        assert masks == sorted(masks) == list(range(16))

    def test_cap_enforced(self):
        space = SymplecticF2Space(DEFAULT_ENUMERATION_CAP + 1)
        with pytest.raises(EnumerationCapError):
            next(space.vectors())

    def test_cap_override(self):
        space = SymplecticF2Space(2, enumeration_cap=1)
        with pytest.raises(EnumerationCapError):
            next(space.vectors())


class TestCharacterSum:
    def test_zero_class_gives_group_order(self):
        space = SymplecticF2Space(2)
        assert space.character_sum(space.zero) == 16

    def test_nonzero_class_vanishes(self):
        space = SymplecticF2Space(2)
        assert space.character_sum(space.basis_a(1)) == 0

    def test_genus_three_mixed_class(self):
        space = SymplecticF2Space(3)
        b = space.basis_a(1) + space.basis_b(2)
        assert space.character_sum(b) == 0
        assert brute_character_sum(space, b) == 0

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_matches_brute_force_exhaustively(self, g):
        space = SymplecticF2Space(g)
        for b in space.vectors():
            assert space.character_sum(b) == brute_character_sum(space, b)
