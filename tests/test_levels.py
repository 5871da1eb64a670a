import pytest

from spinverlinde.levels import (
    Lattice,
    LatticeMismatchError,
    LevelValue,
    beta_pullback,
    bhmv_from_su2,
    bhmv_level,
    bm_from_so3,
    bm_level,
    correspondence_table,
    metaplectic_shift,
    so3_from_bm,
    so3_from_su2,
    so3_level,
    su2_from_bhmv,
    su2_level,
)


class TestLevelValues:
    def test_bm_validation(self):
        assert bm_level(8).value == 8
        with pytest.raises(ValueError):
            bm_level(12)
        with pytest.raises(ValueError):
            bm_level(-8)

    def test_bhmv_validation(self):
        assert bhmv_level(6).value == 6
        with pytest.raises(ValueError):
            bhmv_level(0)

    @pytest.mark.parametrize("lattice, name", [(Lattice.SO3, "SO3"), (Lattice.SU2, "SU2")])
    def test_negative_levels_rejected(self, lattice, name):
        assert LevelValue(lattice, 0).value == 0
        with pytest.raises(ValueError, match=rf"\A{name} levels are non-negative integers, got -1\Z"):
            LevelValue(lattice, -1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: so3_level(2.5),
            lambda: LevelValue(Lattice.SO3, 2.5),
            lambda: bm_level(8.0),
            lambda: beta_pullback(1.5),
            lambda: bm_from_so3(3.0),
            lambda: su2_from_bhmv("8"),
            lambda: so3_level(True),
            lambda: LevelValue(Lattice.BHMV, True),
            lambda: beta_pullback(False),
        ],
        ids=[
            "so3_level", "LevelValue", "bm_level", "beta_pullback", "bm_from_so3", "su2_from_bhmv",
            "so3_level-bool", "LevelValue-bool", "beta_pullback-bool",
        ],
    )
    def test_non_integer_levels_rejected(self, build):
        with pytest.raises(TypeError, match=r"^levels are integers, got "):
            build()

    def test_same_lattice_arithmetic(self):
        assert so3_level(1) + so3_level(2) == so3_level(3)

    def test_cross_lattice_arithmetic_is_type_error(self):
        with pytest.raises(LatticeMismatchError):
            so3_level(1) + su2_level(2)
        assert isinstance(LatticeMismatchError("x"), TypeError)

    def test_conversion_rejects_wrong_lattice(self):
        with pytest.raises(LatticeMismatchError):
            beta_pullback(su2_level(2))


class TestConversions:
    def test_beta_pullback(self):
        assert beta_pullback(1) == su2_level(2)
        assert beta_pullback(0) == su2_level(0)
        assert beta_pullback(so3_level(5)).value == 10

    def test_beta_pullback_additive(self):
        for m, n in [(0, 1), (2, 3), (7, 11)]:
            assert (
                beta_pullback(so3_level(m) + so3_level(n))
                == beta_pullback(m) + beta_pullback(n)
            )

    def test_main_pairing(self):
        for m in range(1, 8):
            assert beta_pullback(2 * m - 1).value == 4 * m - 2

    def test_bhmv_from_su2(self):
        assert bhmv_from_su2(1).value == 6
        assert bhmv_from_su2(2).value == 8

    def test_bhmv_round_trip(self):
        assert su2_from_bhmv(16).value == 6
        assert bhmv_from_su2(su2_from_bhmv(16)).value == 16
        for k in range(0, 100):
            assert su2_from_bhmv(bhmv_from_su2(k)).value == k

    def test_odd_bhmv_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            su2_from_bhmv(bhmv_level(7))

    def test_bm_from_so3(self):
        assert bm_from_so3(1).value == 8
        assert bm_from_so3(3).value == 16

    def test_even_so3_rejected(self):
        with pytest.raises(ValueError):
            bm_from_so3(2)

    def test_bm_round_trip(self):
        for m in range(1, 20):
            assert so3_from_bm(bm_from_so3(2 * m - 1)).value == 2 * m - 1

    def test_conjecture_consistency(self):
        # 4(k + 1) = 2(2k + 2) for every odd k
        for m in range(1, 51):
            k = 2 * m - 1
            assert bm_from_so3(k).value == bhmv_from_su2(beta_pullback(k)).value == 8 * m

    def test_so3_from_su2(self):
        assert so3_from_su2(4).value == 2
        with pytest.raises(ValueError):
            so3_from_su2(3)


class TestMetaplecticShift:
    def test_shifts(self):
        assert metaplectic_shift(so3_level(2)) == so3_level(3)
        assert metaplectic_shift(su2_level(4)) == su2_level(6)

    def test_other_lattices_rejected(self):
        with pytest.raises(LatticeMismatchError):
            metaplectic_shift(bm_level(8))
        with pytest.raises(TypeError):
            metaplectic_shift(4)

    def test_commutes_with_pullback(self):
        for k in range(0, 20):
            assert (
                beta_pullback(metaplectic_shift(so3_level(k)))
                == metaplectic_shift(beta_pullback(k))
                == su2_level(2 * k + 2)
            )


class TestGradingParity:
    def test_wiring_into_spin_dims(self):
        # the trivial-w2 component is the even one
        from spinverlinde.dimensions import bm_even_dim, spin_cs_dims

        assert spin_cs_dims(2, 1, 0).even == bm_even_dim(2, 8, 0)


class TestCorrespondenceTable:
    def test_verbatim_columns(self):
        table = correspondence_table()
        assert [c.bhmv_mod8 for c in table.columns] == [0, 4, 2, 6]
        assert [c.su2_mod4 for c in table.columns] == [2, 0, 1, 3]
        assert [c.so3_mod2 for c in table.columns] == [1, 0, None, None]
        assert [c.structure for c in table.columns] == [
            "spin structure",
            "Z/2-bundle",
            None,
            None,
        ]

    def test_rows_for_printing(self):
        rows = correspondence_table().rows()
        assert rows[0] == ("BHMV level (mod 8)", "0", "4", "2", "6")
        assert rows[3][1] == "spin structure"
        assert rows[2][3] == rows[2][4] == ""

    def test_validates(self):
        performed = correspondence_table().validate()
        assert len(performed) >= 10

    def test_first_column_arithmetic(self):
        # SU2 level = 2 mod 4 implies 2(k + 2) = 0 mod 8
        for k in (2, 6, 10, 14):
            assert bhmv_from_su2(k).value % 8 == 0

    def test_erratum_recorded(self):
        assert "transposed" in correspondence_table().erratum

    def test_validation_failure_detected(self):
        from spinverlinde.levels import CorrespondenceTable, TableColumn

        broken = CorrespondenceTable(
            columns=(
                TableColumn(4, 2, 1, "spin structure"),
                TableColumn(0, 0, 0, "Z/2-bundle"),
                TableColumn(2, 1, None, None),
                TableColumn(6, 3, None, None),
            ),
            erratum="",
        )
        with pytest.raises(ValueError, match="validation failed"):
            broken.validate()

    def test_lattice_enum_round_trip(self):
        for lattice in Lattice:
            assert Lattice(lattice.value) is lattice
        assert LevelValue(Lattice.SU2, 4).value == 4
