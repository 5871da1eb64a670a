"""Level lattices and the exact correspondences between their indexings.

Four indexing conventions appear in the surrounding theory: levels of the
rotation-group theory (units of the generator 1), of its double cover
(units of 1'), and the two positive-integer index sets p of the unspun
and spin surgery TQFTs.  Values carry their lattice as a tagged unit so
that cross-lattice arithmetic without an explicit conversion is a type
error; juggling k, k', p and m silently is how sign and shift bugs creep
in, so this module simply forbids it.
"""

from __future__ import annotations

from enum import Enum

from ._value import Value, _require_int, _require_record


class Lattice(Enum):
    SO3 = "so3"
    SU2 = "su2"
    BHMV = "bhmv"
    BM = "bm"


class LatticeMismatchError(TypeError):
    """Arithmetic attempted between levels of different lattices."""


def _is_bm_level(p: int) -> bool:
    """Whether p is a level of the spin theory: a positive multiple of 8."""
    return p > 0 and p % 8 == 0


def _pairs_with_spin(k: int) -> bool:
    """Whether the SO3 level k pairs with the spin theory: k positive and odd."""
    return k > 0 and k % 2 == 1


class LevelValue(Value):
    """An integer level tagged with the lattice it lives in: k >= 0 on SO3 and
    SU2, p >= 1 on BHMV and a positive multiple of 8 on BM."""

    lattice: Lattice
    value: int

    def __init__(self, lattice: Lattice, value: int) -> None:
        _require_record(lattice, Lattice, "lattices")
        _require_int(value, "levels")
        if lattice is Lattice.BM and not _is_bm_level(value):
            raise ValueError(f"BM levels are positive multiples of 8, got {value}")
        if lattice is Lattice.BHMV and value <= 0:
            raise ValueError(f"BHMV levels are positive integers, got {value}")
        if lattice in (Lattice.SO3, Lattice.SU2) and value < 0:
            raise ValueError(f"{lattice.name} levels are non-negative integers, got {value}")
        self._store(lattice=lattice, value=value)

    def __add__(self, other: "LevelValue") -> "LevelValue":
        if not isinstance(other, LevelValue):
            return NotImplemented
        if self.lattice is not other.lattice:
            raise LatticeMismatchError(
                f"cannot add {self.lattice.value} and {other.lattice.value} levels; convert first"
            )
        return LevelValue(self.lattice, self.value + other.value)

    def __str__(self) -> str:
        return f"{self.value} ({self.lattice.value})"


def so3_level(n: int) -> LevelValue:
    return LevelValue(Lattice.SO3, n)


def su2_level(n: int) -> LevelValue:
    return LevelValue(Lattice.SU2, n)


def bhmv_level(p: int) -> LevelValue:
    return LevelValue(Lattice.BHMV, p)


def bm_level(p: int) -> LevelValue:
    return LevelValue(Lattice.BM, p)


def _coerce(level: LevelValue | int, lattice: Lattice) -> LevelValue:
    if not isinstance(level, LevelValue):
        return LevelValue(lattice, level)
    if level.lattice is not lattice:
        raise LatticeMismatchError(f"conversion expects a {lattice.value} level, got {level.lattice.value}")
    return level


def beta_pullback(level: LevelValue | int) -> LevelValue:
    """Pull an SO3 level back along the double cover: n -> 2n in SU2 units."""
    level = _coerce(level, Lattice.SO3)
    return su2_level(2 * level.value)


def so3_from_su2(level: LevelValue | int) -> LevelValue:
    """Invert the pullback where possible; only even SU2 levels descend."""
    level = _coerce(level, Lattice.SU2)
    if level.value % 2:
        raise ValueError(f"SU2 level {level.value} is odd and not in the pullback image")
    return so3_level(level.value // 2)


def bhmv_from_su2(level: LevelValue | int) -> LevelValue:
    """The index correspondence p = 2(k + 2) at SU2 level k >= 0."""
    level = _coerce(level, Lattice.SU2)
    return bhmv_level(2 * (level.value + 2))


def su2_from_bhmv(level: LevelValue | int) -> LevelValue:
    """Inverse correspondence k = p/2 - 2; odd p and p < 4 are rejected."""
    level = _coerce(level, Lattice.BHMV)
    if level.value % 2:
        raise ValueError(f"BHMV level {level.value} is odd; p = 2(k + 2) has no preimage")
    if level.value < 4:
        raise ValueError(f"BHMV level {level.value} is below 4; p = 2(k + 2) has no preimage at k >= 0")
    return su2_level(level.value // 2 - 2)


def bm_from_so3(level: LevelValue | int) -> LevelValue:
    """The spin-theory pairing p = 4(k + 1) = 8m at odd SO3 level k = 2m - 1."""
    level = _coerce(level, Lattice.SO3)
    if not _pairs_with_spin(level.value):
        raise ValueError(
            f"only positive odd SO3 levels pair with the spin theory, got {level.value}"
        )
    return bm_level(4 * (level.value + 1))


def so3_from_bm(level: LevelValue | int) -> LevelValue:
    """Inverse pairing k = p/4 - 1."""
    level = _coerce(level, Lattice.BM)
    return so3_level(level.value // 4 - 1)


def metaplectic_shift(level: LevelValue) -> LevelValue:
    """The half-form level shift: k -> k + 1 on SO3, k' -> k' + 2 on SU2."""
    _require_record(level, LevelValue, "tagged levels")
    if level.lattice is Lattice.SO3:
        return so3_level(level.value + 1)
    if level.lattice is Lattice.SU2:
        return su2_level(level.value + 2)
    raise LatticeMismatchError(
        f"metaplectic shift is defined on so3/su2 levels only, got {level.lattice.value}"
    )


# ---------------------------------------------------------------------------
# correspondence table


class TableColumn(Value):
    bhmv_mod8: int
    su2_mod4: int
    so3_mod2: int | None
    structure: str | None

    def __init__(
        self, bhmv_mod8: int, su2_mod4: int, so3_mod2: int | None, structure: str | None
    ) -> None:
        self._store(bhmv_mod8=bhmv_mod8, su2_mod4=su2_mod4, so3_mod2=so3_mod2, structure=structure)


class CorrespondenceTable(Value):
    """The four-column residue table linking the level lattices.

    Reproduced verbatim from the source table, including its two blank
    columns (odd SU2 levels carry no topological structure and no SO3
    entry).  ``erratum`` records the one internal wrinkle: under
    p = 2(k + 2) the SU2 residues 1 and 3 land on BHMV residues 6 and 2
    respectively, i.e. the printed order of the last two BHMV cells is
    transposed; it is reproduced as printed and flagged, not repaired.
    """

    columns: tuple[TableColumn, ...]
    erratum: str

    ROW_LABELS = (
        "BHMV level (mod 8)",
        "SU2 level (mod 4)",
        "SO3 level (mod 2)",
        "Topological structure",
    )

    def __init__(self, columns: tuple[TableColumn, ...], erratum: str) -> None:
        self._store(columns=columns, erratum=erratum)

    def rows(self) -> list[tuple[str, ...]]:
        def cell(value) -> str:
            return "" if value is None else str(value)

        return [
            (self.ROW_LABELS[0],) + tuple(str(c.bhmv_mod8) for c in self.columns),
            (self.ROW_LABELS[1],) + tuple(str(c.su2_mod4) for c in self.columns),
            (self.ROW_LABELS[2],) + tuple(cell(c.so3_mod2) for c in self.columns),
            (self.ROW_LABELS[3],) + tuple(cell(c.structure) for c in self.columns),
        ]

    def validate(self) -> list[str]:
        """Cross-check the table against the conversion maps; raises on failure.

        Structure-bearing columns are checked residue-exactly; the blank
        columns are checked at the level of what they assert (odd SU2
        levels, BHMV residue 2 mod 4, no SO3 entry, no structure).
        """
        performed: list[str] = []

        def check(condition: bool, description: str) -> None:
            if not condition:
                raise ValueError(f"correspondence table validation failed: {description}")
            performed.append(description)

        structured = [c for c in self.columns if c.structure is not None]
        blank = [c for c in self.columns if c.structure is None]
        check(len(structured) == 2 and len(blank) == 2, "two structured and two blank columns")

        for column in structured:
            k = column.su2_mod4  # smallest non-negative representative
            p = bhmv_from_su2(k).value
            check(
                p % 8 == column.bhmv_mod8,
                f"SU2 level = {k} mod 4 gives p = 2(k+2) = {column.bhmv_mod8} mod 8",
            )
            check(column.so3_mod2 is not None, f"column p = {column.bhmv_mod8} mod 8 has an SO3 entry")
            pulled = beta_pullback(column.so3_mod2).value
            check(
                pulled % 4 == column.su2_mod4 % 4 and column.su2_mod4 % 2 == 0,
                f"SO3 parity {column.so3_mod2} doubles to SU2 residue {column.su2_mod4} mod 4",
            )
        check(
            {c.structure for c in structured} == {"spin structure", "Z/2-bundle"},
            "structured columns carry the spin structure and Z/2-bundle labels",
        )
        check(
            next(c for c in structured if c.structure == "spin structure").bhmv_mod8 == 0,
            "spin structures sit over BHMV levels divisible by 8",
        )

        for column in blank:
            check(column.su2_mod4 % 2 == 1, f"blank column has odd SU2 residue {column.su2_mod4}")
            check(
                column.bhmv_mod8 % 4 == 2,
                f"odd SU2 levels give BHMV residue {column.bhmv_mod8} = 2 mod 4",
            )
            check(column.so3_mod2 is None, "odd SU2 levels are not pullbacks of SO3 levels")
        return performed


def correspondence_table() -> CorrespondenceTable:
    """The residue table, as printed in the source, with its erratum note."""
    return CorrespondenceTable(
        columns=(
            TableColumn(0, 2, 1, "spin structure"),
            TableColumn(4, 0, 0, "Z/2-bundle"),
            TableColumn(2, 1, None, None),
            TableColumn(6, 3, None, None),
        ),
        erratum=(
            "as printed, the blank columns pair BHMV residues (2, 6) with SU2 residues "
            "(1, 3); p = 2(k + 2) actually sends SU2 residues (1, 3) to BHMV residues "
            "(6, 2), so the last two BHMV cells are transposed in the source"
        ),
    )
