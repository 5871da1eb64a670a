"""The public names of the package, and the fields of its certificate,
are a contract: changing them means changing this file on purpose.
Importing the CLI loads no module that it does not use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinverlinde

PUBLIC_API = [
    "CertificationError",
    "CertifiedInteger",
    "CorrespondenceTable",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "F2Vector",
    "GradedDimension",
    "HeisenbergElement",
    "HeisenbergGroup",
    "IdentityViolationError",
    "IntegralityError",
    "Lattice",
    "LatticeMismatchError",
    "LevelValue",
    "MonomialMatrix",
    "QuadraticRefinement",
    "SymplecticF2Space",
    "TwistedAlgebraElement",
    "arf_gauss_sum",
    "beta_pullback",
    "bhmv_from_su2",
    "bhmv_level",
    "bm_even_dim",
    "bm_from_so3",
    "bm_level",
    "bm_odd_dim",
    "corollary_bases",
    "corollary_dims",
    "correspondence_table",
    "count_by_arf",
    "dims_via_traces",
    "heisenberg_rep",
    "lift_sign",
    "metaplectic_shift",
    "orthogonality_check",
    "projection",
    "so3_from_bm",
    "so3_from_su2",
    "so3_level",
    "spin_cs_dims",
    "su2_from_bhmv",
    "su2_level",
    "sum_over_spin",
    "trace_functional",
    "twisted_dim",
    "twisted_trig_oracle",
    "verlinde_dim",
    "verlinde_trig_oracle",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert spinverlinde.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    for name in spinverlinde.__all__:
        assert hasattr(spinverlinde, name), name


def test_certificate_fields_are_pinned():
    # the oracles' certificate is a contract too: the integer, the bound on
    # the sum, the modulus of its residue and the precision that gave it
    assert spinverlinde.CertifiedInteger._fields == ("value", "bound", "modulus", "precision_bits")


@pytest.mark.parametrize("module", ["mpmath", "dataclasses", "inspect"])
def test_cli_import_leaves_module_unloaded(module):
    # mpmath is a test dependency only, and every CLI call pays for the
    # import of dataclasses and inspect; a fresh interpreter shows the import
    code = f"import sys, spinverlinde.cli; print([m for m in sys.modules if m.partition('.')[0] == {module!r}])"
    env = {**os.environ, "PYTHONPATH": str(Path(spinverlinde.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
