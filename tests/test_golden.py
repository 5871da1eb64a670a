"""Every pinned CLI output, byte for byte against its golden.

``tests/golden/MANIFEST`` declares each golden once: a line names the file
and the arguments that print it, without ``--format json``, which each case
appends.  A case runs ``cli.main`` in process and compares the exit code and
the stdout bytes; CI pipes the same lines through the installed
``spinverlinde`` into ``cmp``.  Pinning a new output takes its file and one
manifest line.
"""

from pathlib import Path

import pytest

from spinverlinde import cli

GOLDEN = Path(__file__).parent / "golden"


def manifest() -> list[tuple[str, list[str]]]:
    """The (file name, arguments) of each manifest line, in order; ``#`` lines are comments."""
    entries = []
    for line in (GOLDEN / "MANIFEST").read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            name, *argv = line.split()
            entries.append((name, argv))
    return entries


ENTRIES = manifest()


@pytest.mark.parametrize("name, argv", ENTRIES, ids=[name for name, _ in ENTRIES])
def test_output_matches_its_golden(name, argv, capsys):
    code = cli.main([*argv, "--format", "json"])
    assert (code, capsys.readouterr().out.encode()) == (0, (GOLDEN / name).read_bytes())


def test_manifest_names_every_golden_once():
    # a golden with no line, a line naming no golden, or a golden named twice
    named = sorted(name for name, _ in ENTRIES)
    assert named == sorted(path.name for path in GOLDEN.glob("*.json"))
