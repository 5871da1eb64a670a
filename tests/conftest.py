import contextlib
import io
import json
import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import _acceptance_report

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis caches parsed source under its home directory even without an
    # example database; give it a temporary one so the run writes nothing here.
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="spinverlinde-hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def cold_caches():
    """Start the test with every cache of ``spinverlinde.fusion`` empty, so
    that what it measures is measured cold: each ``lru_cache`` of the module,
    whatever its name."""
    from spinverlinde import fusion

    for value in vars(fusion).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def lift_sign_flipped_at_a1(monkeypatch):
    """Flip the lift sign of [a1], the class of mask 1, at the name
    ``heisenberg._lift_sign`` that the trace route's sign tables call.  The
    tables are emptied before the patch, so that one an earlier test built
    does not hide it, and after the test, so that none built from the
    flipped sign outlives it."""
    from spinverlinde import heisenberg

    honest = heisenberg._lift_sign

    def one_sign_flipped(sigma, bits, w2_bundle, w2_rho):
        sign = honest(sigma, bits, w2_bundle, w2_rho)
        return -sign if bits == 1 else sign

    heisenberg._lift_signs.cache_clear()
    monkeypatch.setattr(heisenberg, "_lift_sign", one_sign_flipped)
    yield
    monkeypatch.undo()
    heisenberg._lift_signs.cache_clear()


@pytest.fixture(scope="session")
def cli_json():
    """Run ``spinverlinde <argv> --format json`` in process, once per argv for
    the whole session, and return (exit code, payload); tests that make the
    same call, such as ``check all``, share one run.  The payload is shared
    too, so a test must not change it."""
    from spinverlinde.cli import main

    runs = {}

    def run(*argv):
        if argv not in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([*argv, "--format", "json"])
            runs[argv] = code, json.loads(out.getvalue())
        return runs[argv]

    return run
