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
