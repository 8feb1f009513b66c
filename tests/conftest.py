import importlib.util
from pathlib import Path

import pytest

_ACCEPTANCE: dict[str, str] = {}


def pytest_report_header(config):
    """Name the tree under test: ``pythonpath = ["src"]`` puts this checkout's
    package ahead of ``PYTHONPATH``, so a session run here tests this tree.
    The package is located, not imported, so a broken one still reaches
    collection."""
    spec = importlib.util.find_spec("prefrl")
    where = Path(spec.origin).resolve().parent if spec else "not found"
    return f"prefrl package: {where}"


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or report.failed:
        _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        name = nodeid.split("::")[-1]
        outcome = _ACCEPTANCE[nodeid]
        tag = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{tag}: {name}")
