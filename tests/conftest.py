import pytest

from tourbench.tsplib import bundled_instance

try:
    from hypothesis import settings
except ImportError:  # only test_properties.py needs it, and it fails to import on its own
    pass
else:
    # The same examples on every run, so a failure reproduces and run times compare.
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


def pytest_configure(config):
    config._criterion_lines = {}


@pytest.fixture(scope="session")
def att48():
    return bundled_instance("att48")


@pytest.fixture(scope="session")
def criteria_report(pytestconfig):
    """Recorder for the acceptance summary printed after the test run.

    record(num, passed, detail) stores one line per criterion; passed may be
    a bool or an explicit status string for report-only criteria.
    """

    def record(num, passed, detail):
        status = passed if isinstance(passed, str) else ("PASS" if passed else "FAIL")
        pytestconfig._criterion_lines[num] = (status, detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(lines):
        status, detail = lines[num]
        terminalreporter.write_line(f"criterion {num:2d}: {status} {detail}")
