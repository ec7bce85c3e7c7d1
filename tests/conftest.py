"""Shared pytest plumbing.

Collects acceptance-test outcomes and prints one PASS/FAIL line per
criterion in the terminal summary, so the gate is readable at a glance.
Registers the `long` hypothesis profile for a long run of the property
tests (`--hypothesis-profile=long`).

Hypothesis imports its failure-patch helper, and with it libcst, the
first time a property fails. Where libcst's import warns (a
DeprecationWarning from mypy_extensions), `-W error` turned that into
an INTERNALERROR that ended the session instead of one failed test. The
helper is imported once here with that warning ignored, so a failing
property is reported as a failure; no warning the program or a test
raises is ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("long", max_examples=2000)

_acceptance: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    name = report.nodeid.split("::", 1)[1]
    if report.when == "call":
        if hasattr(report, "wasxfail"):  # a known defect, marked strict
            _acceptance[name] = "XFAIL"
        else:
            _acceptance[name] = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error
        _acceptance[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        terminalreporter.write_line(f"{_acceptance[name]}: {name}")
