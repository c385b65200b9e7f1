"""Pytest hooks shared by every test module."""

import warnings

import pytest


@pytest.hookimpl(wrapper=True, tryfirst=True)
def pytest_runtest_makereport():
    """Hypothesis writes a failing example's report with libcst, whose import
    raises a DeprecationWarning for ``mypy_extensions.TypedDict``.  Under
    ``-W error`` that warning would end the session with an INTERNALERROR at
    the first failing property test, hiding every test after it, and a
    command-line ``-W error`` overrides any ``filterwarnings`` setting, so
    this one warning is ignored around the report hooks only."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        return (yield)
