"""Shared fixtures.

``bounds.theorem2_coeffs`` keeps its last build, keyed by the parameter
object, so a test that monkeypatches a builder could otherwise leave
coefficients built by the patched code for the next test that asks for the
same object (``P0`` of a test module, or ``DEFAULT_PARAMS``).
"""

from __future__ import annotations

import sys

import pytest


@pytest.fixture(autouse=True)
def _no_kept_coefficients():
    """Every test starts and ends with no kept theorem-2 build."""
    bounds = sys.modules.get("zetabounds.bounds")  # loaded by the test modules that use it
    if bounds is not None:
        bounds._last_coeffs = (None, None)
    yield
    bounds = sys.modules.get("zetabounds.bounds")
    if bounds is not None:
        bounds._last_coeffs = (None, None)
