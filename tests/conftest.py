"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def int_max_str_digits():
    """Set Python's int-to-string digit limit for one test, then restore it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)
