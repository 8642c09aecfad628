"""Fixtures shared by every test module."""

import pytest

from deepa2.memo import clear_memos


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with empty process-wide memos, so a test that counts
    parses or decisions does not depend on which tests ran before it."""
    clear_memos()
