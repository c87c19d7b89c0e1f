"""Shared fixtures of the serving-tier tests."""

from __future__ import annotations

import pytest


@pytest.fixture(params=["eventloop"])
def eventloop():
    """The daemon's one data path, the ``selectors`` connection loop.

    Tests that once ran under two I/O models request it, so their test
    ids keep the ``[eventloop]`` suffix.
    """
