"""Shared fixtures for the observability tests.

Every test in this package starts with recording off and empty
collectors; state is restored afterwards so observability tests cannot
leak spans/counters into the rest of the suite.
"""

from __future__ import annotations

import pytest

from repro import obs


def _reset_collectors() -> None:
    obs.disable()
    obs.reset()


@pytest.fixture(autouse=True)
def clean_obs_state():
    _reset_collectors()
    yield
    _reset_collectors()
