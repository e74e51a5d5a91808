"""Shared fixtures."""

import pytest

from repro.sim import Process


@pytest.fixture
def process_starts(monkeypatch):
    """The list of every :class:`Process` created while the test runs."""
    started = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return started
