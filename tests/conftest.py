"""Fixtures shared across the suite; the helpers are in ``testkit``."""

import pytest

from provrec.graph import EntityType
from provrec.numerics import Rng

from testkit import make_graph


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def figure_snippet():
    """Small campaign snapshot: browser downloads a document whose reader
    spawns a shell that writes a script and phones home."""
    return make_graph(
        [
            ("chrome", "connect", "203.0.113.9:443", EntityType.SOCKET),
            ("chrome", "write", "x.pdf", EntityType.FILE),
            ("acrobat", "read", "x.pdf", EntityType.FILE),
            ("acrobat", "launch", "powershell", EntityType.PROCESS),
            ("powershell", "launch", "unknown", EntityType.PROCESS),
            ("powershell", "write", "payload.ps1", EntityType.FILE),
            ("powershell", "connect", "198.51.100.7:80", EntityType.SOCKET),
        ]
    )
