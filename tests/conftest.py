"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def keep_every_value(monkeypatch):
    """Keeps every op output made while it is active, so no value on a tape is freed."""
    from masa_kit import tensor

    made, result = [], tensor._result
    monkeypatch.setattr(tensor, "_result", lambda *args: made.append(result(*args)) or made[-1])
    return made


@pytest.fixture
def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
