import os

import pytest

import cframe


@pytest.fixture
def child_env():
    """Environment for a child Python that imports the same cframe as
    this process, installed or not."""
    src = os.path.dirname(os.path.dirname(cframe.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
