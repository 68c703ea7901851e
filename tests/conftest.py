import inspect
import sys

import pytest


@pytest.fixture
def shallow_stack():
    """Lower the recursion limit to 100 frames above the test's depth, so
    code that recurses once per input element fails on small inputs."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    yield
    sys.setrecursionlimit(limit)
