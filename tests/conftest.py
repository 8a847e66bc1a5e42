import contextlib
import inspect
import sys

import pytest


@pytest.fixture
def shallow_stack():
    """A context manager that sets Python's recursion limit `frames` above the
    depth of the code that enters it, and restores the old limit on exit: a
    walk that takes a frame per level of a deep formula fails inside it."""
    @contextlib.contextmanager
    def within(frames):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + frames)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return within
