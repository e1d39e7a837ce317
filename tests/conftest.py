import gc

import pytest


@pytest.fixture(autouse=True)
def unfreeze_after_test():
    """Undo the `gc.freeze()` of each in-process `cli.main` call.

    `main` freezes the whole heap, as a process entry should; under pytest
    that heap is pytest's own, cyclic garbage included, and would stay
    frozen for every later test.
    """
    yield
    gc.unfreeze()
