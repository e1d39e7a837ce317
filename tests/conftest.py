import gc

import numpy as np
import pytest

from decint import css


@pytest.fixture(autouse=True)
def unfreeze_after_test():
    """Undo the `gc.freeze()` of each in-process `cli.main` call.

    `main` freezes the whole heap, as a process entry should; under pytest
    that heap is pytest's own, cyclic garbage included, and would stay
    frozen for every later test.
    """
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def families():
    """The built-in families and two 3-level families whose passes do not all
    yield two blocks, by name. Each is built once, so the Gamma plans cached
    per family are shared across tests."""

    def family(*levels):
        return css.CodeFamily(levels=levels, alpha=0.0, beta=0.0)

    rep3 = np.ones((1, 3), np.uint8)
    return {
        "toy": css.toy_family(),
        "steane": css.steane_family(),
        # m = 1, 1, 2: Gamma_{3,2} yields two blocks, Gamma_{2,1} one.
        "trivial-steane-422": family(css.trivial_code(), css.steane_code(), css.c422()),
        # m = 1, 2, 2: Gamma_{3,2} yields one block, Gamma_{2,1} two.
        "trivial-422-hgp33": family(css.trivial_code(), css.c422(), css.freeze_logicals(css.build_hgp(rep3, rep3), 2)),
    }
