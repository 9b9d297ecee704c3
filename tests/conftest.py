import sys

import numpy as np
import pytest


@pytest.fixture
def spy_products(monkeypatch):
    """install(spy): spy(a, b, out) makes each tile product of the closed
    form's contraction in place of np.matmul.

    The products are the np.matmul calls of entropy._GramTable._grid and
    _pairs: a tile of cosine rows times a transposed tile of weight rows.
    Every other np.matmul call of entropy runs as it is.
    """
    from phasebeam import entropy

    def install(spy):
        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out=None):
                if sys._getframe(1).f_code.co_name in ("_grid", "_pairs"):
                    return spy(a, b, out)
                return np.matmul(a, b, out=out)

        monkeypatch.setattr(entropy, "np", Numpy())

    return install
