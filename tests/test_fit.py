import numpy as np
import pytest

from gammanoise.fit import linfit


@pytest.mark.parametrize("x,y", [([3.0], [1.0]), ([], []),
                                 ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])])
def test_linfit_rejects_degenerate_fit(x, y):
    with pytest.raises(ValueError):
        linfit(np.array(x), np.array(y))
