import numpy as np
import pytest

from gammanoise.conditions import CONSTRUCTIONS, ParamTuple, predicted_exponent
from gammanoise.experiments import frequency_block_test, rescaled_bump_test, shifted_bump_test
from gammanoise.fit import FitReport, SweepRecord, linfit
from gammanoise.grid import Grid
from gammanoise.spde import scaling_diagnostic


@pytest.mark.parametrize("x,y", [([3.0], [1.0]), ([], []),
                                 ([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])])
def test_linfit_rejects_degenerate_fit(x, y):
    with pytest.raises(ValueError):
        linfit(np.array(x), np.array(y))


@pytest.mark.parametrize("construction,run,params,alpha", [
    pytest.param("freq_block", lambda p: frequency_block_test(p, [3, 4]),
                 ParamTuple(1, 0.9, 4.0, 2.0, 4.0), None, id="freq_block"),
    pytest.param("rescaled_bump", lambda p: rescaled_bump_test(p, [0, 1], n=2**10),
                 ParamTuple(1, 0.5, 4.0, 2.0, 4.0), None, id="rescaled_bump"),
    pytest.param("shifted_bump", lambda p: shifted_bump_test(p, [2, 4]),
                 ParamTuple(1, 0.6, 2.0, 4.0, 4.0), None, id="shifted_bump"),
    pytest.param("spde_scaling", lambda p: scaling_diagnostic(0.5, p, [0, 1], grid=Grid(1, 2**10)),
                 ParamTuple(1, 0.25, 4.0, 2.0, 2.0), 0.5, id="spde_scaling"),
])
def test_every_construction_returns_records_and_fit(construction, run, params, alpha):
    """Each two-sided construction gives SweepRecords named as predicted_exponent names it."""
    assert construction in CONSTRUCTIONS
    records, fit = run(params)
    assert len(records) == 2
    assert all(type(r) is SweepRecord and r.construction == construction for r in records)
    assert type(fit) is FitReport
    assert fit.predicted == predicted_exponent(params, construction, alpha=alpha)
