import math

import pytest

from gammanoise.conditions import ParamTuple, predicted_exponent, sharp_condition
from gammanoise.rng import stream


class TestParamTuple:
    def test_valid(self):
        ParamTuple(1, 0.5, 4.0, 2.0, 4.0)
        ParamTuple(2, 1.0, 2.0, 1.5, math.inf)

    @pytest.mark.parametrize("kwargs", [
        dict(d=1, s=0.0, q=4.0, eta=2.0, zeta=4.0),
        dict(d=1, s=1.0, q=4.0, eta=2.0, zeta=4.0),
        dict(d=1, s=0.5, q=1.0, eta=2.0, zeta=4.0),
        dict(d=1, s=0.5, q=4.0, eta=1.0, zeta=4.0),
        dict(d=1, s=0.5, q=4.0, eta=2.0, zeta=1.5),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ParamTuple(**kwargs)


class TestSharpCondition:
    def test_weighted_strict(self):
        # slack = 0.6 + 0.25 - (0.5 + 0.5 - 0.25) = 0.1
        rep = sharp_condition(ParamTuple(1, 0.6, 4.0, 2.0, 4.0), "weighted")
        assert rep.classification == "strict"
        assert rep.slack == pytest.approx(0.1)

    def test_weighted_equality_zeta_inf(self):
        # plug-in boundary case: 1/2 + 1/2 against 1/2 + 1/2 - 0
        rep = sharp_condition(ParamTuple(2, 1.0, 2.0, 2.0, math.inf), "weighted")
        assert rep.classification == "equality"
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_weighted_violated(self):
        rep = sharp_condition(ParamTuple(1, 0.2, 4.0, 2.0, 4.0), "weighted")
        assert rep.classification == "violated"
        assert rep.slack == pytest.approx(-0.3)

    def test_weighted_side_condition(self):
        rep = sharp_condition(ParamTuple(1, 0.9, 8.0, 1.5, 8.0), "weighted")
        assert rep.side_slack <= 0  # 1/eta - 1/zeta = 0.542 >= 1/2

    def test_weighted_rejects_eta_above_q(self):
        with pytest.raises(ValueError):
            sharp_condition(ParamTuple(1, 0.5, 2.0, 4.0, 4.0), "weighted")

    def test_unweighted(self):
        # leading slack s/d + 1/q - 1/eta - 1/2; side 1/eta + 1/zeta - 1/q
        rep = sharp_condition(ParamTuple(1, 0.9, 4.0, 2.0, 4.0), "unweighted")
        assert rep.slack == pytest.approx(0.9 + 0.25 - 0.5 - 0.5)
        assert rep.side_slack == pytest.approx(0.5 + 0.25 - 0.25)
        assert rep.classification == "strict"

    def test_unweighted_eta_above_q_allowed(self):
        rep = sharp_condition(ParamTuple(1, 0.9, 2.0, 4.0, 4.0), "unweighted")
        assert rep.side_slack == pytest.approx(0.25 + 0.25 - 0.5)
        assert rep.classification == "equality"

    def test_matern(self):
        rep = sharp_condition(ParamTuple(1, 0.9, 4.0, 2.0, 3.0), "matern", alpha=0.3)
        assert rep.slack == pytest.approx(0.3 - (0.5 + 0.5 - 0.9 - 0.25))
        assert rep.side_slack == pytest.approx(0.3 - 0.0)
        assert rep.classification == "strict"

    def test_matern_needs_alpha(self):
        with pytest.raises(ValueError):
            sharp_condition(ParamTuple(1, 0.9, 4.0, 2.0, 3.0), "matern")

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            sharp_condition(ParamTuple(1, 0.5, 4.0, 2.0, 4.0), "bogus")

    def test_weighted_zeta_inf_matches_multiplication_operator_conditions(self):
        # with no coloring decay the sharp predicate reduces to the
        # multiplication-operator condition s/d + 1/q >= 1/eta + 1/2
        gen = stream(272, 1)
        for _ in range(50):
            q = 2.0 + 6.0 * gen.uniform()
            eta = 1.1 + (q - 1.2) * gen.uniform()
            s = 0.05 + 0.9 * gen.uniform()
            rep = sharp_condition(ParamTuple(1, s, q, eta, math.inf), "weighted")
            direct = s / 1 + 1 / q - (1 / eta + 0.5)
            assert rep.slack == pytest.approx(direct, abs=1e-12)
            assert rep.side_slack == pytest.approx(0.5 - 1 / eta, abs=1e-12)


class TestPredictedExponent:
    def test_freq_block_example(self):
        p = ParamTuple(1, 0.9, 4.0, 2.0, 4.0)
        assert predicted_exponent(p, "freq_block") == pytest.approx(-0.4)

    def test_rescaled_bump_equality_is_zero(self):
        # every equality tuple has a vanishing rescaled-bump exponent
        gen = stream(314, 0)
        found = 0
        while found < 100:
            q = 2.0 + 6.0 * gen.uniform()
            eta = 1.1 + (q - 1.2) * gen.uniform()
            zeta = 2.0 + 8.0 * gen.uniform()
            s = 1.0 / eta + 0.5 - 1.0 / zeta - 1.0 / q
            if not 0.0 < s < 1.0:
                continue
            p = ParamTuple(1, s, q, eta, zeta)
            assert abs(predicted_exponent(p, "rescaled_bump")) < 1e-10
            found += 1

    def test_shifted_bump_boundary_zero(self):
        p = ParamTuple(1, 0.6, 2.0, 4.0, 4.0)  # 1/eta + 1/zeta = 1/q
        assert predicted_exponent(p, "shifted_bump") == pytest.approx(0.0, abs=1e-12)

    def test_spde_scaling_matches_rescaled_bump(self):
        # the time-integrability terms cancel, leaving the spatial exponent
        p = ParamTuple(1, 0.55, 4.0, 2.0, 2.0)
        a = predicted_exponent(p, "spde_scaling", alpha=0.5)
        b = predicted_exponent(p, "rescaled_bump")
        assert a == pytest.approx(b)

    def test_spde_scaling_checks_alpha(self):
        p = ParamTuple(1, 0.55, 4.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            predicted_exponent(p, "spde_scaling", alpha=0.5)  # zeta != d/alpha

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            predicted_exponent(ParamTuple(1, 0.5, 4.0, 2.0, 4.0), "bogus")
