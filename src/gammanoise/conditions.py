"""Parameter tuples, sharp-condition predicates, and predicted scaling exponents.

The weighted regime tests ``s/d + 1/q >= 1/eta + 1/2 - 1/zeta`` with the side
condition ``1/eta - 1/zeta < 1/2``; the unweighted regime tests
``s/d + 1/q >= 1/eta + 1/2`` together with ``1/eta + 1/zeta > 1/q``; the
Matern regime tests both strict inequalities against ``alpha/d``.  Infinite
zeta is carried as ``math.inf`` and every formula branches explicitly through
``1/zeta = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EQUALITY_TOL = 1e-9

CONSTRUCTIONS = ("freq_block", "rescaled_bump", "shifted_bump", "spde_scaling")
REGIMES = ("weighted", "unweighted", "matern")


def inv(x: float) -> float:
    """Reciprocal with the explicit infinite-exponent branch."""
    return 0.0 if math.isinf(x) else 1.0 / x


@dataclass(frozen=True)
class ParamTuple:
    """The parameter bundle (d, s, q, eta, zeta).

    d: dimension; s: smoothness loss, in (0, d); q: target integrability in
    (1, inf); eta: integrability of the multiplier g, in (1, inf); zeta:
    noise intensity in [2, inf].
    """

    d: int
    s: float
    q: float
    eta: float
    zeta: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not (0 < self.s < self.d):
            raise ValueError(f"s must lie in (0, d) = (0, {self.d}), got {self.s}")
        if not (1 < self.q < math.inf):
            raise ValueError(f"q must lie in (1, inf), got {self.q}")
        if not (1 < self.eta < math.inf):
            raise ValueError(f"eta must lie in (1, inf), got {self.eta}")
        if not self.zeta >= 2:
            raise ValueError(f"zeta must lie in [2, inf], got {self.zeta}")


@dataclass(frozen=True)
class ConditionReport:
    classification: str  # strict | equality | violated
    slack: float         # distance of the leading condition from equality
    side_slack: float    # distance of the secondary condition from its boundary


def sharp_condition(params: ParamTuple, regime: str, alpha: float = None) -> ConditionReport:
    """Classify a parameter tuple against the regime's convergence conditions.

    Returns the classification of the leading (sharp) condition together
    with its numeric slack and the secondary condition's slack.
    """
    d, s, q, eta, zeta = params.d, params.s, params.q, params.eta, params.zeta
    if regime == "weighted":
        # eta = q is the non-sharp boundary covered by the endpoint bounds
        if eta > q:
            raise ValueError("weighted regime requires eta <= q")
        slack = s / d + inv(q) - (inv(eta) + 0.5 - inv(zeta))
        side = 0.5 - (inv(eta) - inv(zeta))
    elif regime == "unweighted":
        if math.isinf(zeta):
            raise ValueError("unweighted regime requires finite zeta")
        slack = s / d + inv(q) - (inv(eta) + 0.5)
        side = inv(eta) + inv(zeta) - inv(q)
    elif regime == "matern":
        if alpha is None or alpha <= 0:
            raise ValueError("matern regime needs a positive alpha")
        slack = alpha / d - (inv(eta) + 0.5 - s / d - inv(q))
        side = alpha / d - (inv(eta) - 0.5)
    else:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")

    leading = min(slack, side) if regime != "weighted" else slack
    if leading > EQUALITY_TOL:
        cls = "strict"
    elif leading < -EQUALITY_TOL:
        cls = "violated"
    else:
        cls = "equality"
    return ConditionReport(cls, slack, side)


def predicted_exponent(params: ParamTuple, construction: str, alpha: float = None) -> float:
    """Predicted log-growth rate of the two-sided ratio for a construction.

    freq_block and rescaled_bump are rates per doubling of the scale index;
    shifted_bump is the power of the lattice size; spde_scaling is the rate
    per doubling of the parabolic rescaling, where zeta must equal d/alpha
    (the time-integrability terms cancel between the two sides, so no time
    exponent enters).
    """
    d, s, q, eta, zeta = params.d, params.s, params.q, params.eta, params.zeta
    if construction == "freq_block":
        return -s + d * (0.5 - inv(q) + inv(eta) - inv(zeta))
    if construction == "rescaled_bump":
        return (-s - d * inv(q)) - (-d * inv(eta) - d / 2.0 + d * inv(zeta))
    if construction == "shifted_bump":
        return d * (inv(q) - inv(eta) - inv(zeta))
    if construction == "spde_scaling":
        if alpha is not None and abs(zeta - d / alpha) > EQUALITY_TOL:
            raise ValueError(f"spde scaling pairs zeta with d/alpha = {d/alpha}, got zeta = {zeta}")
        lhs = 1.0 - s - d * inv(q)
        rhs = 1.0 - d / 2.0 + d * inv(zeta) - d * inv(eta)
        return lhs - rhs
    raise ValueError(f"construction must be one of {CONSTRUCTIONS}, got {construction!r}")
