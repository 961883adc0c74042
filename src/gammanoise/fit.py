"""Line fits and growth labels: the one place an exponent is fitted.

``linfit`` is the least-squares regression every construction's exponent
comes from: each construction yields ``SweepRecord``s, and
``fit_ratio_exponent`` fits the growth of their ratios.  One label set,
bounded / divergent / log-divergent / inconclusive, sits on top:
``growth_label`` reads it off a ratio fit, and ``classify_growth`` off a
norm sequence over truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FIT_R2_MIN = 0.9
MARGINAL_EXPONENT = 0.05
LOG_R2_MIN = 0.95           # R^2 of values against log N for log-divergence
INCREMENT_RATIO = 0.9       # increments shrinking at least this fast converge


def linfit(x, y):
    """Least-squares slope and R^2 of y against x.

    Raises ``ValueError`` with fewer than 2 points or when every x is equal,
    where no slope exists.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError(f"a line fit needs at least 2 points, got {x.size}")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise ValueError("a line fit needs at least 2 distinct x values")
    sxy = np.sum((x - xm) * (y - ym))
    syy = np.sum((y - ym) ** 2)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return float(slope), float(r2)


@dataclass(frozen=True)
class SweepRecord:
    """One scale point of a two-sided comparison."""

    construction: str
    scale_index: float
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs > 0:
            return self.lhs / self.rhs
        return math.inf if self.lhs > 0 else 0.0


@dataclass(frozen=True)
class FitReport:
    """A fitted exponent and its R^2, next to the exponent the theory predicts."""

    exponent: float
    r2: float
    predicted: float


def fit_ratio_exponent(records, predicted: float) -> FitReport:
    """Growth exponent of log2 ratios against each record's scale index."""
    xs = np.array([r.scale_index for r in records], dtype=float)
    ys = np.array([r.ratio for r in records], dtype=float)
    if np.any(ys <= 0):
        raise ValueError("ratio sweep contains nonpositive values")
    return FitReport(*linfit(xs, np.log(ys) / math.log(2.0)), predicted)


def growth_label(fit: FitReport) -> str:
    """bounded / divergent / log-divergent / inconclusive from a ratio fit."""
    if abs(fit.exponent) <= MARGINAL_EXPONENT:
        return "log-divergent"
    if fit.r2 < FIT_R2_MIN:
        return "inconclusive"
    return "divergent" if fit.exponent > 0 else "bounded"


@dataclass(frozen=True)
class GrowthReport:
    label: str      # bounded | divergent | log-divergent | inconclusive
    slope: float    # log-log slope


def classify_growth(points) -> GrowthReport:
    """Classify a norm sequence over geometric truncations N.

    Divergent when the log-log slope exceeds ``MARGINAL_EXPONENT`` with a good fit;
    bounded when successive increments decay geometrically; log-divergent
    when the values are affine in log N with small log-log slope.
    """
    pts = sorted((float(n), float(v)) for n, v in points)
    if len(pts) < 4:
        raise ValueError("need at least 4 points to classify growth")
    ns = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(ns <= 0):
        raise ValueError("truncations must be positive")

    scale = np.max(np.abs(vs))
    if scale == 0:
        return GrowthReport("bounded", 0.0)

    log_n = np.log(ns)
    with np.errstate(divide="ignore"):
        log_v = np.log(np.maximum(vs, 1e-300))
    slope, r2 = linfit(log_n, log_v)
    _, affine_r2 = linfit(log_n, vs)

    if slope > MARGINAL_EXPONENT and r2 > FIT_R2_MIN:
        return GrowthReport("divergent", slope)

    inc = np.diff(vs)
    if np.all(np.abs(inc) <= 1e-12 * scale):
        return GrowthReport("bounded", slope)
    if np.all(inc > 0) and np.all(inc[1:] < INCREMENT_RATIO * inc[:-1]):
        return GrowthReport("bounded", slope)

    if affine_r2 > LOG_R2_MIN and slope <= MARGINAL_EXPONENT:
        return GrowthReport("log-divergent", slope)
    return GrowthReport("inconclusive", slope)
