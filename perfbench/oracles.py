"""Closed forms the benchmark checks gammanoise against.

Everything here is written from the paper's formulas and the documented
numerical conventions (unit torus, continuum Fourier coefficients, Nyquist
frequency in the ``+n/2`` bin, ``lambda_k = 4 pi^2 |k|^2``).  Nothing is
imported from gammanoise, so a fault in the program cannot hide in its own
oracle.
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI2 = 4.0 * math.pi**2


def inv(x: float) -> float:
    """``1/x`` with ``1/inf = 0``."""
    return 0.0 if math.isinf(x) else 1.0 / x


def signed_freqs(n: int) -> np.ndarray:
    """Integer frequencies of an n-point axis in DFT order, Nyquist at +n/2."""
    k = np.arange(n)
    return np.where(k > n // 2, k - n, k)


def bessel_weight(freq_sq, sigma: float):
    """``(1 + 4 pi^2 |k|^2)^sigma``: squared Bessel multiplier of order 2 sigma."""
    return (1.0 + FOUR_PI2 * np.asarray(freq_sq, dtype=float)) ** sigma


def fourier_indices(N: int, dim: int) -> list:
    """First N lattice frequencies ordered by ``|k|^2``, then lexicographically."""
    radius = 1
    while (2 * radius + 1) ** dim < 4 * N:
        radius *= 2
    axis = range(-radius, radius + 1)
    grids = np.meshgrid(*([np.array(axis)] * dim), indexing="ij")
    ks = sorted((tuple(int(c) for c in pt)
                 for pt in zip(*(g.ravel() for g in grids))),
                key=lambda k: (sum(x * x for x in k), k))
    if sum(x * x for x in ks[N - 1]) >= radius * radius:
        raise ValueError("enumeration box too small")
    return ks[:N]


def coloring_weights(kind: str, alpha: float, ks: list) -> np.ndarray:
    """``mu_n`` of a Matern (by frequency) or power-law (by ordinal) coloring."""
    if kind == "matern":
        return bessel_weight([sum(x * x for x in k) for k in ks], -alpha / 2.0)
    if kind == "power_law":
        return np.arange(1, len(ks) + 1, dtype=float) ** (-alpha)
    raise ValueError(f"unknown coloring {kind!r}")


def series_mean_square(n: int, ks: list, mu: np.ndarray, s: float,
                       g_values: np.ndarray = None) -> float:
    """``E ||g sum_n gamma_n mu_n e_{k_n}||^2`` in ``H^{-s,2}`` of the 1-d torus.

    ``sum_n mu_n^2 sum_j |g^_{j - k_n}|^2 (1 + 4 pi^2 j^2)^{-s}``, where
    ``g^`` is the grid's own FFT of g and the shift ``j - k_n`` wraps on the
    aliased n-point lattice, as the grid product does.  g = 1 gives
    ``sum_n mu_n^2 (1 + 4 pi^2 k_n^2)^{-s}``.
    """
    if g_values is None:
        return float(np.sum(mu**2 * bessel_weight([k[0] ** 2 for k in ks], -s)))
    ghat2 = np.abs(np.fft.fft(g_values) / n) ** 2
    weight = bessel_weight(signed_freqs(n) ** 2, -s)
    total = 0.0
    for (k,), m in zip(ks, mu):
        total += m * m * float(np.dot(np.roll(ghat2, k), weight))
    return total


def stationary_variance(ks: list, mu: np.ndarray, s: float) -> float:
    """Pointwise variance ``sigma^2`` of the g = 1 field in smoothness -s, any d."""
    return float(np.sum(mu**2 * bessel_weight([sum(x * x for x in k) for k in ks], -s)))


def lq4_mean_square_bounds(sigma2: float) -> tuple:
    """Bounds on ``E ||Y||_{L^4}^2`` for a stationary complex Gaussian field.

    Hoelder on the unit torus gives ``||Y||_4 >= ||Y||_2``, whose mean square
    is ``sigma^2``; Jensen with ``E|Y(x)|^4 = 2 sigma^4`` gives
    ``E ||Y||_4^2 <= sqrt(2) sigma^2``.  Both hold for the rectangle rule on
    any grid finer than the field's bandwidth.
    """
    return sigma2, math.sqrt(2.0) * sigma2


def ou_mean_square(n: int, alpha: float, s: float, t: float) -> float:
    """``E ||u(t)||^2`` in ``H^{1-s}`` for the heat equation, Matern diagonal noise.

    Every mode is an Ornstein-Uhlenbeck process:
    ``sum_k (1 + 4 pi^2 k^2)^{1-s} mu_k^2 (1 - exp(-2 lambda_k t)) / (2 lambda_k)``,
    the zero mode contributing ``mu_0^2 t``.
    """
    k2 = signed_freqs(n).astype(float) ** 2
    lam = FOUR_PI2 * k2
    mu2 = bessel_weight(k2, -alpha)
    var = np.where(lam == 0, t, -np.expm1(-2.0 * lam * t) / np.where(lam == 0, 1.0, 2.0 * lam))
    return float(np.sum(bessel_weight(k2, 1.0 - s) * mu2 * var))


def euler_series_mean_square(ks: list, mu: np.ndarray, s: float, dt: float,
                             steps: int) -> float:
    """``E ||u_M||^2`` in ``H^{1-s}`` of the exponential Euler scheme, series noise.

    The scheme ``u <- exp(dt Lap)(u + sqrt(dt) sum_n gamma_n mu_n e_{k_n})``
    gives mode ``k_n`` the variance ``mu_n^2 dt sum_{j=1}^{M} exp(-2 lambda j dt)``.
    """
    total = 0.0
    for (k,), m in zip(ks, mu):
        lam = FOUR_PI2 * k * k
        geo = math.fsum(math.exp(-2.0 * lam * j * dt) for j in range(1, steps + 1))
        total += float(bessel_weight(k * k, 1.0 - s)) * m * m * dt * geo
    return total


def heat_theta_norm(n: int, dim: int, t: float) -> float:
    """HS norm of ``exp(t Lap) M_1``: ``(sum_k exp(-8 pi^2 |k|^2 t))^{1/2}``."""
    k2 = signed_freqs(n).astype(float) ** 2
    per_axis = np.sum(np.exp(-2.0 * FOUR_PI2 * k2 * t))
    return math.sqrt(per_axis**dim)


# ---------------------------------------------------------------------------
# the paper's predicted exponents and sharp conditions


def predicted_exponent(construction: str, d: int, s: float, q: float,
                       eta: float, zeta: float) -> float:
    """Growth rate of the two-sided ratio for the paper's four constructions."""
    if construction == "freq_block":
        return -s + d * (0.5 - inv(q) + inv(eta) - inv(zeta))
    if construction == "rescaled_bump":
        return (-s - d * inv(q)) + d * inv(eta) + d / 2.0 - d * inv(zeta)
    if construction == "shifted_bump":
        return d * (inv(q) - inv(eta) - inv(zeta))
    if construction == "spde_scaling":
        return (1.0 - s - d * inv(q)) - (1.0 - d / 2.0 + d * inv(zeta) - d * inv(eta))
    raise ValueError(f"unknown construction {construction!r}")


def dirichlet_exponent(eta: float) -> float:
    """``||D_N||_eta ~ N^{1 - 1/eta}`` for the Dirichlet kernel, eta in (1, inf)."""
    return 1.0 - 1.0 / eta


def weighted_slack(d: int, s: float, q: float, eta: float, zeta: float) -> float:
    """Slack of the weighted sharp condition ``s/d + 1/q >= 1/eta + 1/2 - 1/zeta``."""
    return s / d + inv(q) - (inv(eta) + 0.5 - inv(zeta))


def classify(slack: float, tol: float = 1e-9) -> str:
    if slack > tol:
        return "strict"
    if slack < -tol:
        return "violated"
    return "equality"


# a strict tuple stays bounded, a violated one diverges, equality grows like log
LABEL_OF_CLASS = {"strict": "bounded", "violated": "divergent",
                  "equality": "log-divergent"}


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    return float(np.polyfit(lx, ly, 1)[0])


def mean_stderr(values) -> tuple:
    """Sample mean and its standard error, with exact summation."""
    vals = [float(v) for v in values]
    m = len(vals)
    mean = math.fsum(vals) / m
    var = math.fsum((v - mean) ** 2 for v in vals) / (m - 1)
    return mean, math.sqrt(var / m)
