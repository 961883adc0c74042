"""Orthonormal systems, noise colorings, and the weighted sequence norm.

Systems enumerate their members in a fixed, documented order so a truncation
parameter N always selects the same family.  Sup-norms are carried as
metadata; the synthetic-growth system is metadata only and cannot be
rendered.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import Grid, SpectralField, field_from_function, forward_transform, mode_field


class NonEvaluableError(TypeError):
    """Raised when asked to render a system that only carries sup-norm data."""


class IndexRangeError(IndexError):
    """Raised when a truncation exceeds the system's index set."""


# ---------------------------------------------------------------------------
# bump building blocks


def bump_profile(t: np.ndarray) -> np.ndarray:
    """C-infinity bump ``exp(1 - 1/(1 - t^2))`` on ``|t| < 1``, zero outside."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    tt = np.where(inside, t, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - tt**2))[inside]
    return out


def bump_values(coords: list, center, width: float) -> np.ndarray:
    """Product bump of support width ``width`` per axis centered at ``center``."""
    if np.isscalar(center):
        center = (center,) * len(coords)
    out = 1.0
    for x, c in zip(coords, center):
        out = out * bump_profile(2.0 * (x - c) / width)
    return out


def periodic_offset(x: np.ndarray, shift, length: float) -> np.ndarray:
    """``x - shift`` wrapped onto the circle of ``length``, in ``(-length/2, length/2]``."""
    t = np.mod(x - shift, length)
    return np.where(t > length / 2, t - length, t)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity transition from 0 (t <= 0) to 1 (t >= 1)."""
    t = np.asarray(t, dtype=float)
    def f(u):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    a = f(t)
    return a / (a + f(1.0 - t))


def plateau_values(coords: list, center, inner: float, outer: float) -> np.ndarray:
    """Smooth plateau equal to 1 on the inner box, 0 outside the outer box."""
    if np.isscalar(center):
        center = (center,) * len(coords)
    out = 1.0
    ramp = (outer - inner) / 2.0
    for x, c in zip(coords, center):
        r = np.abs(x - c)
        out = out * smoothstep((outer / 2.0 - r) / ramp)
    return out


# ---------------------------------------------------------------------------
# orthonormal systems


class FourierSystem:
    """Standard Fourier modes ``e_k`` on the unit torus, sup-norms all one.

    Enumerated by increasing ``|k|^2`` with lexicographic tie-break, so the
    first N indices always fill a centered ball of the frequency lattice.
    """

    real = False

    def __init__(self, dim: int):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        self.dim = dim
        self._cache: list = []

    def indices(self, count: int) -> list:
        radius = 1
        while len(self._cache) < count:
            self._cache = self.ball_indices(radius)
            radius *= 2
        return self._cache[:count]

    def ball_indices(self, radius: int) -> list:
        """All lattice frequencies with ``|k| <= radius``, as tuples of Python ints."""
        axis = np.arange(-radius, radius + 1)
        ks = np.stack(np.meshgrid(*(axis,) * self.dim, indexing="ij"), -1).reshape(-1, self.dim)
        r2 = np.sum(ks * ks, axis=1)
        inside = r2 <= radius * radius
        ks, r2 = ks[inside], r2[inside]
        order = np.lexsort(tuple(ks[:, ::-1].T) + (r2,))    # by |k|^2, then k_0, k_1, ...
        return [tuple(k) for k in ks[order].tolist()]

    def sup_norm(self, idx) -> float:
        return 1.0

    def render(self, idx, grid: Grid) -> SpectralField:
        self._check_grid(grid)
        return mode_field(grid, idx)

    def lattice_positions(self, idxs, grid: Grid) -> np.ndarray:
        """Flat positions of the frequencies ``idxs`` in the grid's coefficient array."""
        self._check_grid(grid)
        try:
            ks = np.array(idxs, dtype=np.intp).reshape(len(idxs), grid.dim)
        except ValueError:      # ragged, or the wrong number of axes
            ks = None
        if ks is None or np.any((ks <= -(grid.n // 2)) | (ks > grid.n // 2)):
            for k in idxs:
                grid.index_of_freq(k)       # raises the offending frequency's message
        return np.ravel_multi_index(tuple((ks % grid.n).T), grid.shape)

    def _check_grid(self, grid: Grid) -> None:
        if grid.dim != self.dim:
            raise ValueError("grid dimension does not match system")
        if grid.length != 1.0:
            raise ValueError("Fourier modes are orthonormal on the unit torus only")


class HaarSystem:
    """Periodic Haar wavelets on the unit torus.

    Indices are ``(sigma, j, k)`` with orientation ``sigma`` a nonzero 0/1
    tuple, level ``j >= 0`` and position ``k`` in ``{0..2^j-1}^d``; flattened
    level-major.  The wavelet at level j has sup-norm ``2^(j d / 2)``.
    """

    real = True

    def __init__(self, dim: int, j_min: int = 0, j_max: int = 6):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        if j_min < 0 or j_max < j_min:
            raise ValueError("need 0 <= j_min <= j_max on the unit torus")
        self.dim = dim
        self.j_min = j_min
        self.j_max = j_max
        self.orientations = [s for s in itertools.product((0, 1), repeat=dim) if any(s)]

    def level_indices(self, j: int) -> list:
        pos = itertools.product(range(2**j), repeat=self.dim)
        return [(sigma, j, k) for k in pos for sigma in self.orientations]

    def indices(self, count: int) -> list:
        out = []
        for j in range(self.j_min, self.j_max + 1):
            out.extend(self.level_indices(j))
            if len(out) >= count:
                return out[:count]
        raise IndexRangeError(
            f"requested {count} Haar indices, levels [{self.j_min}, {self.j_max}] "
            f"hold only {len(out)}"
        )

    def sup_norm(self, idx) -> float:
        _, j, _ = idx
        return 2.0 ** (j * self.dim / 2.0)

    def render(self, idx, grid: Grid) -> SpectralField:
        if grid.dim != self.dim:
            raise ValueError("grid dimension does not match system")
        sigma, j, k = idx
        if np.isscalar(k):
            k = (k,) * 1
        vals = np.ones(grid.shape)
        for x, s, ki in zip(grid.coords(), sigma, k):
            # dyadic rescale onto [0, 2^j) with periodic wrap: x / L lies in [0, 1) and
            # k in {0..2^j-1}, so t lies in (-2^j, 2^j), where np.mod(t, 2^j) is this
            # branch, bit for bit
            t = 2.0**j * (x / grid.length) - ki
            t = np.where(t < 0, t + 2.0**j, t)
            on_support = t < 1.0
            if s == 0:
                axis_vals = np.where(on_support, 1.0, 0.0)
            else:
                axis_vals = np.where(on_support, np.where(t < 0.5, 1.0, -1.0), 0.0)
            vals = vals * axis_vals
        vals = vals * 2.0 ** (j * self.dim / 2.0) / grid.length ** (self.dim / 2.0)
        return forward_transform(grid, vals)


class SyntheticGrowthSystem:
    """Sup-norm model ``c n^((d-1)/(2d))`` for eigenfunction-like growth.

    Carries weights only; rendering raises ``NonEvaluableError``.
    """

    real = True

    def __init__(self, dim: int, c: float = 1.0):
        self.dim = dim
        self.c = c

    def indices(self, count: int) -> list:
        return list(range(1, count + 1))

    def sup_norm(self, idx) -> float:
        n = int(idx)
        return self.c * n ** ((self.dim - 1) / (2.0 * self.dim))

    def render(self, idx, grid: Grid) -> SpectralField:
        raise NonEvaluableError("synthetic-growth system carries sup-norms only")


class ShiftedBumpSystem:
    """Integer translates ``phi(. - k)`` of one smooth bump, a disjoint family.

    The bump sits inside the unit cell, is L2-normalized numerically, and is
    translated to every lattice point with ``1 <= |k|_inf <= extent``.  Meant
    for large periodic boxes whose length exceeds ``2 * extent + 1``.
    """

    real = True

    def __init__(self, dim: int, extent: int, width: float = 0.5):
        if extent < 1:
            raise ValueError("extent must be >= 1")
        if not 0 < width < 1:
            raise ValueError("width must lie in (0, 1)")
        self.dim = dim
        self.extent = extent
        self.width = width
        self._norm_const = self._compute_norm_const()

    def _compute_norm_const(self) -> float:
        # L2 mass of the product bump on a fine reference grid per axis
        m = 4096
        t = (np.arange(m) + 0.5) / m
        one_d = bump_profile(2.0 * (t - 0.5) / self.width)
        mass_1d = float(np.sum(one_d**2) / m)
        return mass_1d ** (-self.dim / 2.0)

    def indices(self, count: int) -> list:
        ks = self.all_indices()
        if count > len(ks):
            raise IndexRangeError(
                f"requested {count} translates, extent {self.extent} holds {len(ks)}"
            )
        return ks[:count]

    def all_indices(self) -> list:
        rng = range(-self.extent, self.extent + 1)
        ks = [k for k in itertools.product(rng, repeat=self.dim) if any(k)]
        ks.sort(key=lambda k: (max(abs(x) for x in k), k))
        return ks

    def sup_norm(self, idx) -> float:
        return self._norm_const

    def render(self, idx, grid: Grid) -> SpectralField:
        if grid.dim != self.dim:
            raise ValueError("grid dimension does not match system")
        if grid.length < 2 * self.extent + 2:
            raise ValueError(
                f"box length {grid.length} too small for extent {self.extent}"
            )
        if np.isscalar(idx):
            idx = (idx,)

        def fn(*coords):
            out = 1.0
            for x, ki in zip(coords, idx):     # offset from the cell centre ki + 1/2
                t = periodic_offset(x - ki, 0.5, grid.length)
                out = out * bump_profile(2.0 * t / self.width)
            return self._norm_const * out

        return field_from_function(grid, fn)


# ---------------------------------------------------------------------------
# colorings


@dataclass(frozen=True)
class Coloring:
    """Scalar damping ``mu_n`` of noise modes, keyed by the system's indices.

    kind is one of ``power_law`` (needs ordinal position), ``matern``
    (frequency tuples), ``block`` (frequency tuples), ``haar``
    ((sigma, j, k) triples) or ``explicit`` (ordinal position).
    """

    kind: str
    params: dict = dc_field(default_factory=dict)

    @staticmethod
    def power_law(alpha: float) -> "Coloring":
        if alpha <= 0:
            raise ValueError("power-law exponent must be positive")
        return Coloring("power_law", {"alpha": alpha})

    @staticmethod
    def matern(alpha: float) -> "Coloring":
        if alpha <= 0:
            raise ValueError("Matern exponent must be positive")
        return Coloring("matern", {"alpha": alpha})

    @staticmethod
    def block_indicator(N: int) -> "Coloring":
        if N < 1:
            raise ValueError("block level must be >= 1")
        return Coloring("block", {"N": N})

    @staticmethod
    def haar(alpha: float, beta: float, dim: int) -> "Coloring":
        if alpha < 0:
            raise ValueError("haar coloring needs alpha >= 0")
        if beta <= dim / 2.0:
            raise ValueError(f"haar coloring needs beta > d/2 = {dim/2}")
        return Coloring("haar", {"alpha": alpha, "beta": beta, "dim": dim})

    @staticmethod
    def explicit(values) -> "Coloring":
        vals = tuple(float(v) for v in values)
        if any(v < 0 or not math.isfinite(v) for v in vals):
            raise ValueError("explicit coloring entries must be finite and nonnegative")
        return Coloring("explicit", {"values": vals})

    @staticmethod
    def constant(c: float, count: int) -> "Coloring":
        return Coloring.explicit([c] * count)

    def weights(self, idxs) -> np.ndarray:
        """Weights ``mu_n`` of the structured indices ``idxs``, taken in order.

        A power law or an explicit list reads each index's 1-based position,
        a Matern or block coloring its frequency tuple, a Haar coloring its
        ``(sigma, j, k)`` triple.  Each power is the scalar ``**``, whose last
        bit numpy's array ``**`` does not always reproduce.
        """
        p, count = self.params, len(idxs)
        if self.kind == "power_law":
            return np.array([float(i) ** -p["alpha"] for i in range(1, count + 1)])
        if self.kind == "explicit":
            if count > len(p["values"]):
                raise IndexRangeError(f"explicit coloring has {len(p['values'])} entries, "
                                      f"asked for {count}")
            return np.array(p["values"][:count])
        if self.kind == "haar":
            alpha, beta = p["alpha"], p["beta"]
            return np.array([(1.0 + sum(int(x) ** 2 for x in np.atleast_1d(k))) ** (-beta / 2.0)
                             * 2.0 ** (-j * alpha) for _, j, k in idxs])
        if self.kind not in ("matern", "block"):
            raise ValueError(f"unknown coloring kind {self.kind!r}")
        ks = np.array(idxs, dtype=np.int64).reshape(count, -1 if count else 0)
        if self.kind == "block":    # the dyadic block 2^N <= k_i <= 3 * 2^(N-1) per axis
            return np.all((ks >= 2 ** p["N"]) & (ks <= 3 * 2 ** (p["N"] - 1)), axis=1) * 1.0
        bases = 1.0 + 4.0 * np.pi**2 * (ks * ks).sum(axis=1).astype(float)
        return np.array([b ** (-p["alpha"] / 2.0) for b in bases.tolist()])


def frequency_block(N: int, dim: int) -> list:
    """Frequencies of the dyadic block ``2^N <= k_i <= 3 * 2^(N-1)``; needs N >= 1."""
    if N < 1:
        raise ValueError(f"frequency block level must be >= 1, got {N}")
    lo, hi = 2**N, 3 * 2 ** (N - 1)
    return list(itertools.product(range(lo, hi + 1), repeat=dim))


# ---------------------------------------------------------------------------
# weighted sequence norms and the Haar criticality sums


def weighted_sequence_norm(weights, sup_norms, zeta: float) -> float:
    """``(sum_n |w_n|^zeta s_n^2)^(1/zeta)``, or ``max_n |w_n|`` when zeta is infinite."""
    weights = np.abs(np.asarray(weights, dtype=float))
    if math.isinf(zeta):
        return float(np.max(weights))
    sup_norms = np.asarray(sup_norms, dtype=float)
    return float(np.sum(weights**zeta * sup_norms**2) ** (1.0 / zeta))


def rank_one_mu_norm(h_l2: float, h_sup: float, zeta: float) -> float:
    """Weighted norm of the single-entry coloring of a rank-one operator.

    Normalizing the range function to unit L2 norm leaves
    ``||h||_2^(1-2/zeta) ||h||_inf^(2/zeta)``; for infinite zeta only the L2
    factor survives.
    """
    if math.isinf(zeta):
        return h_l2
    return h_l2 ** (1.0 - 2.0 / zeta) * h_sup ** (2.0 / zeta)


def haar_lattice_sums(alpha: float, beta: float, zeta: float, dim: int,
                      j_values) -> np.ndarray:
    """Partial sums ``sum_{|j|<=J} sum_k |mu_{j,k}|^zeta 2^(j d)`` over levels.

    Pure lattice arithmetic over all integer levels and positions (no
    evaluability needed); the position sum converges iff
    ``beta * zeta > d``.  Affine growth in J signals the critical coloring
    ``zeta = d / alpha``; any other zeta grows exponentially.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    if beta * zeta <= dim:
        raise ValueError(f"need beta * zeta > d for a finite position sum, got {beta * zeta} <= {dim}")
    kmass = _lattice_bessel_sum(beta * zeta, dim)
    out = []
    for J in j_values:
        J = int(J)
        js = np.arange(-J, J + 1, dtype=float)
        out.append(kmass * float(np.sum(2.0 ** (js * (dim - alpha * zeta)))))
    return np.array(out)


def _lattice_bessel_sum(exponent: float, dim: int) -> float:
    """``sum_{k in Z^d} (1 + |k|^2)^(-exponent/2)``.

    Direct summation over a centered box plus an integral estimate of the
    tail; relative accuracy is ample for the divergence diagnostics, which
    only use this value as a J-independent constant.  The box's terms are
    computed in place in one buffer (one per ``k_z`` plane in 3-d).
    """
    R = {1: 200_000, 2: 1_024, 3: 96}[dim]
    k2 = np.arange(-R, R + 1, dtype=float)
    np.square(k2, out=k2)
    if dim == 1:
        core = float(np.sum(_bessel_terms(k2, exponent)))
    elif dim == 2:
        core = float(np.sum(_bessel_terms(np.add.outer(k2, k2), exponent)))
    else:
        plane, terms = np.add.outer(k2, k2), np.empty((k2.size, k2.size))
        core = 0.0
        for kz2 in k2:
            np.add(plane, kz2, out=terms)
            core += float(np.sum(_bessel_terms(terms, exponent)))
    # tail beyond the box, by a radial integral with surface area of the sphere
    X = R + 0.5
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    tail = surface * X ** (dim - exponent) / (exponent - dim)
    return core + tail


def _bessel_terms(k2: np.ndarray, exponent: float) -> np.ndarray:
    """``(1 + k2)^(-exponent/2)``, written over ``k2``."""
    k2 += 1.0
    k2 **= -exponent / 2.0
    return k2
