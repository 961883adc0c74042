"""Periodic grids and spectral fields on the d-dimensional torus.

The torus is ``[0, L)^d`` sampled with ``n`` points per axis.  A field is
stored through its Fourier coefficients ``c_k`` against the modes
``e_k(x) = exp(2*pi*i k.x / L)`` with integer frequencies
``k in (-n/2, n/2]`` per axis.  The Nyquist frequency is assigned to the
positive bin ``+n/2`` so every multiplier is evaluated at a single signed
frequency.  ``upsampled_values`` interpolates stacks of spectra only; a
single field enters it as a stack of one.  ``forward_coeffs`` and
``inverse_values`` are the one transform pair, for one field or a stack.
A ``Scratch`` holds the arrays that a loop over chunks of a stack would
otherwise allocate anew for every chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of the torus ``[0, L)^d``.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 to 3.
    n : int
        Points per axis; must be a power of two.
    length : float
        Box length L (default 1).
    """

    dim: int
    n: int
    length: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_measure(self) -> float:
        return (self.length / self.n) ** self.dim

    def freq_axis(self) -> np.ndarray:
        """Integer frequencies per axis in DFT order, Nyquist at ``+n/2``."""
        k = np.arange(self.n)
        k = np.where(k > self.n // 2, k - self.n, k)
        return k

    def _along_axes(self, values: np.ndarray) -> list:
        """``values`` laid along each axis in turn, broadcastable to the grid's shape."""
        return [values.reshape([-1 if a == ax else 1 for a in range(self.dim)])
                for ax in range(self.dim)]

    def freq_mesh(self) -> list:
        """Broadcastable integer frequency arrays, one per axis."""
        return self._along_axes(self.freq_axis())

    def k2_physical(self) -> np.ndarray:
        """``|k/L|^2`` on the full frequency lattice."""
        return sum((km / self.length) ** 2 for km in self.freq_mesh())

    def freq_abs(self) -> np.ndarray:
        """Euclidean norm of the integer frequency multi-index."""
        return np.sqrt(sum(km.astype(float) ** 2 for km in self.freq_mesh()))

    def coords(self) -> list:
        """Coordinate arrays of the grid's full shape, one per axis (read-only views)."""
        x = np.arange(self.n) * (self.length / self.n)
        return [np.broadcast_to(xa, self.shape) for xa in self._along_axes(x)]

    def index_of_freq(self, k: tuple) -> tuple:
        """Array index of the integer frequency multi-index ``k``."""
        if np.isscalar(k):
            k = (int(k),)
        idx = []
        for ki in k:
            ki = int(ki)
            if not (-self.n // 2 < ki <= self.n // 2):
                raise ValueError(f"frequency {ki} outside (-n/2, n/2] for n={self.n}")
            idx.append(ki % self.n)
        if len(idx) != self.dim:
            raise ValueError(f"frequency index has {len(idx)} axes, grid has {self.dim}")
        return tuple(idx)


@dataclass
class SpectralField:
    """Complex amplitudes per integer frequency, dual to grid samples.

    Coefficients are the continuum Fourier coefficients: a constant c has
    ``coeff(0) = c`` and the squared L2 norm equals ``L^d * sum |c_k|^2``
    (Plancherel).  A field flagged ``real`` keeps Hermitian symmetry
    ``coeff(-k) == conj(coeff(k))``.
    """

    grid: Grid
    coeffs: np.ndarray
    real: bool = False

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )
        if self.real and not self.is_hermitian():
            raise ValueError("field flagged real but coefficients are not Hermitian-symmetric")

    def is_hermitian(self) -> bool:
        flipped = _reverse_freq(self.coeffs)
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(self.coeffs - np.conj(flipped))) <= HERMITIAN_TOL * scale)

    def values(self) -> np.ndarray:
        """Samples on the grid; real array when flagged real."""
        return inverse_values(self.grid, self.coeffs, self.real)

    def coeff_at(self, k) -> complex:
        return complex(self.coeffs[self.grid.index_of_freq(k)])


def _reverse_freq(c: np.ndarray) -> np.ndarray:
    """Coefficients at ``-k``, in the same DFT layout."""
    out = c
    for ax in range(c.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def forward_transform(grid: Grid, values: np.ndarray) -> SpectralField:
    """Fourier coefficients of grid samples; inverse of ``SpectralField.values``."""
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"value shape {values.shape} does not match grid {grid.shape}")
    field = SpectralField(grid, forward_coeffs(grid, values))
    # the transform of real samples is Hermitian by construction, so the flag
    # is set after construction, where no symmetry check runs
    field.real = bool(np.isrealobj(values))
    return field


def forward_coeffs(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of grid samples, or of a stack of them (leading row axes)."""
    return np.fft.fftn(values, axes=tuple(range(-grid.dim, 0))) / (grid.n ** grid.dim)


def inverse_values(grid: Grid, coeffs: np.ndarray, real: bool = False) -> np.ndarray:
    """Grid samples of coefficients, or of a stack of them; the real part when ``real``."""
    v = np.fft.ifftn(coeffs, axes=tuple(range(-grid.dim, 0))) * (grid.n ** grid.dim)
    return v.real if real else v


def constant_field(grid: Grid, c: complex) -> SpectralField:
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[(0,) * grid.dim] = c
    return SpectralField(grid, coeffs, real=bool(np.imag(c) == 0))


def mode_field(grid: Grid, k) -> SpectralField:
    """Single Fourier mode ``e_k``."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[grid.index_of_freq(k)] = 1.0
    return SpectralField(grid, coeffs)


def field_from_function(grid: Grid, fn) -> SpectralField:
    """Sample ``fn`` on the grid; ``fn`` receives one coordinate array per axis."""
    vals = fn(*grid.coords())
    return forward_transform(grid, np.asarray(vals, dtype=float))


def spectral_band(grid: Grid, coeffs: np.ndarray) -> int:
    """Largest ``|k|`` on any axis at an exactly nonzero coefficient, 0 if there is none.

    ``coeffs`` is one spectrum or a stack of them (leading batch axes), and
    the Nyquist bin counts as ``n/2``.  No tolerance is applied, so every
    coefficient outside the band is exactly zero.
    """
    # a reduction casts in buffered chunks, so a stack makes no full mask
    nz = coeffs.any(axis=tuple(range(coeffs.ndim - grid.dim)))
    k = np.abs(grid.freq_axis())
    band = 0
    for ax in range(grid.dim):
        hit = nz.any(axis=tuple(a for a in range(grid.dim) if a != ax))
        band = max(band, int(k[hit].max(initial=0)))
    return band


class Scratch:
    """Arrays handed out again and again by key, so a loop over chunks allocates once.

    ``array(key, shape, dtype)`` returns the first ``shape[0]`` rows of the
    one array held for that key, trailing shape and dtype, made on the first
    call and made anew only when a call asks for more rows.  Its contents are
    whatever its last user left.  Each computation, or thread, takes its own.
    """

    def __init__(self):
        self._arrays = {}

    def array(self, key, shape, dtype=np.complex128) -> np.ndarray:
        shape = tuple(shape)
        slot = (key, shape[1:], np.dtype(dtype))
        buf = self._arrays.get(slot)
        if buf is None or buf.shape[0] < shape[0]:
            buf = self._arrays[slot] = np.empty(shape, dtype)
        return buf[:shape[0]]


def upsampled_values(coeffs: np.ndarray, m: int, band: int, *,
                     scratch: Scratch = None) -> np.ndarray:
    """Trigonometric interpolation on the grid of ``m`` points per axis.

    ``coeffs`` is a stack of spectra, shape ``(rows, s, ..., s)``: each row a
    spectrum in DFT order with ``s`` points per axis, ``s`` being the grid's
    ``n`` or the band-cropped ``2 band + 1``; a single field enters as a stack
    of one.  ``band`` is ``spectral_band`` of the spectra, or any bound above
    it up to ``s/2``.  Below ``s/2`` only the ``2 band + 1`` frequencies per
    axis are copied, so any ``m > 2 band`` works, ``m < s`` included; at
    ``s/2`` the spectrum is copied whole, ``m >= s`` is needed, and the
    Nyquist coefficient is split over ``+s/2`` and ``-s/2`` so real fields
    stay real and original samples are reproduced exactly.  Each axis is
    zero-padded just before its own inverse transform, last axis first, so
    the all-zero rows of the padded spectrum are never transformed; the
    result is bit-identical to one ``ifftn`` of the fully padded array.
    Returns complex ``(rows, m, ..., m)``; the real part is the values of a
    real field.  The padded axes and the result are arrays of ``scratch``
    when one is given, so the result holds until its next use.
    """
    n = coeffs.shape[-1]
    if m < 1 or int(m) != m:
        raise ValueError(f"points per axis must be a positive integer, got {m}")
    if m != n and m < (2 * band + 1 if 2 * band < n else n):
        raise ValueError(f"{m} points per axis cannot hold the band |k| <= {band} of n = {n}")
    scratch = Scratch() if scratch is None else scratch
    axes = range(1, coeffs.ndim)
    if m == n:
        v = np.fft.ifftn(coeffs, axes=tuple(axes), out=scratch.array("upsampled", coeffs.shape))
    else:
        v = coeffs
        if 2 * band + 1 < n:
            # the axes transformed last keep only their band rows until their turn
            for ax in axes[:-1]:
                v = _pad_axis(v, ax, 2 * band + 1, band, scratch)
        for ax in reversed(axes):
            v = _pad_axis(v, ax, m, band, scratch)
            np.fft.ifftn(v, axes=(ax,), out=v)
    v *= m ** (coeffs.ndim - 1)
    return v


def _pad_axis(c: np.ndarray, ax: int, m: int, band: int, scratch: Scratch) -> np.ndarray:
    """The frequencies ``|k| <= band`` of ``c`` along ``ax``, laid into ``m`` bins.

    The result is an array of ``scratch``: the copied bins are written over
    and the bins between them zeroed.  When ``2 band`` is the axis length,
    its Nyquist bin is split over ``+band`` and ``-band``.
    """
    size = c.shape[ax]
    split = 2 * band == size
    low, high = band + 1 - split, band - split   # bins 0..low-1 and the last `high`
    shape = list(c.shape)
    shape[ax] = m
    out = scratch.array(("pad", ax), shape)     # one per axis: each pass reads the last
    src = [slice(None)] * c.ndim

    dst = list(src)
    src[ax] = slice(0, low)
    dst[ax] = slice(0, low)
    out[tuple(dst)] = c[tuple(src)]

    dst[ax] = slice(low, m - high)
    out[tuple(dst)] = 0.0

    src[ax] = slice(size - high, size)
    dst[ax] = slice(m - high, m)
    out[tuple(dst)] = c[tuple(src)]

    if split:
        src[ax] = band
        dst[ax] = band
        out[tuple(dst)] = c[tuple(src)] / 2.0
        dst[ax] = m - band
        out[tuple(dst)] = c[tuple(src)] / 2.0
    return out
