"""Driver paths: fractional Brownian motion and closed-form test drivers.

fBm with Hurst index H is the centred Gaussian process with covariance
R(s,t) = (s^{2H} + t^{2H} - |t-s|^{2H}) / 2.  Sampling draws its increments
(fractional Gaussian noise, a stationary sequence) by circulant embedding
(Davies & Harte, Biometrika 74, 1987; Dietrich & Newsam, SIAM J. Sci. Comput.
18, 1997): the m x m Toeplitz covariance is the corner of a circulant of size
2m, whose eigenvalues one FFT gives, and a second FFT of complex Gaussian
noise scaled by their square roots has real part with exactly that
covariance.  For fGn the eigenvalues are nonnegative at every H in [1/2, 1)
(Craigmile, J. Time Ser. Anal. 24, 2003), so the sample is exact to roundoff
at O(n log n) time and O(n) memory.  H > 1/2 keeps the sample paths of
finite p-variation for every p > 1/H < 2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .paths import SampledPath


def _seed(seed) -> int:
    """seed as a non-negative int: a bool, a fraction or a string is no seed,
    while an integral float such as 2.0 is seed 2."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Real) or not float(seed).is_integer():
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class FbmSpec:
    hurst: float
    horizon: float
    samples: int
    seed: int

    def __post_init__(self):
        if not (0.5 <= self.hurst < 1.0):
            raise ParameterError("hurst must lie in [1/2, 1) for the Young regime")
        if self.horizon <= 0:
            raise ParameterError("horizon must be positive")
        if not isinstance(self.samples, numbers.Integral):
            raise ParameterError("samples must be an integer")
        if self.samples < 2:
            raise ParameterError("need at least two samples")
        object.__setattr__(self, "seed", _seed(self.seed))

    @property
    def dt(self) -> float:
        return self.horizon / (self.samples - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.samples)


def _fgn_eigenvalues(spec: FbmSpec) -> np.ndarray:
    """Eigenvalues of the circulant of size 2m that embeds the m x m fGn covariance."""
    m = spec.samples - 1
    k = np.arange(m + 1, dtype=float)
    two_h = 2.0 * spec.hurst
    gamma = 0.5 * spec.dt ** two_h * (
        (k + 1) ** two_h + np.abs(k - 1) ** two_h - 2.0 * k ** two_h
    )
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-12 * lam.max():
        raise DataError("fBm circulant embedding has a negative eigenvalue")
    return np.maximum(lam, 0.0)


def fbm_sample(spec: FbmSpec) -> SampledPath:
    """One fBm path on the uniform grid, deterministic in the seed; w_0 = 0."""
    lam = _fgn_eigenvalues(spec)
    size = len(lam)
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    increments = np.fft.fft(np.sqrt(lam / size) * z).real[: spec.samples - 1]
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return SampledPath(spec.times, values)


def fbm_covariance_matrix(spec: FbmSpec) -> np.ndarray:
    """Target covariance R(s,t) on the positive grid times t_1..t_{n-1}."""
    t = spec.times[1:]
    two_h = 2.0 * spec.hurst
    s_col = t[:, None]
    t_row = t[None, :]
    return 0.5 * (s_col ** two_h + t_row ** two_h - np.abs(t_row - s_col) ** two_h)


def fbm_covariance_defect(spec: FbmSpec) -> float:
    """Max-abs gap between the covariance `fbm_sample` draws from and R; 0 up to roundoff."""
    m = spec.samples - 1
    gamma = np.fft.ifft(_fgn_eigenvalues(spec)).real[:m]
    increments = gamma[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]
    achieved = np.cumsum(np.cumsum(increments, axis=0), axis=1)
    return float(np.max(np.abs(achieved - fbm_covariance_matrix(spec))))


def analytic_driver(kind: str, params: dict, grid) -> SampledPath:
    """Deterministic closed-form drivers used by the oracle tests.

    kinds: linear (slope, offset), sine (amp, freq, phase), power
    (exponent, scale), brownian_like (seed, scale).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ParameterError("grid must be strictly increasing with >= 2 points")
    params = dict(params or {})
    if kind == "linear":
        slope = float(params.get("slope", 1.0))
        offset = float(params.get("offset", 0.0))
        values = offset + slope * grid
    elif kind == "sine":
        amp = float(params.get("amp", 1.0))
        freq = float(params.get("freq", 1.0))
        phase = float(params.get("phase", 0.0))
        values = amp * np.sin(freq * grid + phase)
    elif kind == "power":
        k = float(params.get("exponent", 2.0))
        scale = float(params.get("scale", 1.0))
        if np.any(grid < 0):
            raise ParameterError("power driver needs nonnegative times")
        values = scale * grid ** k
    elif kind == "brownian_like":
        rng = np.random.default_rng(_seed(params.get("seed", 0)))
        scale = float(params.get("scale", 1.0))
        steps = rng.standard_normal(len(grid) - 1) * np.sqrt(np.diff(grid))
        values = scale * np.concatenate([[0.0], np.cumsum(steps)])
    else:
        raise ParameterError(f"unknown analytic driver kind {kind!r}")
    return SampledPath(grid, values)
