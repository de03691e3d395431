"""Least-energy extensions of multi-branch circle traces into the disk.

In codimension one the least-energy extension of a multi-branch boundary
trace is obtained by sorting the boundary values pointwise and harmonically
extending each sorted branch.  With per-branch Fourier coefficients both the
interior and the boundary Dirichlet energies are spectral sums, which makes
the two-dimensional comparison Dir <= Q r dir a per-mode inequality
(k <= Q k^2) that can be checked with an explicit margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .func1d import _check_rows
from .writers import write_json

__all__ = [
    "CircleTraceQ",
    "DiskMinimizer",
    "AliasingError",
    "sorted_trace",
    "minimize_disk",
    "check_squeeze_2d",
    "decay_profile_2d",
]


class AliasingError(ValueError):
    """Sample count too small for the requested number of Fourier modes."""


@dataclass(frozen=True)
class CircleTraceQ:
    """A multi-branch boundary trace on a circle of radius `radius`.

    Branch values are sorted at every sampled angle; `cos_coeffs[i, k]` and
    `sin_coeffs[i, k]` hold the mode-k Fourier coefficients of branch i
    (sin_coeffs[:, 0] is zero).  Sorting a smooth trace can create corners,
    so `truncation_residual` records the worst error of the band-limited
    representation against the samples.
    """

    radius: float
    angles: np.ndarray  # (N,)
    samples: np.ndarray  # (Q, N), sorted per column
    cos_coeffs: np.ndarray  # (Q, M + 1)
    sin_coeffs: np.ndarray  # (Q, M + 1)
    truncation_residual: float

    @property
    def q_count(self) -> int:
        return self.samples.shape[0]

    @property
    def mode_cap(self) -> int:
        return self.cos_coeffs.shape[1] - 1


def _fourier_rows(samples: np.ndarray, mode_cap: int) -> tuple[np.ndarray, np.ndarray]:
    q, n = samples.shape
    spectrum = np.fft.rfft(samples, axis=1) / n
    a = np.zeros((q, mode_cap + 1))
    b = np.zeros((q, mode_cap + 1))
    a[:, 0] = spectrum[:, 0].real
    a[:, 1:] = 2.0 * spectrum[:, 1 : mode_cap + 1].real
    b[:, 1:] = -2.0 * spectrum[:, 1 : mode_cap + 1].imag
    return a, b


def sorted_trace(values, sample_count: int, mode_cap: int, radius: float = 1.0) -> CircleTraceQ:
    """Sample a circle trace, sort branch values per angle, and transform.

    `values` is either a callable angle -> sequence of Q real values or an
    array of shape (Q, sample_count) sampled at uniform angles 2 pi j / N.
    Needs sample_count >= 2 * mode_cap + 1 so the retained modes are not
    aliased.
    """
    if mode_cap < 0:
        raise ValueError(f"mode_cap must be nonnegative, got {mode_cap!r}")
    if sample_count < 2 * mode_cap + 1:
        raise AliasingError(f"need at least {2 * mode_cap + 1} samples for {mode_cap} modes")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive and finite")
    basis = f"the Fourier basis of {mode_cap + 1} modes x {sample_count} samples"
    _check_rows((mode_cap + 1) * sample_count, basis, "values")
    angles = 2.0 * np.pi * np.arange(sample_count) / sample_count
    if callable(values):
        q = len(np.atleast_1d(values(angles[0])))
        raw = np.empty((sample_count, q)).T  # (Q, N) with each angle's column contiguous
        for j, t in enumerate(angles):
            column = np.atleast_1d(values(t))
            if column.shape != (q,):
                raise ValueError(f"the trace gave {q} values at angle 0 but shape {column.shape} at angle {t}")
            raw[:, j] = column
    else:
        raw = np.asarray(values, dtype=float)
        if raw.ndim == 1:
            raw = raw.reshape(1, -1)
    if raw.shape[1] != sample_count:
        raise ValueError("sampled values must have one column per angle")
    if not np.all(np.isfinite(raw)):
        raise ValueError("trace samples must be finite")
    samples = np.sort(raw, axis=0)
    a, b = _fourier_rows(samples, mode_cap)
    k = np.arange(mode_cap + 1)
    recon = a @ np.cos(np.outer(k, angles)) + b @ np.sin(np.outer(k, angles))
    residual = float(np.abs(recon - samples).max())
    return CircleTraceQ(
        radius=float(radius),
        angles=angles,
        samples=samples,
        cos_coeffs=a,
        sin_coeffs=b,
        truncation_residual=residual,
    )


@dataclass(frozen=True)
class DiskMinimizer:
    """Branchwise harmonic extension of a sorted trace with its energies.

    dir_interior is the Dirichlet energy of the extension over the disk
    (radius-invariant); dir_boundary the tangential-derivative energy of the
    trace over the circle of radius r (scaling like 1/r).
    """

    trace: CircleTraceQ
    dir_interior: float
    dir_boundary: float

    @property
    def q_count(self) -> int:
        return self.trace.q_count

    def subdisk_energy(self, scale: float) -> float:
        """Energy over the concentric subdisk of radius scale * r."""
        if not 0 < scale <= 1:
            raise ValueError("scale must lie in (0, 1]")
        a, b = self.trace.cos_coeffs, self.trace.sin_coeffs
        k = np.arange(a.shape[1])
        power = (a**2 + b**2) * scale ** (2 * k)
        return float(np.pi * np.sum(k * power))

    def to_json_dict(self) -> dict:
        return {
            "radius": self.trace.radius,
            "q_count": self.q_count,
            "angles": self.trace.angles,
            "samples": self.trace.samples,
            "cos_coeffs": self.trace.cos_coeffs,
            "sin_coeffs": self.trace.sin_coeffs,
            "truncation_residual": self.trace.truncation_residual,
            "dir_interior": self.dir_interior,
            "dir_boundary": self.dir_boundary,
            "squeeze_margin": check_squeeze_2d(self)[1],
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())


def minimize_disk(trace: CircleTraceQ) -> DiskMinimizer:
    """Energies of the branchwise harmonic extension of a sorted trace.

    Per branch with coefficients (a_k, b_k): the extension's energy over the
    disk is pi sum_k k (a_k^2 + b_k^2), and the trace's tangential energy
    over the circle of radius r is (pi / r) sum_k k^2 (a_k^2 + b_k^2).
    """
    a, b = trace.cos_coeffs, trace.sin_coeffs
    k = np.arange(a.shape[1])
    power = a**2 + b**2
    interior = float(np.pi * np.sum(k * power))
    with np.errstate(invalid="ignore"):  # inf * 0 when pi / r overflows, rejected below
        boundary = float(np.pi / trace.radius * np.sum(k**2 * power))
    if not np.isfinite(boundary):
        raise ValueError(f"radius {trace.radius!r} gives a non-finite boundary energy")
    return DiskMinimizer(trace=trace, dir_interior=interior, dir_boundary=boundary)


def check_squeeze_2d(minimizer: DiskMinimizer) -> tuple[bool, float]:
    """Check dir_interior <= Q r dir_boundary; returns (holds, margin).

    Spectrally the comparison is sum k p_k <= Q sum k^2 p_k with p_k >= 0,
    so the margin is nonnegative for every trace and zero exactly for a
    single branch supported on mode one.
    """
    bound = minimizer.q_count * minimizer.trace.radius * minimizer.dir_boundary
    margin = bound - minimizer.dir_interior
    return bool(margin >= 0.0), float(margin)


def decay_profile_2d(minimizer: DiskMinimizer, scales) -> list[tuple[float, float]]:
    """Subdisk energies [(s, Dir over radius s r)]; nondecreasing in s.

    Mode k contributes with factor s^(2k), so the log-log slope sits at
    twice the lowest active mode.
    """
    out = []
    for s in scales:
        out.append((float(s), minimizer.subdisk_energy(float(s))))
    return out
