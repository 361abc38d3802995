"""Discrete real periodic fields on the unit torus.

Fields live on the uniform grid x_j = j/N (periodic length 1). The spectral
side uses the normalized DFT

    u_hat_k = (1/N) sum_j u(x_j) exp(-2 pi i k x_j),

which agrees with continuum Fourier coefficients for band-limited fields. The
fractional Laplacian of order theta acts as the Fourier multiplier
(4 pi^2 |k|^2)^theta, so theta = 1 coincides exactly with the spectral -Laplace
operator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

FOUR_PI_SQ = 4.0 * np.pi**2

__all__ = [
    "GridSpec",
    "SpectralField",
    "constant_field",
    "field_from_spectrum",
    "apply_fractional_laplacian",
    "fractional_multiplier",
    "laplacian_multiplier",
    "path_l1_integral",
    "field_from_csv",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with N nodes on the unit torus."""

    points_per_axis: int = 128

    def __post_init__(self):
        n = self.points_per_axis
        if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(n):
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n!r}")

    @property
    def cell_width(self) -> float:
        return 1.0 / self.points_per_axis

    @property
    def shape(self) -> tuple[int]:
        return (self.points_per_axis,)

    @property
    def size(self) -> int:
        return self.points_per_axis

    def nodes(self) -> np.ndarray:
        """Node coordinates x_j = j/N."""
        return np.arange(self.points_per_axis) / self.points_per_axis

    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in the numpy FFT ordering (0..N/2-1, -N/2..-1)."""
        n = self.points_per_axis
        return np.fft.fftfreq(n, d=1.0 / n)

    def squared_wavenumber(self) -> np.ndarray:
        """|k|^2 in the numpy FFT ordering."""
        return self.wavenumbers() ** 2


class SpectralField:
    """Immutable real field with a lazily cached full spectrum."""

    __slots__ = ("grid", "values", "_spectrum")

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._spectrum = None

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            spec = np.fft.fft(self.values) / self.grid.size
            spec.setflags(write=False)
            self._spectrum = spec
        return self._spectrum

    def __repr__(self):
        return f"SpectralField(n={self.grid.points_per_axis})"


def constant_field(grid: GridSpec, value: float) -> SpectralField:
    return SpectralField(grid, np.full(grid.shape, float(value)))


def field_from_spectrum(grid: GridSpec, spectrum) -> SpectralField:
    """Inverse of SpectralField.spectrum; discards machine-level imaginary residue."""
    spectrum = np.asarray(spectrum, dtype=complex)
    if spectrum.shape != grid.shape:
        raise ValueError(f"spectrum shape {spectrum.shape} does not match grid {grid.shape}")
    values = np.fft.ifft(spectrum * grid.size)
    return SpectralField(grid, values.real)


def fractional_multiplier(grid: GridSpec, theta: float) -> np.ndarray:
    """Fourier symbol (4 pi^2 |k|^2)^theta of the fractional Laplacian."""
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    return (FOUR_PI_SQ * grid.squared_wavenumber()) ** theta


def laplacian_multiplier(grid: GridSpec) -> np.ndarray:
    """Fourier symbol 4 pi^2 |k|^2 of -Laplace."""
    return FOUR_PI_SQ * grid.squared_wavenumber()


def apply_fractional_laplacian(field: SpectralField, theta: float) -> SpectralField:
    mult = fractional_multiplier(field.grid, theta)
    out = np.fft.ifft(mult * field.spectrum * field.grid.size)
    return SpectralField(field.grid, out.real)


def path_l1_integral(times, fields) -> float:
    """Left-endpoint rectangle rule for the time integral of the spatial L1 norm.

    This is the discrete realization of the L1([0,T]; L1) path norm used by all
    experiment statistics; tolerances elsewhere refer to this convention.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(fields):
        raise ValueError("times and fields must have equal length")
    if len(times) < 2:
        return 0.0
    total = 0.0
    for i in range(len(times) - 1):
        u = fields[i].values if isinstance(fields[i], SpectralField) else np.asarray(fields[i])
        total += (times[i + 1] - times[i]) * float(np.mean(np.abs(u)))
    return total


def field_from_csv(path, grid: GridSpec | None = None) -> SpectralField:
    """Field from a CSV with one header row and the nodal values in its last
    column; without a grid, the row count sets N."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array([float(r[-1]) for r in rows[1:]])
    if grid is None:
        n = len(values)
        if not _is_power_of_two(n):
            raise ValueError(f"cannot infer a power-of-two grid from {n} rows")
        grid = GridSpec(points_per_axis=n)
    return SpectralField(grid, values.reshape(grid.shape))
