"""Periodic spectral grids and the fields that live on them.

Uniform tensor grids on the box [-L, L)^d with FFT-based calculus. Quadrature
is everywhere the plain Riemann sum ``h^d * sum(...)``, which is spectrally
accurate for smooth fields that decay inside the box; derivatives are exact
multiplications by ``i k`` in frequency space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "apply_symbol",
    "norm",
    "normalize",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d with n points per axis."""

    d: int
    n: int
    half_width: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        if not np.isfinite(self.half_width) or self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def h(self) -> float:
        """Grid spacing 2L/n."""
        return 2.0 * self.half_width / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def dv(self) -> float:
        """Quadrature weight h^d of one grid cell."""
        return self.h ** self.d

    @cached_property
    def x_axis(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.n)

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Wavenumbers in FFT order: integer multiples of pi/L."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def coords(self) -> tuple:
        """d coordinate arrays, broadcastable to ``shape``."""
        return tuple(
            self.x_axis.reshape((1,) * ax + (self.n,) + (1,) * (self.d - ax - 1))
            for ax in range(self.d)
        )

    @cached_property
    def r2(self) -> np.ndarray:
        """|x|^2 on the grid."""
        out = np.zeros(self.shape)
        for x in self.coords():
            out = out + x ** 2
        return out

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the grid, FFT ordering."""
        return self._k2_up_to(self.n)

    @cached_property
    def k2_half(self) -> np.ndarray:
        """|k|^2 in ``rfftn`` layout: the last axis keeps its n//2 + 1 modes."""
        return self._k2_up_to(self.n // 2 + 1)

    def _k2_up_to(self, last: int) -> np.ndarray:
        """|k|^2 on the first ``last`` modes of the last axis, FFT ordering."""
        out = np.zeros(self.shape[:-1] + (last,))
        for ax in range(self.d):
            out = out + self.k_along(ax)[..., :last] ** 2
        return out

    def kinetic(self, values: np.ndarray, p: int = 1) -> float:
        """Quadrature sum(|k|^{2p} |u-hat|^2) h^d of samples u (unitary FFT)."""
        hat = sfft.fftn(values, norm="ortho")
        weight = self.k2 if p == 1 else self.k2 ** p
        return float(np.sum(weight * np.abs(hat) ** 2) * self.dv)

    def kernel_symbol(self, values: np.ndarray) -> np.ndarray:
        """h^d times the ``rfftn`` symbol of a real kernel centred in the box.

        With it :func:`apply_symbol` approximates the continuum convolution
        with the kernel, taken as a function of the displacement x - y.
        """
        if np.iscomplexobj(values) and np.any(values.imag != 0):
            raise ValueError("the kernel must be real")
        return sfft.rfftn(np.fft.ifftshift(np.real(values))) * self.dv

    def k_along(self, axis: int) -> np.ndarray:
        return self.k_axis.reshape(
            (1,) * axis + (self.n,) + (1,) * (self.d - axis - 1)
        )

    @cached_property
    def boundary_shell(self) -> np.ndarray:
        """Mask of the two outermost grid layers along any axis."""
        edge = np.zeros(self.n, dtype=bool)
        edge[:2] = True
        edge[-2:] = True
        out = np.zeros(self.shape, dtype=bool)
        for ax in range(self.d):
            out |= edge.reshape((1,) * ax + (self.n,) + (1,) * (self.d - ax - 1))
        return out


def make_grid(d: int, n: int, half_width: float) -> Grid:
    """Build a periodic grid on [-half_width, half_width)^d."""
    return Grid(d=d, n=n, half_width=float(half_width))


@dataclass
class Field:
    """Complex-valued point samples on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals



def apply_symbol(symbol: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a Fourier multiplier to samples: irfftn(symbol * rfftn(u)).

    ``symbol`` is given in ``rfftn`` layout (as :attr:`Grid.k2_half`). Any
    such symbol of a real convolution kernel works, ``rfftn`` of the kernel
    samples: real and even ones such as ``k2_half`` and complex ones of
    kernels that are not even (:meth:`Grid.kernel_symbol`). ``u`` is one
    field of the full spatial shape or a batch of them stacked along one
    trailing axis. The result has the shape and kind of ``u``: a complex
    ``u`` goes through as the batch of its real and imaginary parts.
    """
    if np.iscomplexobj(u):
        u = np.ascontiguousarray(u, dtype=np.complex128)
        out = apply_symbol(symbol, u.view(np.float64).reshape(u.shape + (2,)))
        return np.ascontiguousarray(out).view(np.complex128)[..., 0]
    d = symbol.ndim
    axes = tuple(range(d))
    hat = sfft.rfftn(u, axes=axes)
    hat *= symbol.reshape(symbol.shape + (1,) * (u.ndim - d))
    return sfft.irfftn(hat, s=u.shape[:d], axes=axes, overwrite_x=True)


def norm(f: Field, kind: str = "L2") -> float:
    """Field norms: L2, L4, Linf, H1, H2.

    H1^2 = L2^2 + |grad|^2, H2^2 adds the Laplacian term.
    """
    kind = kind.upper()
    vals = f.values
    dv = f.grid.dv
    if kind == "L2":
        return float(np.sqrt(np.sum(np.abs(vals) ** 2).real * dv))
    if kind == "L4":
        return float(np.sum(np.abs(vals) ** 4).real * dv) ** 0.25
    if kind == "LINF":
        return float(np.max(np.abs(vals)))
    if kind in ("H1", "H2"):
        total = np.sum(np.abs(vals) ** 2) * dv + f.grid.kinetic(vals)
        if kind == "H2":
            total += f.grid.kinetic(vals, 2)
        return float(np.sqrt(total))
    raise ValueError(f"unknown norm kind {kind!r}")


def normalize(f: Field) -> Field:
    """Rescale to unit L2 norm."""
    n2 = norm(f, "L2")
    if n2 == 0.0:
        raise ValueError("cannot normalize the zero field")
    return Field(f.grid, f.values / n2)

