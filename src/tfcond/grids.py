"""Periodic spectral grids and the fields that live on them.

Uniform tensor grids on the box [-L, L)^d with FFT-based calculus. Quadrature
is everywhere the plain Riemann sum ``h^d * sum(...)``, which is spectrally
accurate for smooth fields that decay inside the box; derivatives are exact
multiplications by ``i k`` in frequency space.
"""

from __future__ import annotations

import functools
import math
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

    def kinetic(self, values: np.ndarray) -> tuple[float, float]:
        """Quadrature sums of |k|^2 |u-hat|^2 h^d and |k|^4 |u-hat|^2 h^d, by one unitary FFT."""
        power = np.abs(sfft.fftn(values, norm="ortho")) ** 2
        return tuple(float(np.sum(w * power) * self.dv) for w in (self.k2, self.k2 ** 2))

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


# Longest sector axis, in points, on which _ParitySector.apply_symbol applies
# T as a dense matrix, one GEMM per axis; longer axes go through scipy.fft.
# Medians on 2 cores (OpenBLAS, pocketfft), T symbol T over a sector, dense
# against scipy.fft: 0.05 against 0.20 ms at 32^3 (17 points per axis), 0.5
# against 2.3 ms at 64^3 (33 points), 4 against 11 ms at 128^3 (65 points),
# a tie at 256^2 (129 points) and 1.9 against 0.07 ms at n = 4096 in 1D
# (2049 points). Sector axes of one grid differ by two points, so with n a
# power of two they all fall on the same side: dense for n <= 128.
_DENSE_AXIS_MAX = 65


class _ParitySector:
    """One reflection-parity sector of a cubic grid, stored on an octant.

    The reflection x_ax -> -x_ax maps grid index j to (n - j) mod n and fixes
    the origin j = n/2 and the box edge j = 0. A field of parity p (per axis,
    0 even, 1 odd) is fixed by its values at j = n/2 + o: o = 0..n/2 on an
    even axis, o = 1..n/2-1 on an odd one (it vanishes at the fixed points).
    Sector vectors hold those values times sqrt(2) per axis where the point
    has a mirror image, so :meth:`unfold` is an isometry onto the parity
    subspace and -Lap acts per axis as T diag(k^2) T, with T the orthonormal
    DCT-I (even) or DST-I (odd), which is its own inverse. Where ``c2`` is
    1 per axis at a fixed point and 1/2 elsewhere, the unfolded field is
    sqrt(c2) x at the octant points, so its density there is c2 x^2.
    :meth:`apply_symbol` applies T as a dense matrix, built on first use,
    on axes of at most _DENSE_AXIS_MAX points (grids up to n = 128), where
    a GEMM beats the FFT, and through ``scipy.fft`` on longer ones;
    :meth:`prolong` always goes through ``scipy.fft``.
    """

    def __init__(self, grid: Grid, parity: tuple):
        n, half = grid.n, grid.n // 2
        self.parity = parity
        self._axes = []  # per axis: octant points j, mirror points n - j, their weights
        self._tables = []  # per axis: k^2 and c2 at the octant points, multiplied out lazily
        for odd in parity:
            o = np.arange(1, half) if odd else np.arange(half + 1)
            fixed = (o == 0) | (o == half)
            # a fixed point is its own mirror: the two halves of its weight add up
            weight = np.where(fixed, 0.5, math.sqrt(0.5))
            mirror_weight = -weight if odd else weight
            self._axes.append(((half + o) % n, (half - o) % n, weight, mirror_weight))
            self._tables.append((grid.k_axis[o] ** 2, np.where(fixed, 1.0, 0.5)))
        self.n = n
        self.shape = tuple(k2.size for k2, _ in self._tables)
        self.dim = math.prod(self.shape)

    @functools.cached_property
    def k2(self) -> np.ndarray:
        return functools.reduce(np.add.outer, (k2 for k2, _ in self._tables), np.zeros(()))

    @functools.cached_property
    def c2(self) -> np.ndarray:
        c2 = functools.reduce(np.multiply.outer, (c2 for _, c2 in self._tables), np.ones(()))
        return c2.ravel()

    @staticmethod
    def _along(vec, ax, ndim):
        return vec.reshape((-1,) + (1,) * (ndim - ax - 1))

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """Sector vector of the parity part of a full-grid field (adjoint of unfold)."""
        for ax, (plus, minus, w_plus, w_minus) in enumerate(self._axes):
            f = (
                np.take(f, plus, axis=ax) * self._along(w_plus, ax, f.ndim)
                + np.take(f, minus, axis=ax) * self._along(w_minus, ax, f.ndim)
            )
        return f.reshape(self.dim)

    def unfold(self, X: np.ndarray) -> np.ndarray:
        """Full-grid fields (flattened, one per column) of sector vectors."""
        f = X.reshape(self.shape + X.shape[1:])
        half = self.n // 2
        for ax, ((_, _, w_plus, w_minus), odd) in enumerate(zip(self._axes, self.parity)):
            out = np.zeros(f.shape[:ax] + (self.n,) + f.shape[ax + 1 :])
            lead = (slice(None),) * ax
            # the octant offsets 1..n/2-1 go to j = n/2 + o and to their mirrors n/2 - o
            o = slice(None) if odd else slice(1, half)
            for j, w in ((slice(half + 1, None), w_plus), (slice(half - 1, 0, -1), w_minus)):
                np.multiply(f[lead + (o,)], self._along(w[o], ax, f.ndim), out=out[lead + (j,)])
            if not odd:  # the origin o = 0 and the box edge o = n/2 are their own mirrors
                for j, o in ((half, 0), (0, half)):
                    out[lead + (j,)] = f[lead + (o,)] * w_plus[o] + f[lead + (o,)] * w_minus[o]
            f = out
        return f.reshape((-1,) + X.shape[1:])

    def octant(self, f: np.ndarray) -> np.ndarray:
        """Samples of a full-grid field at the sector's octant points."""
        return f[np.ix_(*(plus for plus, *_ in self._axes))]

    def transpose(self, X: np.ndarray, axes: tuple) -> np.ndarray:
        """Sector vectors X with their octant arrays transposed by ``axes``.

        Axis ax of the result is axis axes[ax] of X, as in ``np.transpose``,
        so the result holds vectors of the sector whose parity on axis ax is
        ``parity[axes[ax]]``.
        """
        d = len(axes)
        u = X.reshape(self.shape + X.shape[1:])
        u = u.transpose(tuple(axes) + tuple(range(d, u.ndim)))
        return u.reshape(X.shape)

    @functools.cached_property
    def _matrices(self):
        """T per axis as an m x m matrix, or None if an axis is past the cut-off."""
        if max(self.shape) > _DENSE_AXIS_MAX:
            return None
        return [
            (sfft.dst if odd else sfft.dct)(np.eye(m), type=1, axis=0, norm="ortho")
            for m, odd in zip(self.shape, self.parity)
        ]

    def apply_symbol(self, symbol: np.ndarray, X: np.ndarray) -> np.ndarray:
        """T symbol T X for sector vectors X (one, or one per column)."""
        if self._matrices is not None:
            # one GEMM per axis: T on the leading axis, which it moves to the
            # end, so after d of them the columns lead, then back the same way
            u = X
            for T in self._matrices:
                u = u.reshape(T.shape[0], -1).T @ T.T
            u = u.reshape(-1, self.dim)
            u *= symbol.reshape(self.dim)
            for T in reversed(self._matrices):
                u = T @ u.reshape(-1, T.shape[0]).T
            return u.reshape(X.shape)
        u = X.reshape(self.shape + X.shape[1:])
        for ax, odd in enumerate(self.parity):
            u = (sfft.dst if odd else sfft.dct)(u, type=1, axis=ax, norm="ortho")
        u *= symbol.reshape(self.shape + (1,) * (X.ndim - 1))
        for ax, odd in enumerate(self.parity):
            u = (sfft.dst if odd else sfft.dct)(
                u, type=1, axis=ax, norm="ortho", overwrite_x=True
            )
        return u.reshape(X.shape)

    def prolong(self, X: np.ndarray) -> np.ndarray:
        """Columns X prolonged to the grid of 2n points, same half-width, as unit vectors.

        Per axis: T, the last DCT-I coefficient (an end point here, interior
        there) times 1/sqrt(2), zero-padding to the fine length and T there;
        exact for vectors band-limited below this grid's Nyquist wavenumber."""
        u = X.reshape(self.shape + X.shape[1:])
        for ax, odd in enumerate(self.parity):
            transform = sfft.dst if odd else sfft.dct
            u = transform(u, type=1, axis=ax, norm="ortho")
            if not odd:
                u[(slice(None),) * ax + (-1,)] *= math.sqrt(0.5)
            fine = u.shape[ax] + self.n // 2  # the fine sector's length on this axis
            u = transform(u, type=1, n=fine, axis=ax, norm="ortho")  # zero-pads to it
        u = u.reshape((-1,) + X.shape[1:])
        return u / np.linalg.norm(u, axis=0)

    def preconditioner(self, c: float, w: np.ndarray):
        """M = S (c - Lap)^{-1} S with S = diag(sqrt(c / (c + w))), as a function.

        The potential-aware preconditioner of Antoine, Levitt and Tang
        (J. Comput. Phys. 343, 92 (2017)) for -Lap + w: c > 0 is the shift
        and w >= 0 a potential at the octant points, so M is symmetric
        positive definite. Where w dominates, S scales the residual down by
        the local 1/(c + w), which (c - Lap)^{-1} alone ignores. The
        returned function takes one sector vector or a column block.
        """
        inv_shifted = 1.0 / (c + self.k2)
        scale = np.sqrt(c / (c + w))

        def apply(X):
            s = scale.reshape((-1,) + (1,) * (X.ndim - 1))
            out = self.apply_symbol(inv_shifted, s * X)
            out *= s
            return out

        return apply


def norm(f: Field, kind: str = "L2") -> float:
    """Field norms: L2, L4, Linf."""
    kind = kind.upper()
    vals = f.values
    dv = f.grid.dv
    if kind == "L2":
        return float(np.sqrt(np.sum(np.abs(vals) ** 2).real * dv))
    if kind == "L4":
        return float(np.sum(np.abs(vals) ** 4).real * dv) ** 0.25
    if kind == "LINF":
        return float(np.max(np.abs(vals)))
    raise ValueError(f"unknown norm kind {kind!r}")


def normalize(f: Field) -> Field:
    """Rescale to unit L2 norm."""
    n2 = norm(f, "L2")
    if n2 == 0.0:
        raise ValueError("cannot normalize the zero field")
    return Field(f.grid, f.values / n2)

