"""Periodic spectral grids and the fields that live on them.

Uniform tensor grids on the box [-L, L)^d with FFT-based calculus. Quadrature
is everywhere the plain Riemann sum ``h^d * sum(...)``, which is spectrally
accurate for smooth fields that decay inside the box; derivatives are exact
multiplications by ``i k`` in frequency space. Forward/backward transforms use
the unitary FFT normalization, so Parseval holds with the *same* quadrature
weight in both bases.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "field_from_function",
    "transform",
    "apply_symbol",
    "inner",
    "norm",
    "gradient",
    "laplacian",
    "convolve",
    "normalize",
    "save_field",
    "load_field",
    "field_to_csv",
]

_BASES = ("position", "frequency")

# hard cap for CSV export; larger fields go through save_field instead
_CSV_MAX_POINTS = 2 ** 18


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
    def npoints(self) -> int:
        return self.n ** self.d

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
        out = np.zeros(self.shape)
        for ax in range(self.d):
            k = self.k_axis.reshape(
                (1,) * ax + (self.n,) + (1,) * (self.d - ax - 1)
            )
            out = out + k ** 2
        return out

    @cached_property
    def k2_half(self) -> np.ndarray:
        """|k|^2 in ``rfftn`` layout: the last axis keeps its n//2 + 1 modes."""
        return np.ascontiguousarray(self.k2[..., : self.n // 2 + 1])

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
    """Complex-valued samples on a :class:`Grid`, tagged by basis.

    ``basis`` is ``"position"`` for point samples and ``"frequency"`` for
    unitary-FFT coefficients (FFT mode ordering).
    """

    grid: Grid
    values: np.ndarray
    basis: str = "position"

    def __post_init__(self):
        if self.basis not in _BASES:
            raise ValueError(f"basis must be one of {_BASES}, got {self.basis!r}")
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = vals

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.basis)

    def _check_compatible(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.values + other.values, self.basis)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.values - other.values, self.basis)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.values * complex(c), self.basis)

    __rmul__ = __mul__


def field_from_function(grid: Grid, fn) -> Field:
    """Sample ``fn(*coords)`` on the grid (position basis)."""
    vals = np.broadcast_to(fn(*grid.coords()), grid.shape)
    return Field(grid, np.array(vals, dtype=np.complex128))


def transform(f: Field) -> Field:
    """Unitary FFT between position and frequency representations."""
    if f.basis == "position":
        return Field(f.grid, np.fft.fftn(f.values, norm="ortho"), "frequency")
    return Field(f.grid, np.fft.ifftn(f.values, norm="ortho"), "position")


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


def inner(f: Field, g: Field) -> complex:
    """L2 inner product h^d * sum(conj(f) g); requires matching grid/basis."""
    f._check_compatible(g)
    return complex(np.vdot(f.values, g.values) * f.grid.dv)


def _require_position(f: Field, what: str):
    if f.basis != "position":
        raise ValueError(f"{what} requires a position-basis field")


def norm(f: Field, kind: str = "L2") -> float:
    """Field norms: L2, L4, Linf, H1, H2.

    L2 works in either basis (Parseval); the rest require position basis.
    H1^2 = L2^2 + |grad|^2, H2^2 adds the Laplacian term.
    """
    kind = kind.upper()
    vals = f.values
    dv = f.grid.dv
    if kind == "L2":
        return float(np.sqrt(np.sum(np.abs(vals) ** 2).real * dv))
    _require_position(f, f"norm {kind}")
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


def gradient(f: Field) -> list:
    """Spectral gradient, one position-basis Field per axis."""
    _require_position(f, "gradient")
    hat = np.fft.fftn(f.values)
    out = []
    for ax in range(f.grid.d):
        out.append(
            Field(f.grid, np.fft.ifftn(1j * f.grid.k_along(ax) * hat), "position")
        )
    return out


def laplacian(f: Field) -> Field:
    """Spectral Laplacian (position basis in, position basis out)."""
    _require_position(f, "laplacian")
    hat = np.fft.fftn(f.values)
    return Field(f.grid, np.fft.ifftn(-f.grid.k2 * hat), "position")


def convolve(kernel: Field, f: Field) -> Field:
    """Periodic convolution (kernel * f)(x) ~ integral kernel(x-y) f(y) dy.

    FFT product scaled by the cell volume h^d, so the result approximates the
    continuum convolution when both factors decay inside the box. The kernel
    is given as ordinary position samples (origin at the center of the box)
    and acts as a function of the displacement x - y (:meth:`Grid.kernel_symbol`);
    a complex kernel acts as its real part plus i times its imaginary part.
    """
    _require_position(kernel, "convolve")
    kernel._check_compatible(f)
    grid, k = f.grid, kernel.values
    out = apply_symbol(grid.kernel_symbol(k.real), f.values)
    if np.any(k.imag != 0):
        out = out + 1j * apply_symbol(grid.kernel_symbol(k.imag), f.values)
    return Field(grid, out, "position")


def normalize(f: Field) -> Field:
    """Rescale to unit L2 norm."""
    n2 = norm(f, "L2")
    if n2 == 0.0:
        raise ValueError("cannot normalize the zero field")
    return Field(f.grid, f.values / n2, f.basis)


def save_field(path, f: Field):
    """Write a field: one JSON header line + little-endian (re, im) doubles."""
    header = {
        "d": f.grid.d,
        "n": f.grid.n,
        "L": f.grid.half_width,
        "basis": f.basis,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def load_field(path) -> Field:
    """Read a field written by :func:`save_field`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        raw = fh.read()
    grid = Grid(d=int(header["d"]), n=int(header["n"]), half_width=float(header["L"]))
    expected = 16 * grid.npoints
    if len(raw) != expected:
        raise ValueError(f"payload has {len(raw)} bytes, expected {expected}")
    vals = np.frombuffer(raw, dtype="<c16").reshape(grid.shape)
    return Field(grid, vals.astype(np.complex128), header["basis"])


def field_to_csv(path, f: Field):
    """CSV export (x_0..x_{d-1}, re, im); only for small grids."""
    if f.grid.npoints > _CSV_MAX_POINTS:
        raise ValueError(
            f"grid has {f.grid.npoints} points; CSV export capped at {_CSV_MAX_POINTS}"
        )
    coords = np.meshgrid(*([f.grid.x_axis] * f.grid.d), indexing="ij")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{ax}" for ax in range(f.grid.d)] + ["re", "im"])
        flat = f.values.ravel()
        cols = [c.ravel() for c in coords]
        for i in range(flat.size):
            writer.writerow(
                [repr(float(c[i])) for c in cols]
                + [repr(float(flat[i].real)), repr(float(flat[i].imag))]
            )
