"""Model parameters: trap, interaction profile, coupling regime.

The physical setup is N bosons in an external trap ``V(x) = strength * |x|^s``
interacting through a repulsive pair kernel ``v_N(x) = N^{d beta} v(N^beta x)``
with overall coupling ``g_N``; the product ``G = g_N * integral(v)`` is the
effective cubic coupling of the mean-field functional. This module holds the
parameter containers, the regime window of the coupling growth, validity
checks for the interaction profile, and the low-energy scattering length of
``kappa v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid

__all__ = [
    "TrapSpec",
    "InteractionSpec",
    "RegimeParams",
    "AdmissibilityReport",
    "Assumption1Report",
    "ScatteringResult",
    "sphere_area",
    "admissibility",
    "check_assumption1",
    "scattering_length",
]


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^d (2, 2*pi, 4*pi for d=1,2,3)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _radial_quad(fn) -> float:
    """integral of fn(r) over r in [0, inf)."""
    from scipy.integrate import quad  # imported here: it adds about 0.2 s to every start-up

    return quad(fn, 0.0, np.inf, limit=200)[0]


@dataclass(frozen=True)
class TrapSpec:
    """Homogeneous trap V(x) = strength * |x|^s with s >= 2."""

    strength: float = 1.0
    s: float = 2.0

    def __post_init__(self):
        if not self.strength > 0:
            raise ValueError(f"trap strength must be positive, got {self.strength}")
        if not self.s >= 2:
            raise ValueError(f"trap exponent s must be >= 2, got {self.s}")

    def radial(self, r):
        return self.strength * np.asarray(r, dtype=float) ** self.s

    def on_grid(self, grid: Grid) -> np.ndarray:
        """V sampled on the grid (real array)."""
        return self.strength * grid.r2 ** (self.s / 2.0)


# radial profiles r >= 0 -> v(r); all smooth and rapidly decaying
_PROFILES = {
    "gaussian": lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
    "hollow_gaussian": lambda r: (1.0 - np.asarray(r, dtype=float) ** 2)
    * np.exp(-np.asarray(r, dtype=float) ** 2),
    "zero": lambda r: np.zeros_like(np.asarray(r, dtype=float)),
}


@dataclass(frozen=True)
class InteractionSpec:
    """Pair interaction: radial profile v plus the scaling exponent beta.

    The N-body kernel is ``v_N(x) = N^{d beta} v(N^beta |x|)`` on a
    d-dimensional grid, so its range shrinks like N^{-beta} while its integral
    stays fixed.
    """

    profile: str = "gaussian"
    beta: float = 0.2

    def __post_init__(self):
        if self.profile not in _PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; known: {sorted(_PROFILES)}"
            )
        if not 0.0 < self.beta < 1.0 / 3.0:
            raise ValueError(f"beta must lie in (0, 1/3), got {self.beta}")

    def radial(self, r):
        return _PROFILES[self.profile](r)

    def v0(self) -> float:
        return float(self.radial(0.0))

    def integral(self, d: int = 3) -> float:
        """integral of v over R^d."""
        return sphere_area(d) * _radial_quad(lambda r: self.radial(r) * r ** (d - 1))

    def first_moment(self, d: int = 3) -> float:
        """integral of |x| |v(x)| over R^d."""
        return sphere_area(d) * _radial_quad(lambda r: np.abs(self.radial(r)) * r ** d)

    def l2_norm(self, d: int = 3) -> float:
        val = _radial_quad(lambda r: self.radial(r) ** 2 * r ** (d - 1))
        return math.sqrt(sphere_area(d) * val)

    def kernel_on_grid(self, grid: Grid, N: int) -> Field:
        """Sample v_N(x) = N^{d beta} v(N^beta |x|) on the grid."""
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        r = np.sqrt(grid.r2)
        scale = float(N) ** self.beta
        vals = float(N) ** (grid.d * self.beta) * self.radial(scale * r)
        return Field(grid, vals.astype(np.complex128))


@dataclass(frozen=True)
class RegimeParams:
    """Particle number, scaling exponent, coupling, and counting exponent."""

    N: int
    beta: float
    g_N: float
    lambda_weight: float | None = None

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")
        # beta < 1/3 is a *regime* condition reported by admissibility()
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.g_N >= 0:
            raise ValueError(f"g_N must be nonnegative, got {self.g_N}")
        if self.lambda_weight is not None and not 0.0 < self.lambda_weight < 1.0:
            raise ValueError(
                f"lambda_weight must lie in (0, 1), got {self.lambda_weight}"
            )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Which coupling-growth regimes the parameters fall into.

    ``gn_exponents`` are the admissible growth exponents of g_N,
    ((1 - 3 beta)(s + 3)/(s + 5), (s + 3) beta / (2 (s + 1))); ``thm1``
    covers the condensation regime (beta < 1/3 and g_N below both
    N^{exponent} margins); ``thm2`` covers the counting regime
    (beta < 1/6 and counting exponent inside (3 beta, 1 - 3 beta)).
    """

    gn_exponents: tuple
    thm1_ok: bool
    thm1_margins: tuple
    thm2_ok: bool
    lambda_interval: tuple
    beta: float
    lambda_weight: float | None


def admissibility(trap: TrapSpec, regime: RegimeParams) -> AdmissibilityReport:
    s = trap.s
    b = regime.beta
    exps = (
        (1.0 - 3.0 * b) * (s + 3.0) / (s + 5.0),
        (s + 3.0) * b / (2.0 * (s + 1.0)),
    )
    margins = tuple(regime.g_N / float(regime.N) ** e for e in exps)
    thm1_ok = b < 1.0 / 3.0 and all(m < 1.0 for m in margins)
    lo, hi = 3.0 * b, 1.0 - 3.0 * b
    lam = regime.lambda_weight
    thm2_ok = b < 1.0 / 6.0 and lam is not None and lo < lam < hi
    return AdmissibilityReport(
        gn_exponents=exps,
        thm1_ok=thm1_ok,
        thm1_margins=margins,
        thm2_ok=thm2_ok,
        lambda_interval=(lo, hi),
        beta=b,
        lambda_weight=lam,
    )


@dataclass(frozen=True)
class Assumption1Report:
    """Checks that an interaction profile is admissible.

    The profile must be nonzero, spherically symmetric, of positive type
    (nonnegative Fourier transform), with finite first absolute moment and
    finite L2 norm; ``tail_ok`` confirms the sampled kernel has decayed at the
    box boundary so the grid checks are meaningful.
    """

    nonzero: bool
    positive_type: bool
    min_fourier_coeff: float
    symmetric: bool
    first_moment: float
    l2_norm: float
    tail_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.nonzero
            and self.positive_type
            and self.symmetric
            and self.tail_ok
            and np.isfinite(self.first_moment)
            and np.isfinite(self.l2_norm)
        )


def check_assumption1(interaction: InteractionSpec, grid: Grid) -> Assumption1Report:
    """Check the admissibility of the unscaled profile v on the given grid."""
    r = np.sqrt(grid.r2)
    vals = np.asarray(interaction.radial(r), dtype=float)
    vmax = float(np.max(np.abs(vals)))
    nonzero = vmax > 0.0

    # the transform of v as a function of displacement; for an even real
    # profile the coefficients are real up to rounding
    hat = grid.kernel_symbol(vals) / grid.dv
    min_coeff = float(np.min(hat.real))
    scale = float(np.max(np.abs(hat))) if vmax > 0 else 1.0
    positive_type = min_coeff >= -1e-12 * max(1.0, scale)

    symmetric = True
    for ax in range(grid.d):
        flipped = np.roll(np.flip(vals, axis=ax), 1, axis=ax)
        if not np.allclose(vals, flipped, rtol=0.0, atol=1e-12 * max(vmax, 1.0)):
            symmetric = False

    tail = float(np.max(np.abs(vals[grid.boundary_shell]))) if nonzero else 0.0
    tail_ok = tail <= 1e-10 * max(vmax, 1.0)

    return Assumption1Report(
        nonzero=nonzero,
        positive_type=positive_type,
        min_fourier_coeff=min_coeff,
        symmetric=symmetric,
        first_moment=interaction.first_moment(grid.d),
        l2_norm=interaction.l2_norm(grid.d),
        tail_ok=tail_ok,
    )


@dataclass
class ScatteringResult:
    """Zero-energy scattering data for the pair potential kappa * v."""

    kappa: float
    a: float
    a_born: float
    r: np.ndarray
    u: np.ndarray
    f: np.ndarray
    fit_residual: float
    mesh: int


def _integrate_radial(interaction: InteractionSpec, kappa: float, r_max: float, mesh: int):
    """Fixed-step RK4 for u'' = (kappa/2) v(r) u, u(0)=0, u'(0)=1."""
    h = r_max / mesh
    r = np.linspace(0.0, r_max, mesh + 1)
    u = np.empty(mesh + 1)
    c = lambda rr: 0.5 * kappa * float(interaction.radial(rr))
    y, w = 0.0, 1.0
    u[0] = y
    for i in range(mesh):
        ri = r[i]
        k1y, k1w = w, c(ri) * y
        k2y, k2w = w + 0.5 * h * k1w, c(ri + 0.5 * h) * (y + 0.5 * h * k1y)
        k3y, k3w = w + 0.5 * h * k2w, c(ri + 0.5 * h) * (y + 0.5 * h * k2y)
        k4y, k4w = w + h * k3w, c(ri + h) * (y + h * k3y)
        y += h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6.0
        w += h * (k1w + 2 * k2w + 2 * k3w + k4w) / 6.0
        u[i + 1] = y
    return r, u


def _fit_tail(r: np.ndarray, u: np.ndarray):
    """Fit u ~ m (r - a) on the outer 10% of the mesh."""
    n_fit = max(8, len(r) // 10)
    rr, uu = r[-n_fit:], u[-n_fit:]
    m, b = np.polyfit(rr, uu, 1)
    resid = float(np.sqrt(np.mean((uu - (m * rr + b)) ** 2)))
    if m == 0.0:
        raise ValueError("tail fit degenerate (zero slope)")
    return float(-b / m), float(m), resid


def scattering_length(
    interaction: InteractionSpec,
    kappa: float,
    r_max: float = 12.0,
    mesh: int = 4096,
) -> ScatteringResult:
    """Scattering length of kappa * v from the zero-energy radial problem.

    Integrates u'' = (kappa/2) v u outward with fixed-step RK4 and extracts a
    from the linear asymptote u ~ const * (r - a); also reports the Born value
    kappa * integral(v) / (8 pi). Errors if v has not decayed by r_max or if
    halving the mesh changes a beyond 1e-6 (mesh too coarse).
    """
    if mesh < 64:
        raise ValueError(f"mesh must be >= 64, got {mesh}")
    v_edge = abs(float(interaction.radial(r_max)))
    v_scale = max(abs(interaction.v0()), 1e-300)
    if v_edge > 1e-10 * v_scale:
        raise ValueError(
            f"profile has not decayed at r_max={r_max} (|v|={v_edge:.3e}); increase r_max"
        )

    r, u = _integrate_radial(interaction, kappa, r_max, mesh)
    a, m, resid = _fit_tail(r, u)
    u_scale = float(np.max(np.abs(u)))
    if resid > 1e-8 * max(u_scale, 1.0):
        raise ValueError(
            f"tail of u is not linear (fit residual {resid:.3e}); increase r_max"
        )

    r2, u2 = _integrate_radial(interaction, kappa, r_max, mesh // 2)
    a2, _, _ = _fit_tail(r2, u2)
    a_born = kappa * interaction.integral(3) / (8.0 * math.pi)
    tol = max(1e-6 * max(abs(a), abs(a_born)), 1e-12)
    if abs(a - a2) > tol:
        raise ValueError(
            f"mesh too coarse: a changes by {abs(a - a2):.3e} when halved"
        )

    u_norm = u / m
    f = np.empty_like(u_norm)
    f[0] = np.nan  # u/r undefined at the origin
    f[1:] = u_norm[1:] / r[1:]
    return ScatteringResult(
        kappa=kappa,
        a=a,
        a_born=a_born,
        r=r,
        u=u_norm,
        f=f,
        fit_residual=resid,
        mesh=mesh,
    )


# config schemas for _take: each key maps to its default
_TRAP_KEYS = {"strength": 1.0, "s": 2.0}
_INTERACTION_KEYS = {"profile": "gaussian", "beta": 0.2}


def _take(block, where: str, schema: dict) -> dict:
    """Every key of ``schema``, read from the config block ``block``.

    ``schema`` maps each key to its default, and the default fixes the type.
    A dict is a nested block, parsed the same way. None accepts any value;
    the caller checks it. A bool, int, float or str needs a value of its
    type; a type itself (float, list, ...) does too, with None as default.
    An int accepts an integral number and a float accepts an int. A key that
    is absent or null takes its default. An unknown key, a block that is not
    an object, a value of the wrong type and a non-finite float raise ValueError.
    """
    if not isinstance(block, dict):
        raise ValueError(f"{where} block must be a JSON object, got {block!r}")
    unknown = set(block) - set(schema)
    if unknown:
        raise ValueError(f"unknown {where} key(s): {sorted(unknown)}")
    out = {}
    for key, default in schema.items():
        value = block.get(key)
        if isinstance(default, dict):
            value = _take({} if value is None else value, key, default)
        elif value is None:
            value = None if isinstance(default, type) else default
        elif default is not None:
            kind = default if isinstance(default, type) else type(default)
            if kind is float and type(value) is int:
                value = float(value)
            elif kind is int and type(value) is float and value.is_integer():
                value = int(value)
            if type(value) is not kind:
                raise ValueError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):  # JSON allows NaN and Infinity
                raise ValueError(f"{key!r} must be finite, got {value!r}")
        out[key] = value
    return out

