"""Mean-field ground states in a trap and their strong-coupling structure.

Contains the Thomas-Fermi profile (closed form for homogeneous traps), a
normalized-gradient-flow minimizer for the cubic energy functional

    E[phi] = <phi, (-Lap + V) phi> + (G/2) ||phi||_4^4,       ||phi||_2 = 1,

the low-lying spectrum of the linearized operator h = -Lap + V + G |phi|^2,
the semiclassical rescaling that turns the strong-coupling problem into a
small-epsilon Schroedinger problem, and diagnostics for the strong-coupling
scaling laws (sup norms, Thomas-Fermi convergence, smearing of the
interaction kernel, Agmon-type tail decay).
"""

from __future__ import annotations

import contextlib
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft
from scipy.sparse.linalg import LinearOperator, lobpcg

from .grids import Field, Grid, apply_symbol, convolve, gradient, norm
from .model import InteractionSpec, TrapSpec, sphere_area

__all__ = [
    "TFProfile",
    "GroundStateResult",
    "SpectrumResult",
    "SemiclassicalMap",
    "LinfReport",
    "GapReport",
    "DecayDiagnostics",
    "tf_minimize",
    "gp_minimize",
    "hgp_spectrum",
    "suggested_half_width",
    "semiclassical_epsilon",
    "semiclassical_map",
    "semiclassical_roundtrip",
    "linf_diagnostics",
    "tf_profile_distance",
    "interaction_gap",
    "agmon_tail",
]


# ---------------------------------------------------------------------------
# Thomas-Fermi profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TFProfile:
    """Thomas-Fermi minimizer rho(x) = (mu - V(x))_+ / G at unit mass.

    For V = lam |x|^s in d dimensions the normalization integral is explicit,
    so mu, the support radius, and all quadratic integrals are closed-form.
    """

    trap: TrapSpec
    G: float
    d: int
    mu: float
    radius: float

    def density(self, r):
        r = np.asarray(r, dtype=float)
        return np.maximum(self.mu - self.trap.radial(r), 0.0) / self.G

    def density_on_grid(self, grid: Grid) -> np.ndarray:
        if grid.d != self.d:
            raise ValueError(f"profile is {self.d}-dimensional, grid is {grid.d}")
        return self.density(np.sqrt(grid.r2))

    @property
    def mass(self) -> float:
        """integral of the density (1 by construction)."""
        return self._moment(0)

    @property
    def density_sq_integral(self) -> float:
        """integral of rho^2 in closed form."""
        s, d = self.trap.s, self.d
        return (
            sphere_area(d)
            * self.mu ** 2
            * self.radius ** d
            * 2.0 * s ** 2
            / (d * (s + d) * (2 * s + d))
            / self.G ** 2
        )

    @property
    def potential_integral(self) -> float:
        """integral of V rho in closed form."""
        s, d = self.trap.s, self.d
        return (
            sphere_area(d)
            * self.mu ** 2
            * self.radius ** d
            * s
            / ((s + d) * (2 * s + d))
            / self.G
        )

    @property
    def energy(self) -> float:
        """E = integral(V rho) + (G/2) integral(rho^2)."""
        return self.potential_integral + 0.5 * self.G * self.density_sq_integral

    def _moment(self, power: int) -> float:
        # integral of rho * V^power over the support, closed form
        s, d = self.trap.s, self.d
        if power == 0:
            return (
                sphere_area(d)
                * self.mu
                * self.radius ** d
                * s
                / (d * (s + d))
                / self.G
            )
        raise ValueError(power)


def tf_minimize(trap: TrapSpec, G: float, d: int = 3) -> TFProfile:
    """Thomas-Fermi profile for coupling G = g * integral(v) at unit mass."""
    if G <= 0:
        raise ValueError(f"Thomas-Fermi profile needs G > 0, got {G}")
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    s, lam = trap.s, trap.strength
    mu = (G * d * (s + d) * lam ** (d / s) / (sphere_area(d) * s)) ** (s / (s + d))
    radius = (mu / lam) ** (1.0 / s)
    return TFProfile(trap=trap, G=G, d=d, mu=mu, radius=radius)


# ---------------------------------------------------------------------------
# Gradient-flow minimizer
# ---------------------------------------------------------------------------


@dataclass
class GroundStateResult:
    """Converged minimizer with its energy decomposition and flow diagnostics."""

    field: Field
    energy: float
    mu: float
    kinetic: float
    potential: float
    interaction: float
    residual: float
    iterations: int
    dt_final: float
    energy_history: np.ndarray
    boundary_mass: float
    G: float


def suggested_half_width(trap: TrapSpec, G: float, minimum: float = 8.0) -> float:
    """Box half-width with room for the cloud and its decay tail."""
    if G <= 0:
        return minimum
    return max(1.6 * tf_minimize(trap, G).radius, minimum)


def _energy_parts(vals, V, grid, G):
    hat = sfft.fftn(vals, norm="ortho")
    dv = grid.dv
    rho = np.abs(vals) ** 2
    kin = float(np.sum(grid.k2 * np.abs(hat) ** 2).real * dv)
    pot = float(np.sum(V * rho) * dv)
    quart = float(np.sum(rho ** 2) * dv)
    return kin, pot, quart


def _default_initial(grid, trap, G):
    r2 = grid.r2
    width = trap.strength ** (-1.0 / (trap.s + 2.0))
    bump = np.exp(-r2 / (2.0 * max(width, 1.0) ** 2))
    if G > 0:
        tf = tf_minimize(trap, G, grid.d)
        vals = np.sqrt(tf.density_on_grid(grid))
        vals += 0.01 * float(np.max(vals) or 1.0) * bump
    else:
        vals = bump
    return vals.astype(np.complex128)


def _newton_polish(vals, V, grid, G, tol, max_newton=14):
    """Drive ||h phi - mu phi|| below tol by projected Newton steps.

    The ground state is real up to a global phase, so the iterate is phased
    and taken real first. The Newton system J d = -res with
    J = P (-Lap + W - mu + 2 G rho) P (P the projector off phi) is solved by
    preconditioned CG; steps are damped whenever they fail to shrink the
    residual. Returns (real field, residual, newton_steps).
    """
    k2h, dv = grid.k2_half, grid.dv
    j = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
    phase = vals[j] / abs(vals[j])
    phi = (vals / phase).real.copy()
    phi /= math.sqrt(np.sum(phi ** 2) * dv)

    def ip(a, b):
        return float(np.sum(a * b) * dv)

    def lap(u):
        return apply_symbol(k2h, u)

    res_norm = math.inf
    for step in range(1, max_newton + 1):
        rho = phi ** 2
        W = V + G * rho
        h_phi = lap(phi) + W * phi
        mu = ip(phi, h_phi)
        res = h_phi - mu * phi
        res -= phi * ip(phi, res)
        res_norm = math.sqrt(ip(res, res))
        if res_norm < tol:
            return phi, res_norm, step - 1

        inv_shifted = 1.0 / (max(1.0, mu) + k2h)
        diag = W - mu + 2.0 * G * rho

        def jv(u):
            u = u - phi * ip(phi, u)
            out = lap(u) + diag * u
            return out - phi * ip(phi, out)

        def precond(u):
            return apply_symbol(inv_shifted, u)

        # preconditioned CG on the orthogonal complement of phi
        b = -res
        x = np.zeros_like(phi)
        r = b.copy()
        z = precond(r)
        p = z.copy()
        rz = ip(r, z)
        cg_tol = min(0.3, math.sqrt(res_norm)) * res_norm
        for _ in range(400):
            ap = jv(p)
            pap = ip(p, ap)
            if pap <= 0:
                break  # local nonconvexity: keep the partial solve
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            if math.sqrt(ip(r, r)) < cg_tol:
                break
            z = precond(r)
            rz_new = ip(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        if ip(x, x) == 0.0:
            x = precond(b)  # gradient fallback

        # damped update: insist on residual decrease
        scale = 1.0
        for _ in range(8):
            cand = phi + scale * x
            cand /= math.sqrt(ip(cand, cand))
            rho_c = cand ** 2
            h_c = lap(cand) + (V + G * rho_c) * cand
            mu_c = ip(cand, h_c)
            r_c = h_c - mu_c * cand
            r_c -= cand * ip(cand, r_c)
            if math.sqrt(ip(r_c, r_c)) < res_norm:
                phi = cand
                break
            scale *= 0.5
        else:
            raise RuntimeError(
                f"polish stalled at residual {res_norm:.3e} (target {tol:.1e})"
            )
    raise RuntimeError(
        f"polish did not reach residual {tol:.1e} in {max_newton} steps "
        f"(at {res_norm:.3e})"
    )


def gp_minimize(
    grid: Grid,
    trap: TrapSpec,
    G: float,
    tol: float = 1e-6,
    max_iter: int = 20_000,
    dt0: float = 0.1,
    initial: Field | None = None,
    boundary_tol: float = 1e-8,
    polish_threshold: float = 3e-2,
) -> GroundStateResult:
    """Minimize the cubic functional by a normalized gradient flow.

    Each flow step treats the Laplacian with a backward-Euler spectral solve
    and the potential + nonlinearity explicitly (as the positivity-preserving
    factor exp(-dt (V + G rho - mu_R)), shifted by the current Rayleigh
    quotient), then renormalizes. Steps that raise the energy are rejected
    with a halved dt, so the accepted-energy history is non-increasing. The
    split scheme has an O(dt) fixed-point bias, so once the residual
    ||h phi - mu phi|| falls below ``polish_threshold`` (or stalls), the
    iterate is handed to a projected-Newton polish that pushes the residual
    below ``tol``; the polish may not raise the energy.

    The box must contain the cloud: half_width >= 1.2 * TF radius and
    >= 2 * trap ground-state width; the final boundary-shell mass must stay
    below ``boundary_tol``.
    """
    if G < 0:
        raise ValueError(f"G must be nonnegative, got {G}")
    width = trap.strength ** (-1.0 / (trap.s + 2.0))
    need = 2.0 * width
    if G > 0:
        need = max(need, 1.2 * tf_minimize(trap, G, grid.d).radius)
    if grid.half_width < need:
        raise ValueError(
            f"box half-width {grid.half_width} too small; need >= {need:.3g}"
        )

    V = trap.on_grid(grid)
    k2 = grid.k2
    dv = grid.dv

    if initial is not None:
        if initial.grid != grid:
            raise ValueError("initial guess lives on a different grid")
        vals = initial.values.copy()
    else:
        vals = _default_initial(grid, trap, G)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2).real * dv)

    kin, pot, quart = _energy_parts(vals, V, grid, G)
    energy = kin + pot + 0.5 * G * quart
    mu_r = kin + pot + G * quart

    dt = float(dt0)
    dt_min, dt_max = 1e-5, 0.5
    slack = 1e-12
    history = [energy]
    residual = math.inf
    check_every = 10
    accepted = 0
    last_checked_residual = math.inf
    handoff = max(tol, polish_threshold)

    it = 0
    for it in range(1, max_iter + 1):
        rho = np.abs(vals) ** 2
        w_shift = V + G * rho - mu_r
        stepped = sfft.fftn(np.exp(-dt * w_shift) * vals)
        stepped /= 1.0 + dt * k2
        # normalize in frequency space (Parseval), then return to position
        nrm = math.sqrt(np.sum(np.abs(stepped) ** 2).real * dv / grid.npoints)
        new_vals = sfft.ifftn(stepped / nrm)

        kin, pot, quart = _energy_parts(new_vals, V, grid, G)
        new_energy = kin + pot + 0.5 * G * quart

        if new_energy > energy + slack * max(1.0, abs(energy)):
            dt *= 0.5
            if dt < dt_min:
                break  # bias floor of the split scheme: hand off to polish
            continue

        vals = new_vals
        energy = new_energy
        mu_r = kin + pot + G * quart
        history.append(energy)
        accepted += 1
        dt = min(dt * 1.05, dt_max)

        if accepted % check_every == 0:
            hat = sfft.fftn(vals)
            hphi = sfft.ifftn(k2 * hat) + (V + G * np.abs(vals) ** 2) * vals
            res_vec = hphi - mu_r * vals
            residual = math.sqrt(np.sum(np.abs(res_vec) ** 2).real * dv)
            if residual < handoff:
                break
            if residual > 0.97 * last_checked_residual:
                dt = max(0.25 * dt, dt_min)
            last_checked_residual = residual
    else:
        if residual > 10 * handoff:
            raise RuntimeError(
                f"flow made no progress after {max_iter} iterations "
                f"(residual {residual:.3e})"
            )

    if residual > tol:
        phi_real, residual, _ = _newton_polish(vals, V, grid, G, tol)
        vals = phi_real.astype(np.complex128)
        kin, pot, quart = _energy_parts(vals, V, grid, G)
        new_energy = kin + pot + 0.5 * G * quart
        if new_energy > energy + 1e-8 * max(1.0, abs(energy)):
            raise RuntimeError("polish raised the energy; minimizer is suspect")
        energy = new_energy
        mu_r = kin + pot + G * quart
        history.append(energy)

    phi = Field(grid, vals)
    boundary_mass = float(
        np.sum(np.abs(vals[grid.boundary_shell]) ** 2).real * dv
    )
    if boundary_mass > boundary_tol:
        raise RuntimeError(
            f"boundary-shell mass {boundary_mass:.3e} exceeds {boundary_tol:.1e}; "
            "the box is too small"
        )

    return GroundStateResult(
        field=phi,
        energy=energy,
        mu=mu_r,
        kinetic=kin,
        potential=pot,
        interaction=0.5 * G * quart,
        residual=residual,
        iterations=it,
        dt_final=dt,
        energy_history=np.asarray(history),
        boundary_mass=boundary_mass,
        G=G,
    )


# ---------------------------------------------------------------------------
# Linearized spectrum
# ---------------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of h = -Lap + V + G |phi|^2 with residuals.

    ``warnings`` holds the messages LOBPCG raised during the solve, in order.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    gap: float
    mu0: float
    converged: bool
    warnings: tuple = ()


# Warning capture that is safe while sweep points solve on several threads:
# ``warnings.catch_warnings`` swaps process-wide state, so one capture stays
# open while any thread captures, and it routes each warning to the log of the
# thread that raised it. Warnings from other threads still reach the handler
# installed before the capture opened (under an "always" filter meanwhile).
_capture_lock = threading.Lock()
_capture_logs = {}  # thread id -> list of messages
_capture_ctx = None  # the open catch_warnings context
_capture_forward = None  # that previous handler


def _route_warning(message, category, filename, lineno, file=None, line=None):
    log = _capture_logs.get(threading.get_ident())
    if log is not None:
        log.append(f"{category.__name__}: {message}")
    else:
        _capture_forward(message, category, filename, lineno, file, line)


@contextlib.contextmanager
def _captured_warnings():
    """Collect this thread's warnings into the yielded list, not stderr."""
    global _capture_ctx, _capture_forward
    tid = threading.get_ident()
    log = []
    with _capture_lock:
        if not _capture_logs:
            _capture_ctx = warnings.catch_warnings()
            _capture_ctx.__enter__()
            warnings.simplefilter("always")
            _capture_forward = warnings.showwarning
            warnings.showwarning = _route_warning
        _capture_logs[tid] = log
    try:
        yield log
    finally:
        with _capture_lock:
            del _capture_logs[tid]
            if not _capture_logs:
                _capture_ctx.__exit__(None, None, None)
                _capture_ctx = None


def hgp_spectrum(
    grid: Grid,
    trap: TrapSpec,
    G: float,
    phi: Field,
    k: int = 4,
    tol: float = 1e-8,
    maxiter: int = 800,
    seed: int = 0,
) -> SpectrumResult:
    """Lowest k eigenvalues of -Lap + V + G |phi|^2 by preconditioned LOBPCG.

    The ground state is first polished in a one-vector block, then deflated
    (as an orthogonality constraint) while a k-sized block with trap-adapted
    starting guesses resolves the excited levels. The preconditioner is the
    shifted spectral solve (c - Lap)^{-1} with c = max(1, <phi, h phi>), the
    shift the Newton polish of :func:`gp_minimize` uses. Warnings LOBPCG
    raises are returned in ``SpectrumResult.warnings`` instead of printed.
    """
    if k < 2:
        raise ValueError("need at least two eigenvalues for a gap")
    if phi.grid != grid:
        raise ValueError("phi lives on a different grid")
    W = trap.on_grid(grid) + G * np.abs(phi.values) ** 2
    shape, k2h = grid.shape, grid.k2_half
    npts = grid.npoints

    def _apply_h(X):
        cols = X.reshape(shape + (-1,))
        out = apply_symbol(k2h, cols)
        out += W[..., None] * cols
        return out.reshape(X.shape)

    A = LinearOperator(
        (npts, npts), matvec=_apply_h, matmat=_apply_h, dtype=np.float64
    )

    x0 = phi.values.real.ravel().copy()
    x0 /= np.linalg.norm(x0)
    inv_shifted = 1.0 / (max(1.0, float(x0 @ _apply_h(x0))) + k2h)

    def _precond(X):
        return apply_symbol(inv_shifted, X.reshape(shape + (-1,))).reshape(X.shape)

    M = LinearOperator((npts, npts), matvec=_precond, matmat=_precond, dtype=np.float64)

    with _captured_warnings() as caught:
        w0, v0 = lobpcg(A, x0[:, None], M=M, tol=tol, maxiter=maxiter, largest=False)
        mu0 = float(w0[0])
        ground = v0[:, 0] / np.linalg.norm(v0[:, 0])

        rng = np.random.default_rng(seed)
        guesses = []
        base = phi.values.real
        for ax in range(grid.d):
            guesses.append((grid.coords()[ax] * base).ravel())
        guesses.append(((grid.r2 - np.mean(grid.r2)) * base).ravel())
        while len(guesses) < k:
            guesses.append(rng.standard_normal(npts))
        X = np.stack(guesses[: max(k, 2)], axis=1)
        X -= ground[:, None] * (ground @ X)
        X, _ = np.linalg.qr(X)

        w, v = lobpcg(
            A, X, M=M, Y=ground[:, None], tol=tol, maxiter=maxiter, largest=False
        )
    order = np.argsort(w)
    w, v = w[order], v[:, order]

    eigenvalues = np.concatenate([[mu0], w[: k - 1]])
    vecs = np.concatenate([ground[:, None], v[:, : k - 1]], axis=1)
    resid = A @ vecs - vecs * eigenvalues[None, :]
    residuals = np.linalg.norm(resid, axis=0) / np.linalg.norm(vecs, axis=0)

    gap = float(eigenvalues[1] - eigenvalues[0])
    if gap < 1e-10 * max(1.0, abs(mu0)):
        raise RuntimeError(
            f"degenerate lowest level (gap {gap:.3e}); minimizer is suspect"
        )
    converged = bool(np.all(residuals < 100 * tol * max(1.0, abs(eigenvalues[-1]))))
    return SpectrumResult(
        eigenvalues=eigenvalues,
        residuals=residuals,
        gap=gap,
        mu0=mu0,
        converged=converged,
        warnings=tuple(caught),
    )


# ---------------------------------------------------------------------------
# Semiclassical rescaling
# ---------------------------------------------------------------------------


@dataclass
class SemiclassicalMap:
    """Strong-coupling field rescaled to the small-epsilon frame."""

    epsilon: float
    energy_scale: float
    psi: Field
    psi0: Field
    energy_original: float
    energy_rescaled: float
    identity_error: float
    roundtrip_error: float


def semiclassical_epsilon(G: float, s: float) -> float:
    """epsilon = G^{-(s+2)/(2(s+3))} (three-dimensional convention)."""
    if G <= 0:
        raise ValueError(f"epsilon needs G > 0, got {G}")
    return G ** (-(s + 2.0) / (2.0 * (s + 3.0)))


def semiclassical_map(f: Field, s: float, epsilon: float) -> Field:
    """Pure relabeling phi(x) = eps^{3/(s+2)} psi(eps^{2/(s+2)} x), d=3 only."""
    if f.grid.d != 3:
        raise ValueError("the semiclassical rescaling is three-dimensional")
    scale_x = epsilon ** (2.0 / (s + 2.0))
    new_grid = Grid(d=3, n=f.grid.n, half_width=f.grid.half_width * scale_x)
    return Field(new_grid, f.values * epsilon ** (-3.0 / (s + 2.0)), f.basis)


def _quadratic_energy(f: Field, kinetic_coeff: float, potential: np.ndarray) -> float:
    hat = sfft.fftn(f.values, norm="ortho")
    dv = f.grid.dv
    kin = float(np.sum(f.grid.k2 * np.abs(hat) ** 2).real * dv)
    pot = float(np.sum(potential * np.abs(f.values) ** 2).real * dv)
    return kinetic_coeff * kin + pot


def semiclassical_roundtrip(
    phi: Field, phi_gp: Field, trap: TrapSpec, G: float
) -> SemiclassicalMap:
    """Check <phi, h phi> = eps^{-2s/(s+2)} <psi, h_eps psi> on matched grids.

    h uses the interaction G |phi_gp|^2; h_eps = -eps^2 Lap + V + |psi0|^2
    with psi0 the rescaled phi_gp. The identity is exact up to rounding
    because the rescaling is a relabeling of the same samples.
    """
    if phi.grid != phi_gp.grid:
        raise ValueError("phi and phi_gp must share a grid")
    s = trap.s
    eps = semiclassical_epsilon(G, s)
    psi = semiclassical_map(phi, s, eps)
    psi0 = semiclassical_map(phi_gp, s, eps)

    e_orig = _quadratic_energy(
        phi, 1.0, trap.on_grid(phi.grid) + G * np.abs(phi_gp.values) ** 2
    )
    e_resc = _quadratic_energy(
        psi, eps ** 2, trap.on_grid(psi.grid) + np.abs(psi0.values) ** 2
    )
    scale = eps ** (-2.0 * s / (s + 2.0))
    identity_error = abs(e_orig - scale * e_resc) / max(abs(e_orig), 1e-300)

    back = semiclassical_map(psi, s, 1.0 / eps)  # inverse rescale
    # inverse map: amplitudes and box return to the originals exactly
    roundtrip_error = float(
        np.max(np.abs(back.values - phi.values))
        + abs(back.grid.half_width - phi.grid.half_width)
    )
    return SemiclassicalMap(
        epsilon=eps,
        energy_scale=scale,
        psi=psi,
        psi0=psi0,
        energy_original=e_orig,
        energy_rescaled=e_resc,
        identity_error=identity_error,
        roundtrip_error=roundtrip_error,
    )


# ---------------------------------------------------------------------------
# Scaling-law diagnostics
# ---------------------------------------------------------------------------


@dataclass
class LinfReport:
    """Sup norms of phi and grad phi with their strong-coupling rescalings."""

    linf: float
    grad_linf: float
    scaled_linf: float | None
    scaled_grad: float | None
    tf_reference: float


def linf_diagnostics(
    phi: Field, trap: TrapSpec, interaction: InteractionSpec, g: float
) -> LinfReport:
    """Scaled sup norms against the unit-coupling Thomas-Fermi reference.

    The expected plateaus are ||phi||_inf * g^{3/(2(s+3))} ->
    sqrt(rho_TF,1(0)) and ||grad phi||_inf * g^{-(2s-3)/(2(s+3))} bounded
    (three-dimensional exponents; on other grids only raw norms are filled).
    """
    if g <= 0:
        raise ValueError(f"g must be positive, got {g}")
    linf = norm(phi, "Linf")
    grads = gradient(phi)
    grad_linf = float(
        np.max(np.sqrt(sum(np.abs(gf.values) ** 2 for gf in grads)))
    )
    d = phi.grid.d
    intv = interaction.integral(d)
    tf_ref = math.sqrt(tf_minimize(trap, intv, d).mu / intv)
    s = trap.s
    if d == 3:
        scaled_linf = linf * g ** (3.0 / (2.0 * (s + 3.0)))
        scaled_grad = grad_linf * g ** (-(2.0 * s - 3.0) / (2.0 * (s + 3.0)))
    else:
        scaled_linf = scaled_grad = None
    return LinfReport(
        linf=linf,
        grad_linf=grad_linf,
        scaled_linf=scaled_linf,
        scaled_grad=scaled_grad,
        tf_reference=tf_ref,
    )


def tf_profile_distance(
    phi: Field, trap: TrapSpec, interaction: InteractionSpec, g: float
) -> float:
    """sup_x |g^{d/(s+d)} |phi(x)|^2 - rho_TF,1(x / g^{1/(s+d)})|.

    Compares the blown-up minimizer density against the unit-coupling
    Thomas-Fermi profile on the image of the grid under the rescaling.
    """
    if g <= 0:
        raise ValueError(f"g must be positive, got {g}")
    d, s = phi.grid.d, trap.s
    intv = interaction.integral(d)
    tf1 = tf_minimize(trap, intv, d)
    r = np.sqrt(phi.grid.r2)
    blown = g ** (d / (s + d)) * np.abs(phi.values) ** 2
    ref = tf1.density(r * g ** (-1.0 / (s + d)))
    return float(np.max(np.abs(blown - ref)))


@dataclass
class GapReport:
    """Smearing error of the scaled kernel against its mean-field limit."""

    measured: float
    bound: float
    N: int

    @property
    def ratio(self) -> float:
        return self.measured / self.bound if self.bound > 0 else math.inf


def interaction_gap(phi: Field, interaction: InteractionSpec, N: int) -> GapReport:
    """sup norm of v_N * |phi|^2 - integral(v) |phi|^2 and its Taylor bound.

    The bound is 2 * integral(|y| |v|) * N^{-beta} * ||phi||_inf
    * ||grad phi||_inf; the grid must resolve the kernel range
    (h <= N^{-beta} / 4).
    """
    grid = phi.grid
    rng_scale = float(N) ** (-interaction.beta)
    if grid.h > rng_scale / 4.0:
        raise ValueError(
            f"grid spacing {grid.h:.3g} does not resolve the kernel range "
            f"{rng_scale:.3g} (need h <= range/4)"
        )
    rho = Field(grid, (np.abs(phi.values) ** 2).astype(np.complex128))
    smeared = convolve(interaction.kernel_on_grid(grid, N), rho)
    flat = interaction.integral(grid.d) * rho.values
    measured = float(np.max(np.abs(smeared.values - flat)))

    grads = gradient(phi)
    grad_linf = float(np.max(np.sqrt(sum(np.abs(gf.values) ** 2 for gf in grads))))
    bound = (
        2.0
        * interaction.first_moment(grid.d)
        * rng_scale
        * norm(phi, "Linf")
        * grad_linf
    )
    return GapReport(measured=measured, bound=bound, N=N)


@dataclass
class DecayDiagnostics:
    """Tail-decay fit of log|phi| against the trap's Agmon weight."""

    slope: float
    intercept: float
    n_points: int
    r: np.ndarray
    log_phi: np.ndarray
    agmon: np.ndarray


def agmon_weight(r, trap: TrapSpec):
    """A(r) = sqrt(lam) r^{1+s/2} / (1+s/2), the weight with |A'|^2 = V."""
    r = np.asarray(r, dtype=float)
    p = 1.0 + trap.s / 2.0
    return math.sqrt(trap.strength) * r ** p / p


def agmon_tail(
    phi: Field,
    trap: TrapSpec,
    epsilon: float,
    r_window: tuple,
    floor: float = 1e-140,
) -> DecayDiagnostics:
    """Fit log|phi| ~ intercept - slope * A(r)/eps^2 inside a radial window.

    Points below ``floor`` (underflow guard) or below 1e-13 of the peak
    (spectral noise floor) are excluded; at least 10 points must remain.
    """
    r_lo, r_hi = r_window
    if not 0 <= r_lo < r_hi:
        raise ValueError(f"bad window {r_window}")
    r = np.sqrt(phi.grid.r2).ravel()
    amp = np.abs(phi.values).ravel()
    peak = float(np.max(amp))
    mask = (r >= r_lo) & (r <= r_hi) & (amp > max(floor, 1e-13 * peak))
    if int(np.sum(mask)) < 10:
        raise ValueError(
            f"only {int(np.sum(mask))} usable points in window {r_window}"
        )
    rr, aa = r[mask], amp[mask]
    weight = agmon_weight(rr, trap) / epsilon ** 2
    logs = np.log(aa)
    coef = np.polyfit(weight, logs, 1)
    return DecayDiagnostics(
        slope=float(-coef[0]),
        intercept=float(coef[1]),
        n_points=int(len(rr)),
        r=rr,
        log_phi=logs,
        agmon=weight,
    )
