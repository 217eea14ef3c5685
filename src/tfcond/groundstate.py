"""Mean-field ground states in a trap and their strong-coupling structure.

Contains the Thomas-Fermi profile (closed form for homogeneous traps), a
normalized-gradient-flow minimizer for the cubic energy functional

    E[phi] = <phi, (-Lap + V) phi> + (G/2) ||phi||_4^4,       ||phi||_2 = 1,

the low-lying spectrum of the linearized operator h = -Lap + V + G |phi|^2,
and diagnostics for the strong-coupling scaling laws (sup norms,
Thomas-Fermi convergence, smearing of the interaction kernel).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import Field, Grid, _ParitySector, apply_symbol, norm
from .model import InteractionSpec, TrapSpec, sphere_area

__all__ = [
    "TFProfile",
    "GroundStateResult",
    "SpectrumResult",
    "LinfReport",
    "GapReport",
    "tf_minimize",
    "gp_minimize",
    "hgp_spectrum",
    "suggested_half_width",
    "linf_diagnostics",
    "tf_profile_distance",
    "interaction_gap",
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
        """integral of the density in closed form (1 by construction)."""
        s, d = self.trap.s, self.d
        return sphere_area(d) * self.mu * self.radius ** d * s / (d * (s + d)) / self.G

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


def _require_cubic_symmetric(W: np.ndarray, name: str):
    """ValueError unless W is invariant under each reflection and each axis swap."""
    allowed = 1e-10 * float(np.max(np.abs(W)))
    images = itertools.chain(
        ((f"x_{ax} -> -x_{ax}", np.roll(np.flip(W, ax), 1, ax)) for ax in range(W.ndim)),
        (
            (f"the swap x_{a} <-> x_{b}", np.swapaxes(W, a, b))
            for a, b in itertools.combinations(range(W.ndim), 2)
        ),
    )
    for symmetry, image in images:
        asym = float(np.max(np.abs(W - image)))
        if asym > allowed:
            raise ValueError(
                f"{name} is not symmetric under {symmetry} "
                f"(deviation {asym:.3e}, allowed {allowed:.3e})"
            )


# ---------------------------------------------------------------------------
# Gradient-flow minimizer
# ---------------------------------------------------------------------------


@dataclass
class GroundStateResult:
    """Converged minimizer with its energy decomposition and flow diagnostics.

    ``iterations`` counts gradient-flow steps on the grid the flow ran on
    (for 3D n >= 64 the grid of the even points, plus any fine-grid steps
    after it), ``newton_steps`` the steps of the projected-Newton polish that
    follows them (0 if it was not needed). ``energy_history`` holds
    fine-grid energies: those the flow accepted, from its start on, or from
    the prolonged start where the flow ran on the coarse grid, then the
    polish's.
    """

    field: Field
    energy: float
    mu: float
    kinetic: float
    potential: float
    interaction: float
    residual: float
    iterations: int
    newton_steps: int
    energy_history: np.ndarray
    boundary_mass: float


# smallest box half-width suggested_half_width returns
_MIN_HALF_WIDTH = 8.0


def suggested_half_width(trap: TrapSpec, G: float) -> float:
    """Box half-width with room for the cloud and its decay tail."""
    if G <= 0:
        return _MIN_HALF_WIDTH
    return max(1.6 * tf_minimize(trap, G).radius, _MIN_HALF_WIDTH)


def _initial(grid, trap, G):
    width = trap.strength ** (-1.0 / (trap.s + 2.0))
    bump = np.exp(-grid.r2 / (2.0 * max(width, 1.0) ** 2))
    if G == 0:
        return bump
    vals = np.sqrt(tf_minimize(trap, G, grid.d).density_on_grid(grid))
    return vals + 0.01 * float(np.max(vals) or 1.0) * bump


def _newton_polish(phi, sec, w, G, dv, tol, max_newton=14):
    """Drive ||h phi - mu phi|| below tol by projected Newton steps.

    phi is a unit vector of the all-even sector ``sec``, w the trap on it.
    The Newton system J d = -res with J = P (-Lap + W - mu + 2 G rho) P
    (P the projector off phi) is solved by CG preconditioned with
    S (c - Lap)^{-1} S, S = diag(sqrt(c / (c + (W - mu)_+))), c = max(1, mu):
    the potential-aware preconditioner of Antoine, Levitt and Tang (J.
    Comput. Phys. 343, 92 (2017)), :meth:`_ParitySector.preconditioner`,
    which also gives the gradient fallback. Steps are damped whenever they
    fail to shrink the residual. Returns (phi, newton_steps).
    """

    def ip(a, b):
        return float(a @ b) * dv

    def residual(u):  # (h u - mu u off u, W = V + G rho, mu = <u, h u>)
        W = w + G * sec.c2 * u ** 2
        h_u = sec.apply_symbol(sec.k2, u) + W * u
        mu = ip(u, h_u)
        res = h_u - mu * u
        return res - u * ip(u, res), W, mu

    res_norm = math.inf
    for step in range(1, max_newton + 1):
        res, W, mu = residual(phi)
        res_norm = math.sqrt(ip(res, res))
        if res_norm < tol:
            return phi, step - 1

        precond = sec.preconditioner(max(1.0, mu), np.maximum(W - mu, 0.0))
        diag = W - mu + 2.0 * G * sec.c2 * phi ** 2

        def jv(u):
            u = u - phi * ip(phi, u)
            out = sec.apply_symbol(sec.k2, u) + diag * u
            return out - phi * ip(phi, out)

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
            r_c = residual(cand)[0]
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


# gradient flow: first step size and step budget; residual at which the
# Newton polish takes over; largest mass allowed in the grid's boundary shell
_FLOW_DT0 = 0.1
_FLOW_MAX_ITER = 20_000
_POLISH_THRESHOLD = 3e-2
_BOUNDARY_TOL = 1e-8


def _coarse_grid(grid: Grid) -> Grid | None:
    """The grid of the even points (n/2 per axis, same half-width) on which
    :func:`gp_minimize` and :func:`hgp_spectrum` solve first, or None where
    they solve on ``grid`` alone. The coarse stage pays on 3D grids with
    n >= 64 (timings in both docstrings)."""
    if grid.d == 3 and grid.n >= 64:
        return Grid(grid.d, grid.n // 2, grid.half_width)
    return None


def _energy_parts(sec, w, G, dv, x):
    """(kinetic, potential, interaction) energy of the all-even sector vector x."""
    # unfold is an isometry, and the density at a sector point is c2 x^2
    x2 = x ** 2
    kin = float(x @ sec.apply_symbol(sec.k2, x)) * dv
    return kin, float(w @ x2) * dv, 0.5 * G * float((sec.c2 * x2) @ x2) * dv


def _flow_residual(sec, w, G, dv, x, mu):
    """||h x - mu x|| on the all-even sector, h = -Lap + w + G c2 x^2."""
    res_vec = sec.apply_symbol(sec.k2, x) + (w + G * sec.c2 * x ** 2 - mu) * x
    return math.sqrt(float(res_vec @ res_vec) * dv)


def _gradient_flow(sec, w, G, dv, x, handoff):
    """The normalized gradient flow of :func:`gp_minimize` from the unit vector x.

    Runs on the all-even sector ``sec`` with the trap w at its octant points
    until a checked residual falls below ``handoff``, the step size reaches
    its floor or the step budget runs out. Returns (x, accepted energies,
    x's own first, last checked residual, steps taken, rejected included).
    """
    c2 = sec.c2
    kin, pot, inter = _energy_parts(sec, w, G, dv, x)
    energy, mu_r = kin + pot + inter, kin + pot + 2.0 * inter

    dt = _FLOW_DT0
    dt_min, dt_max = 1e-5, 0.5
    slack = 1e-12
    history = [energy]
    residual = math.inf
    check_every = 10
    accepted = 0
    last_checked_residual = math.inf

    for it in range(1, _FLOW_MAX_ITER + 1):
        factor = np.exp(-dt * (w + G * c2 * x ** 2 - mu_r))
        new_x = sec.apply_symbol(1.0 / (1.0 + dt * sec.k2), factor * x)
        new_x /= math.sqrt(float(new_x @ new_x) * dv)

        kin, pot, inter = _energy_parts(sec, w, G, dv, new_x)
        new_energy = kin + pot + inter

        if new_energy > energy + slack * max(1.0, abs(energy)):
            dt *= 0.5
            if dt < dt_min:
                break  # bias floor of the split scheme: hand off to polish
            continue

        x = new_x
        energy = new_energy
        mu_r = energy + inter
        history.append(energy)
        accepted += 1
        dt = min(dt * 1.05, dt_max)

        if accepted % check_every == 0:
            residual = _flow_residual(sec, w, G, dv, x, mu_r)
            if residual < handoff:
                break
            if residual > 0.97 * last_checked_residual:
                dt = max(0.25 * dt, dt_min)
            last_checked_residual = residual
    else:
        if residual > 10 * handoff:
            raise RuntimeError(
                f"flow made no progress after {_FLOW_MAX_ITER} iterations "
                f"(residual {residual:.3e})"
            )
    return x, history, residual, it


def gp_minimize(
    grid: Grid,
    trap: TrapSpec,
    G: float,
    tol: float = 1e-6,
) -> GroundStateResult:
    """Minimize the cubic functional by a normalized gradient flow.

    For G >= 0 and V symmetric under each reflection x_ax -> -x_ax, the
    minimizer is unique up to a phase and positive (Lieb, Seiringer and
    Yngvason, Phys. Rev. A 61, 043602 (2000)), so every reflection fixes it
    and it lies in the all-even sector of :class:`_ParitySector`. Flow and
    polish run there, in real arithmetic on the octant (DCT-I Laplacian),
    and the field is unfolded once at the end. V must be symmetric under
    each reflection and each axis swap (to 1e-10 max|V|, else
    ``ValueError``); ``tol`` must be positive.

    Each flow step treats the Laplacian with a backward-Euler spectral solve
    and the potential + nonlinearity explicitly (as the positivity-preserving
    factor exp(-dt (V + G rho - mu_R)), shifted by the current Rayleigh
    quotient), then renormalizes. Steps that raise the energy are rejected
    with a halved dt, so the accepted-energy history is non-increasing. The
    split scheme has an O(dt) fixed-point bias, so once the residual
    ||h phi - mu phi|| falls below _POLISH_THRESHOLD (or stalls), the
    iterate is handed to a projected-Newton polish that pushes the residual
    below ``tol``; the polish may not raise the energy.

    On a 3D grid with n >= 64 the flow runs on the grid of the even points
    (n/2 per axis, same half-width, V sampled there), from the start built
    there, and its result, prolonged (:meth:`_ParitySector.prolong`) and
    renormalized, is the fine grid's start: the two-grid scheme for
    eigenproblems of Xu and Zhou (Math. Comp. 70, 17 (2001)). The polish
    runs on the fine grid if the start's residual there exceeds ``tol``,
    after the same flow on the fine grid if it still exceeds
    _POLISH_THRESHOLD. It measured faster: on the README config (64^3,
    G = 100) the minimization took 52-73 ms (medians of three sets of 5-8
    runs) against 93-97 ms with the flow on the fine grid, and its field
    moved by 1.1e-9.

    ``residual`` is certified on the full grid: h acts on the unfolded field
    there with no symmetry assumed. The box must contain the cloud:
    half_width >= 1.2 * TF radius and >= 2 * trap ground-state width, and
    the full-grid boundary-shell mass must stay below _BOUNDARY_TOL. The
    flow starts at step _FLOW_DT0 and runs at most _FLOW_MAX_ITER steps.
    """
    if G < 0:
        raise ValueError(f"G must be nonnegative, got {G}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    width = trap.strength ** (-1.0 / (trap.s + 2.0))
    need = 2.0 * width
    if G > 0:
        need = max(need, 1.2 * tf_minimize(trap, G, grid.d).radius)
    if grid.half_width < need:
        raise ValueError(
            f"box half-width {grid.half_width} too small; need >= {need:.3g}"
        )

    V = trap.on_grid(grid)
    _require_cubic_symmetric(V, "the trap potential V")
    sec = _ParitySector(grid, (0,) * grid.d)
    w, dv = sec.octant(V).ravel(), grid.dv
    handoff = max(tol, _POLISH_THRESHOLD)

    coarse = _coarse_grid(grid)
    if coarse is None:
        x = sec.restrict(_initial(grid, trap, G))
        x /= math.sqrt(float(x @ x) * dv)
        iterations, residual = 0, math.inf
    else:
        coarse_sec = _ParitySector(coarse, sec.parity)
        even = (slice(None, None, 2),) * grid.d
        x = coarse_sec.restrict(_initial(coarse, trap, G))
        x /= math.sqrt(float(x @ x) * coarse.dv)
        x, _, _, iterations = _gradient_flow(
            coarse_sec, coarse_sec.octant(V[even]).ravel(), G, coarse.dv, x, handoff
        )
        x = coarse_sec.prolong(x[:, None])[:, 0]
        x /= math.sqrt(float(x @ x) * dv)
        kin, pot, inter = _energy_parts(sec, w, G, dv, x)
        energy = kin + pot + inter
        history = [energy]
        residual = _flow_residual(sec, w, G, dv, x, energy + inter)
    if residual > handoff:
        x, history, residual, steps = _gradient_flow(sec, w, G, dv, x, handoff)
        iterations += steps
        kin, pot, inter = _energy_parts(sec, w, G, dv, x)
        energy = kin + pot + inter
    mu_r = energy + inter

    newton_steps = 0
    if residual > tol:
        x, newton_steps = _newton_polish(x, sec, w, G, dv, tol)
        kin, pot, inter = _energy_parts(sec, w, G, dv, x)
        new_energy = kin + pot + inter
        if new_energy > energy + 1e-8 * max(1.0, abs(energy)):
            raise RuntimeError("polish raised the energy; minimizer is suspect")
        energy, mu_r = new_energy, new_energy + inter
        history.append(energy)

    phi = sec.unfold(x).reshape(grid.shape)
    res_vec = apply_symbol(grid.k2_half, phi) + (V + G * phi ** 2 - mu_r) * phi
    residual = math.sqrt(float(np.sum(res_vec ** 2)) * dv)
    boundary_mass = float(np.sum(phi[grid.boundary_shell] ** 2)) * dv
    if boundary_mass > _BOUNDARY_TOL:
        raise RuntimeError(
            f"boundary-shell mass {boundary_mass:.3e} exceeds {_BOUNDARY_TOL:.1e}; "
            "the box is too small"
        )

    return GroundStateResult(
        field=Field(grid, phi),
        energy=energy,
        mu=mu_r,
        kinetic=kin,
        potential=pot,
        interaction=inter,
        residual=residual,
        iterations=iterations,
        newton_steps=newton_steps,
        energy_history=np.asarray(history),
        boundary_mass=boundary_mass,
    )


# ---------------------------------------------------------------------------
# Linearized spectrum
# ---------------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of h = -Lap + V + G |phi|^2 with residuals.

    The eigenvalues come from separate solves in the reflection-parity
    sectors of h, which therefore must commute with every reflection
    x_ax -> -x_ax and every axis swap of the grid; one sector per
    axis-permutation orbit is solved and lends its levels to the others.
    ``residuals`` are ||h v - lambda v|| / ||v|| of the eigenvectors, copies
    included, unfolded to the full grid, with h applied there without any
    symmetry, and ``converged`` is read from them. ``iterations`` counts the
    iterations of the fine-grid representative solves of this module's
    block-size-1 :func:`lobpcg`; ``warnings`` holds the messages it raised
    in every solve, in order, as ``"UserWarning: ..."``.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    gap: float
    mu0: float
    converged: bool
    iterations: int
    warnings: tuple = ()


# LOBPCG's residual tolerance and iteration cap per solve; converged allows
# 100 times the tolerance on the full grid
_SPECTRUM_TOL = 1e-8
_SPECTRUM_MAXITER = 800


def _parity_orbits(d: int) -> dict:
    """The 2^d parities grouped into orbits of the axis permutations.

    Maps each orbit's representative, its odd axes first, to its members as
    (parity, axes): transposing the representative's octant arrays by
    ``axes`` gives the member's.
    """
    orbits = {}
    for parity in itertools.product((0, 1), repeat=d):
        order = sorted(range(d), key=lambda ax: -parity[ax])
        rep = tuple(parity[ax] for ax in order)
        orbits.setdefault(rep, []).append((parity, tuple(order.index(ax) for ax in range(d))))
    return orbits


def hgp_spectrum(
    grid: Grid,
    trap: TrapSpec,
    G: float,
    phi: Field,
    k: int = 4,
    seed: int = 0,
) -> SpectrumResult:
    """Lowest k eigenvalues of h = -Lap + V + G |phi|^2, solved per parity sector.

    W = V + G |phi|^2 must be symmetric under each reflection x_ax -> -x_ax
    and each swap of two axes (to 1e-10 max|W|, else ``ValueError``), so h
    splits into the 2^d sectors of :class:`_ParitySector`, and sectors that
    an axis permutation maps onto each other share their spectrum. One
    representative per orbit of sectors, the one with its odd axes first,
    is solved one vector at a time by this module's :func:`lobpcg` (block
    size 1, Knyazev's algorithm as ``scipy.sparse.linalg.lobpcg`` runs it,
    which the tests keep as its oracle; no dense switch, so sectors of a
    few points work too) with the potential-aware preconditioner
    S (c - Lap)^{-1} S, S = diag(sqrt(c / (c + W))), c = max(1, <phi, h phi>)
    (:meth:`_ParitySector.preconditioner`, after Antoine, Levitt and Tang,
    J. Comput. Phys. 343, 92 (2017)), which the Newton polish of
    :func:`gp_minimize` uses with (W - mu)_+ in place of W. Its levels count
    once per orbit member, and the member's eigenvectors are the
    representative's with the octant arrays transposed.

    phi must be the ground state of its own h, as :func:`gp_minimize`
    returns it: the all-even sector starts from phi itself, without noise,
    and would otherwise report the lowest level of phi's own symmetry class
    in place of that sector's lowest. Every other sector starts from phi
    times its odd coordinates plus a seeded random part of 10% of the norm.
    Let tau be the k-th lowest eigenvalue found, counted with multiplicity.
    A sector whose highest eigenvalue found lies below tau (by more than
    rounding) grows by one vector, solved with the sector's eigenvectors as
    constraints, until it holds k vectors or its whole dimension. The
    all-even sector first grows from (x_0^2 - x_1^2) phi (x^2 phi in 1D)
    plus the 10% random part; its later vectors, and those of every other
    sector, grow from random vectors.

    On a 3D grid with n >= 64, the same solves run first on the grid of the
    even points (n/2 per axis), with W and phi sampled there. Each coarse
    eigenvector, prolonged (:meth:`_ParitySector.prolong`), starts the fine
    solve of its sector and index, but the all-even sector's first starts
    from phi; tau, constraints and residuals stay the fine grid's. ``seed``
    draws the random parts of the starts that no coarse vector replaces. It
    measured faster there: at 64^3 (k = 4, G = 100) the solves from the
    coarse starts took 0.21 s (median of 7), coarse solves included,
    against 0.33 s from the cold starts; at 32^3 the two tied (0.046
    against 0.047 s).

    ``residuals`` and ``converged`` come from h on the full grid, applied to
    every unfolded eigenvector, copies included, without any symmetry. They
    are formed one eigenvector at a time, each unfolded, certified and
    dropped before the next, so no (n^d, k) block is held.
    ``iterations`` counts the fine representative solves only, though every
    solve calls this module's ``lobpcg``. The warnings of every solve are
    returned in ``SpectrumResult.warnings`` instead of printed; recording
    them swaps process-wide state, so concurrent calls are not supported.
    """
    if k < 2:
        raise ValueError("need at least two eigenvalues for a gap")
    if k > grid.n ** grid.d:
        raise ValueError(f"k = {k} exceeds the {grid.n ** grid.d} points of the grid")
    if phi.grid != grid:
        raise ValueError("phi lives on a different grid")
    W = trap.on_grid(grid) + G * np.abs(phi.values) ** 2
    _require_cubic_symmetric(W, "V + G|phi|^2")
    base = phi.values.real
    rng = np.random.default_rng(seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        starts = None
        coarse = _coarse_grid(grid)
        if coarse is not None:
            even = (slice(None, None, 2),) * grid.d  # the coarse grid's points
            sectors, _, _, vectors, _ = _sector_solves(coarse, W[even], base[even], k, rng)
            starts = [sec.prolong(v) for sec, v in zip(sectors, vectors)]
        sectors, copies, values, vectors, iterations = _sector_solves(grid, W, base, k, rng, starts)

    lowest = sorted(
        (lam, i, m, j)
        for i, vals in enumerate(values)
        for m in range(len(copies[i]))
        for j, lam in enumerate(vals)
    )[:k]
    eigenvalues = np.array([lam for lam, *_ in lowest])

    def residual(lam, i, m, j):
        # the full-grid fields die here, before the next eigenvector is unfolded
        member, axes = copies[i][m]
        v = member.unfold(sectors[i].transpose(vectors[i][:, j], axes)).reshape(grid.shape)
        r = apply_symbol(grid.k2_half, v) + (W - lam) * v
        return np.linalg.norm(r) / np.linalg.norm(v)

    residuals = np.array([residual(*low) for low in lowest])

    mu0 = float(eigenvalues[0])
    gap = float(eigenvalues[1] - eigenvalues[0])
    if gap < 1e-10 * max(1.0, abs(mu0)):
        raise RuntimeError(
            f"degenerate lowest level (gap {gap:.3e}); minimizer is suspect"
        )
    converged = bool(np.all(residuals < 100 * _SPECTRUM_TOL * max(1.0, abs(eigenvalues[-1]))))
    return SpectrumResult(
        eigenvalues=eigenvalues,
        residuals=residuals,
        gap=gap,
        mu0=mu0,
        converged=converged,
        iterations=iterations,
        warnings=tuple(f"{w.category.__name__}: {w.message}" for w in caught),
    )


def _sector_solves(grid, W, base, k, rng, starts=None):
    """The solves of :func:`hgp_spectrum` on one grid: (sectors, their orbit
    members, eigenvalues and eigenvectors per sector, LOBPCG iterations).
    ``starts`` holds per sector the start vectors of its solves as columns."""
    unit = base / np.linalg.norm(base)
    shift = max(1.0, float(np.vdot(unit, apply_symbol(grid.k2_half, unit) + W * unit)))
    del unit
    coords = grid.coords()
    iterations = 0

    def sector_operators(sec):
        w = sec.octant(W).ravel()
        scaled = sec.preconditioner(shift, w)

        def h(X):
            return sec.apply_symbol(sec.k2, X) + w.reshape((-1,) + (1,) * (X.ndim - 1)) * X

        def precond(X):
            nonlocal iterations
            iterations += 1  # LOBPCG preconditions once per iteration it does not stop
            return scaled(X)

        return h, precond

    def guess(sec, factors, noisy=True):
        # the sector vector of base times the factors, which have the sector's
        # parity: its octant samples over sqrt(c2), with no full-grid product
        x = sec.octant(base)
        for f in factors:
            x = x * sec.octant(np.broadcast_to(f, base.shape))
        x = x.ravel() / np.sqrt(sec.c2)
        x /= np.linalg.norm(x)
        if noisy:
            noise = rng.standard_normal(sec.dim)
            x += 0.1 * noise / np.linalg.norm(noise)
        return x[:, None]

    orbits = _parity_orbits(grid.d)
    sectors = [_ParitySector(grid, rep) for rep in orbits]
    copies = [
        [(sec if p == sec.parity else _ParitySector(grid, p), axes) for p, axes in orbit]
        for sec, orbit in zip(sectors, orbits.values())
    ]
    ops = [sector_operators(sec) for sec in sectors]
    guesses = [
        guess(sec, [c for c, odd in zip(coords, sec.parity) if odd], any(sec.parity))
        for sec in sectors
    ]
    # the all-even sector's next level: the quadrupole, or the 1D breathing mode
    even_growth = coords[0] ** 2 - (coords[1] ** 2 if grid.d > 1 else 0.0)

    values = [np.empty(0)] * len(sectors)
    vectors = [np.empty((sec.dim, 0)) for sec in sectors]
    pending = range(len(sectors))
    while pending:
        for i in pending:
            A, M = ops[i]
            Y = vectors[i] if vectors[i].shape[1] else None
            j = values[i].size
            # phi is the all-even sector's ground state, sharper than any prolongation
            warm = starts is not None and j < starts[i].shape[1] and (j or any(sectors[i].parity))
            start = starts[i][:, j : j + 1] if warm else guesses[i]
            w, v = lobpcg(A, start, M=M, Y=Y, tol=_SPECTRUM_TOL, maxiter=_SPECTRUM_MAXITER)
            values[i] = np.append(values[i], w)
            vectors[i] = np.column_stack([vectors[i], v])
        found = np.sort(np.concatenate([np.repeat(v, len(c)) for v, c in zip(values, copies)]))
        tau = math.inf
        if found.size >= k:
            # a level shared by several orbits comes out of each up to rounding
            tau = found[k - 1] - 1e-10 * max(1.0, abs(found[k - 1]))
        pending = [
            i for i in pending
            if values[i].max() < tau and values[i].size < min(k, sectors[i].dim)
        ]
        for i in pending:
            if any(sectors[i].parity) or values[i].size > 1:
                # a repeated physical guess would lean on levels already found
                guesses[i] = rng.standard_normal((sectors[i].dim, 1))
            else:
                guesses[i] = guess(sectors[i], [even_growth])
    return sectors, copies, values, vectors, iterations


# LOBPCG: below this residual the Gram matrices are formed explicitly; a
# residual this many times the smallest so far recomputes A x
_EXPLICIT_GRAM = math.sqrt(np.finfo(float).eps)
_RESTART_GROWTH = 2.0 ** 20


def _lowest_ritz(gram_a, gram_b):
    """Lowest eigenpair of the pencil (gram_a, gram_b) through the Cholesky
    factor of gram_b; ``LinAlgError`` unless gram_b is positive definite."""
    inv_l = np.linalg.inv(np.linalg.cholesky(gram_b))
    vals, vecs = np.linalg.eigh(inv_l @ gram_a @ inv_l.T)
    return float(vals[0]), inv_l.T @ vecs[:, 0]


def lobpcg(A, X, M, Y=None, *, tol, maxiter):
    """Lowest eigenpair of a symmetric operator by block-size-1 LOBPCG.

    Knyazev's locally optimal block preconditioned conjugate gradient (SIAM
    J. Sci. Comput. 23, 517 (2001)) with B = I and one vector, step for step
    as ``scipy.sparse.linalg.lobpcg`` takes it with ``largest=False``, but
    with no switch to a dense solver on small problems. ``A`` and the
    preconditioner ``M`` are callables on one vector; ``X`` is the start, one
    column; the columns of ``Y`` are constraints: the start, every
    preconditioned residual and the returned vector are projected off their
    span with the Cholesky factor of Y^T Y. Each iteration that does not
    stop applies M once, to the residual. Its Rayleigh-Ritz step solves the
    3 x 3 pencil of the iterate, the normalized preconditioned residual and
    the previous step, with the Gram matrices taken as exact (identity
    metric, the Ritz value on the diagonal) until the residual falls below
    sqrt(eps) and computed from then on; if that pencil is not positive
    definite, the step drops the previous step and restarts. The iterate of
    smallest residual is kept, projected once more and normalized, and its
    Rayleigh quotient returned.

    Returns (eigenvalue as a length-1 array, eigenvector as one column). A
    residual still above ``tol`` raises scipy's ``UserWarning`` texts, each
    naming the "requested tolerance": at a failed orthonormalization, at
    the end of the iterations and after the final Rayleigh quotient.
    """

    def failed(iteration, res_norm):
        warnings.warn(
            f"Failed at iteration {iteration} with accuracies [{res_norm}]\n"
            f" not reaching the requested tolerance {tol}.",
            UserWarning,
            stacklevel=3,
        )

    if Y is None:
        project = None
    else:
        try:
            inv_l = np.linalg.inv(np.linalg.cholesky(Y.T @ Y))
        except np.linalg.LinAlgError as exc:
            raise ValueError("Linearly dependent constraints") from exc
        gram_inv = inv_l.T @ inv_l

        def project(v):
            return v - Y @ (gram_inv @ (Y.T @ v))

    x = X.reshape(-1) if project is None else project(X.reshape(-1))
    xx = float(x @ x)
    if not xx > 0:
        raise ValueError("Linearly dependent initial approximations")
    x = x / math.sqrt(xx)
    ax = A(x)
    lam = float(x @ ax)

    best_norm, best_iteration, best_x = math.inf, maxiter, x
    p = ap = None
    restart = forced = explicit = False
    iteration = -1
    while iteration < maxiter:
        iteration += 1
        r = ax - lam * x
        res_norm = math.sqrt(abs(float(r @ r)))
        if res_norm < best_norm:
            best_norm, best_iteration, best_x = res_norm, iteration, x
        elif res_norm > _RESTART_GROWTH * best_norm:
            forced = True  # and for the rest of the solve
            ax = A(x)
        if res_norm <= tol:
            break

        w = M(r) if project is None else project(M(r))
        w = w - x * float(x @ w)
        ww = float(w @ w)
        if not ww > 0:
            failed(iteration, res_norm)
            break
        w = w / math.sqrt(ww)
        aw = A(w)
        restart = True
        if iteration > 0:
            pp = float(p @ p)
            if pp > 0:
                scale = 1.0 / math.sqrt(pp)
                p, ap = p * scale, ap * scale
                restart = forced

        explicit = explicit or res_norm <= _EXPLICIT_GRAM
        xaw, waw = float(x @ aw), float(w @ aw)
        if explicit:
            xax, xx, ww, xw = float(x @ ax), float(x @ x), float(w @ w), float(x @ w)
        else:
            xax, xx, ww, xw = lam, 1.0, 1.0, 0.0
        if not restart:
            xap, wap, xp, wp = float(x @ ap), float(w @ ap), float(x @ p), float(w @ p)
            pap, pbp = float(p @ ap), (float(p @ p) if explicit else 1.0)
            try:
                lam, c = _lowest_ritz(
                    np.array([[xax, xaw, xap], [xaw, waw, wap], [xap, wap, pap]]),
                    np.array([[xx, xw, xp], [xw, ww, wp], [xp, wp, pbp]]),
                )
            except np.linalg.LinAlgError:
                restart = True  # drop p and solve again on x and w
        if restart:
            # positive definite metric, x and w being orthonormal: fails only on
            # entries that are no longer finite
            try:
                lam, c = _lowest_ritz(
                    np.array([[xax, xaw], [xaw, waw]]), np.array([[xx, xw], [xw, ww]])
                )
            except np.linalg.LinAlgError:
                failed(iteration, res_norm)
                break
            p, ap = w * c[1], aw * c[1]
        else:
            p, ap = w * c[1] + p * c[2], aw * c[1] + ap * c[2]
        x = x * c[0] + p
        ax = ax * c[0] + ap

    r = ax - lam * x
    res_norm = math.sqrt(abs(float(r @ r)))
    if res_norm < best_norm:
        best_norm, best_iteration, best_x = res_norm, iteration + 1, x
    if res_norm > tol:
        warnings.warn(
            f"Exited at iteration {iteration} with accuracies \n[{res_norm}]\n"
            f"not reaching the requested tolerance {tol}.\n"
            f"Use iteration {best_iteration} instead with accuracy \n{best_norm}.\n",
            UserWarning,
            stacklevel=2,
        )

    x = best_x if project is None else project(best_x)
    ax = A(x)
    xx = float(x @ x)
    lam = float(x @ ax) / xx
    scale = 1.0 / math.sqrt(xx)
    x, ax = x * scale, ax * scale
    r = ax - lam * x
    res_norm = math.sqrt(abs(float(r @ r)))
    if res_norm > tol:
        warnings.warn(
            f"Exited postprocessing with accuracies \n[{res_norm}]\n"
            f"not reaching the requested tolerance {tol}.",
            UserWarning,
            stacklevel=2,
        )
    return np.array([lam]), x[:, None]


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


def _grad_linf(phi: Field) -> float:
    """sup norm of |grad phi|, each component the inverse FFT of i k_ax phi-hat."""
    grid = phi.grid
    hat = np.fft.fftn(phi.values)
    parts = (np.fft.ifftn(1j * grid.k_along(ax) * hat) for ax in range(grid.d))
    return float(np.max(np.sqrt(sum(np.abs(part) ** 2 for part in parts))))


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
    grad_linf = _grad_linf(phi)
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


def interaction_gap(phi: Field, interaction: InteractionSpec):
    """The smearing error of v_N * |phi|^2 against integral(v) |phi|^2, per N.

    Returns ``gap(N) -> GapReport``: the sup norm of v_N * |phi|^2 -
    integral(v) |phi|^2 and its Taylor bound 2 * integral(|y| |v|)
    * N^{-beta} * ||phi||_inf * ||grad phi||_inf. The density, the sup norms
    and the integrals are computed here, once; each ``gap(N)`` builds only
    the kernel and one convolution, and may run on several threads. It needs
    N >= 1 and a grid that resolves the kernel range (h <= N^{-beta} / 4).
    """
    grid = phi.grid
    rho = np.abs(phi.values) ** 2
    flat = interaction.integral(grid.d) * rho
    first_moment = interaction.first_moment(grid.d)
    linf = norm(phi, "Linf")
    grad_linf = _grad_linf(phi)

    def gap(N: int) -> GapReport:
        if N < 1:
            raise ValueError(f"particle number must be >= 1, got {N}")
        rng_scale = float(N) ** (-interaction.beta)
        if grid.h > rng_scale / 4.0:
            raise ValueError(
                f"grid spacing {grid.h:.3g} does not resolve the kernel range "
                f"{rng_scale:.3g} (need h <= range/4)"
            )
        symbol = grid.kernel_symbol(interaction.kernel_on_grid(grid, N).values)
        measured = float(np.max(np.abs(apply_symbol(symbol, rho) - flat)))
        bound = 2.0 * first_moment * rng_scale * linf * grad_linf
        return GapReport(measured=measured, bound=bound, N=N)

    return gap
