"""Tests for the trap ground-state machinery.

Reference values marked as frozen come from tests/oracles/gp1d_oracle.py
(finite-difference SCF with Richardson extrapolation), run independently of
the spectral solver under test.
"""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.integrate import quad

from tfcond import groundstate as gs
from tfcond.grids import Field, apply_symbol, make_grid, norm
from tfcond.groundstate import (
    _ParitySector,
    _parity_orbits,
    gp_minimize,
    hgp_spectrum,
    interaction_gap,
    linf_diagnostics,
    suggested_half_width,
    tf_minimize,
    tf_profile_distance,
)
from tfcond.model import InteractionSpec, TrapSpec, sphere_area

TRAP = TrapSpec(strength=1.0, s=2)

# frozen 1D reference: V = x^2, G = 20, box [-8, 8]
GP1D_ENERGY = 3.894254430104
GP1D_MU = 6.214486178854


# ---------------------------------------------------------------------------
# Thomas-Fermi closed forms
# ---------------------------------------------------------------------------


def test_tf_unit_chemical_potential():
    # G = 8 pi / 15 makes mu = 1 and support radius 1 for V = |x|^2 in 3D
    tf = tf_minimize(TRAP, 8 * math.pi / 15, 3)
    assert abs(tf.mu - 1.0) < 1e-14
    assert abs(tf.radius - 1.0) < 1e-14
    assert abs(tf.mass - 1.0) < 1e-14


def test_tf_mu_scaling_in_G():
    for d in (1, 2, 3):
        for s in (2, 4):
            trap = TrapSpec(strength=1.3, s=s)
            a = tf_minimize(trap, 3.0, d)
            b = tf_minimize(trap, 6.0, d)
            assert b.mu / a.mu == pytest.approx(2 ** (s / (s + d)), rel=1e-13)


def test_tf_moments_match_radial_quadrature():
    for d, g_val in ((1, 5.0), (2, 3.0), (3, 7.0)):
        tf = tf_minimize(TRAP, g_val, d)
        sd = sphere_area(d)
        mass = quad(lambda r: sd * r ** (d - 1) * tf.density(r), 0, tf.radius)[0]
        sq = quad(lambda r: sd * r ** (d - 1) * tf.density(r) ** 2, 0, tf.radius)[0]
        pv = quad(lambda r: sd * r ** (d + 1) * tf.density(r), 0, tf.radius)[0]
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert sq == pytest.approx(tf.density_sq_integral, rel=1e-12)
        assert pv == pytest.approx(tf.potential_integral, rel=1e-12)


def test_tf_mu_energy_identity():
    # mu = E + (G/2) integral(rho^2), exactly
    for g_val in (0.5, 8 * math.pi / 15, 40.0):
        tf = tf_minimize(TRAP, g_val, 3)
        assert tf.mu == pytest.approx(
            tf.energy + 0.5 * g_val * tf.density_sq_integral, rel=1e-14
        )


def test_tf_density_on_grid_quadrature():
    tf = tf_minimize(TRAP, 8 * math.pi / 15, 3)
    grid = make_grid(3, 64, 2.0)
    rho = tf.density_on_grid(grid)
    assert rho.sum() * grid.dv == pytest.approx(1.0, abs=5e-4)
    assert (rho ** 2).sum() * grid.dv == pytest.approx(
        tf.density_sq_integral, rel=1e-4
    )


def test_tf_validation():
    with pytest.raises(ValueError, match="G > 0"):
        tf_minimize(TRAP, 0.0)
    with pytest.raises(ValueError, match="dimension"):
        tf_minimize(TRAP, 1.0, d=4)
    tf = tf_minimize(TRAP, 1.0, 3)
    with pytest.raises(ValueError, match="grid is 1"):
        tf.density_on_grid(make_grid(1, 64, 2.0))


# ---------------------------------------------------------------------------
# Gradient-flow minimizer
# ---------------------------------------------------------------------------


def test_gp_linear_harmonic_1d():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 0.0, tol=1e-10)
    assert res.energy == pytest.approx(1.0, abs=1e-10)
    assert res.mu == pytest.approx(1.0, abs=1e-10)
    exact = np.pi ** -0.25 * np.exp(-grid.x_axis ** 2 / 2.0)
    assert np.max(np.abs(np.abs(res.field.values) - exact)) < 1e-8


def test_gp_matches_frozen_1d_reference():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-9)
    assert res.energy == pytest.approx(GP1D_ENERGY, abs=2e-9)
    assert res.mu == pytest.approx(GP1D_MU, abs=2e-8)
    assert res.residual < 1e-9
    assert norm(res.field, "L2") == pytest.approx(1.0, abs=1e-12)


def test_gp_energy_history_monotone():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-8)
    hist = res.energy_history
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))


def test_gp_virial_identity():
    # scaling phi_a(x) = a^{d/2} phi(ax): stationarity gives 2K - 2P + d*I = 0
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-10)
    assert abs(2 * res.kinetic - 2 * res.potential + 1 * res.interaction) < 1e-9
    grid3 = make_grid(3, 32, 8.0)
    res3 = gp_minimize(grid3, TRAP, 2.0, tol=1e-9)
    assert abs(2 * res3.kinetic - 2 * res3.potential + 3 * res3.interaction) < 1e-6


def test_gp_is_variational_minimum():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-9)
    V = TRAP.on_grid(grid)
    rng = np.random.default_rng(7)

    def energy_of(vals):
        hat = np.fft.fftn(vals, norm="ortho")
        rho = np.abs(vals) ** 2
        return float(
            (np.sum(grid.k2 * np.abs(hat) ** 2) + np.sum(V * rho)).real * grid.dv
            + 0.5 * 20.0 * np.sum(rho ** 2) * grid.dv
        )

    e0 = energy_of(res.field.values)
    for _ in range(50):
        delta = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        delta *= np.exp(-grid.x_axis ** 2 / 8.0)  # keep perturbations in the box
        cand = res.field.values + 1e-3 * delta / np.sqrt(
            np.sum(np.abs(delta) ** 2) * grid.dv
        )
        cand /= np.sqrt(np.sum(np.abs(cand) ** 2) * grid.dv)
        assert energy_of(cand) >= e0 - 1e-9


@pytest.mark.parametrize("d,n", [(1, 512), (3, 32)])
def test_gp_residual_is_certified_on_the_full_grid(d, n):
    # ||h phi - mu phi|| of the returned field, recomputed with complex FFTs
    # on the full grid and mu = <phi, h phi>
    grid = make_grid(d, n, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-9)
    phi = res.field.values
    W = TRAP.on_grid(grid) + 20.0 * np.abs(phi) ** 2
    h_phi = np.fft.ifftn(grid.k2 * np.fft.fftn(phi)) + W * phi
    mu = np.vdot(phi, h_phi).real * grid.dv
    ref = math.sqrt(np.sum(np.abs(h_phi - mu * phi) ** 2) * grid.dv)
    assert abs(res.residual - ref) <= 1e-12
    assert res.residual < 1e-9


class _ShiftedTrap(TrapSpec):
    """The harmonic trap with its centre moved to x_0 = 0.5 on the grid."""

    def on_grid(self, grid):
        x = grid.coords()
        return self.strength * ((x[0] - 0.5) ** 2 + sum(c ** 2 for c in x[1:]))


def test_gp_requires_reflection_symmetric_trap():
    for d in (1, 2):
        grid = make_grid(d, 64, 8.0)
        with pytest.raises(ValueError, match="not symmetric under x_0 -> -x_0"):
            gp_minimize(grid, _ShiftedTrap(1.0, 2), 20.0)


def test_gp_box_too_small_rejected():
    grid = make_grid(1, 64, 2.0)
    with pytest.raises(ValueError, match="half-width"):
        gp_minimize(grid, TRAP, 20.0)


def test_gp_boundary_mass_guard():
    # box passes the radius precondition but leaks mass into the shell
    grid = make_grid(1, 256, 5.5)
    with pytest.raises(RuntimeError, match="boundary-shell mass"):
        gp_minimize(grid, TRAP, 100.0, tol=1e-7)


def test_gp_argument_validation():
    grid = make_grid(1, 512, 8.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gp_minimize(grid, TRAP, -1.0)


# Full-grid minimizer: the flow and Newton polish as they ran on the whole
# grid in complex arithmetic before gp_minimize moved to the all-even parity
# sector. Kept as the slow-path oracle of that move; its Newton preconditioner
# carries the same potential scaling as _ParitySector.preconditioner, built
# on the full grid.


def _full_grid_parts(vals, V, grid):
    rho = np.abs(vals) ** 2
    kin, _ = grid.kinetic(vals)
    return kin, float(np.sum(V * rho) * grid.dv), float(np.sum(rho ** 2) * grid.dv)


def _full_grid_polish(vals, V, grid, G, tol, max_newton=14):
    k2h, dv = grid.k2_half, grid.dv
    j = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
    phi = (vals / (vals[j] / abs(vals[j]))).real.copy()
    phi /= math.sqrt(np.sum(phi ** 2) * dv)

    def ip(a, b):
        return float(np.sum(a * b) * dv)

    for step in range(1, max_newton + 1):
        rho = phi ** 2
        W = V + G * rho
        h_phi = apply_symbol(k2h, phi) + W * phi
        mu = ip(phi, h_phi)
        res = h_phi - mu * phi
        res -= phi * ip(phi, res)
        res_norm = math.sqrt(ip(res, res))
        if res_norm < tol:
            return phi, res_norm, step - 1
        c = max(1.0, mu)
        inv_shifted = 1.0 / (c + k2h)
        s = np.sqrt(c / (c + np.maximum(W - mu, 0.0)))
        diag = W - mu + 2.0 * G * rho

        def jv(u):
            u = u - phi * ip(phi, u)
            out = apply_symbol(k2h, u) + diag * u
            return out - phi * ip(phi, out)

        b = -res
        x = np.zeros_like(phi)
        r = b.copy()
        z = s * apply_symbol(inv_shifted, s * r)
        p = z.copy()
        rz = ip(r, z)
        cg_tol = min(0.3, math.sqrt(res_norm)) * res_norm
        for _ in range(400):
            ap = jv(p)
            pap = ip(p, ap)
            if pap <= 0:
                break
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            if math.sqrt(ip(r, r)) < cg_tol:
                break
            z = s * apply_symbol(inv_shifted, s * r)
            rz_new = ip(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        if ip(x, x) == 0.0:
            x = s * apply_symbol(inv_shifted, s * b)
        scale = 1.0
        for _ in range(8):
            cand = phi + scale * x
            cand /= math.sqrt(ip(cand, cand))
            h_c = apply_symbol(k2h, cand) + (V + G * cand ** 2) * cand
            mu_c = ip(cand, h_c)
            r_c = h_c - mu_c * cand
            r_c -= cand * ip(cand, r_c)
            if math.sqrt(ip(r_c, r_c)) < res_norm:
                phi = cand
                break
            scale *= 0.5
        else:
            raise RuntimeError("oracle polish stalled")
    raise RuntimeError("oracle polish did not converge")


def _full_grid_gp_minimize(grid, trap, G, tol):
    """(field, energy, mu, residual, iterations, newton_steps) from the default start."""
    V = trap.on_grid(grid)
    dv = grid.dv
    width = trap.strength ** (-1.0 / (trap.s + 2.0))
    bump = np.exp(-grid.r2 / (2.0 * max(width, 1.0) ** 2))
    vals = np.sqrt(tf_minimize(trap, G, grid.d).density_on_grid(grid))
    vals = (vals + 0.01 * float(np.max(vals)) * bump).astype(np.complex128)
    vals /= math.sqrt(np.sum(np.abs(vals) ** 2).real * dv)

    kin, pot, quart = _full_grid_parts(vals, V, grid)
    energy = kin + pot + 0.5 * G * quart
    mu_r = kin + pot + G * quart
    dt, dt_min, dt_max = 0.1, 1e-5, 0.5
    residual = last_checked = math.inf
    accepted = 0
    handoff = max(tol, 3e-2)
    for it in range(1, 20_001):
        rho = np.abs(vals) ** 2
        stepped = np.fft.fftn(np.exp(-dt * (V + G * rho - mu_r)) * vals)
        stepped /= 1.0 + dt * grid.k2
        nrm = math.sqrt(np.sum(np.abs(stepped) ** 2).real * dv / grid.n ** grid.d)
        new_vals = np.fft.ifftn(stepped / nrm)
        kin, pot, quart = _full_grid_parts(new_vals, V, grid)
        new_energy = kin + pot + 0.5 * G * quart
        if new_energy > energy + 1e-12 * max(1.0, abs(energy)):
            dt *= 0.5
            if dt < dt_min:
                break
            continue
        vals, energy, mu_r = new_vals, new_energy, kin + pot + G * quart
        accepted += 1
        dt = min(dt * 1.05, dt_max)
        if accepted % 10 == 0:
            hphi = apply_symbol(grid.k2_half, vals) + (V + G * np.abs(vals) ** 2) * vals
            residual = math.sqrt(np.sum(np.abs(hphi - mu_r * vals) ** 2).real * dv)
            if residual < handoff:
                break
            if residual > 0.97 * last_checked:
                dt = max(0.25 * dt, dt_min)
            last_checked = residual
    newton_steps = 0
    if residual > tol:
        phi, residual, newton_steps = _full_grid_polish(vals, V, grid, G, tol)
        vals = phi.astype(np.complex128)
        kin, pot, quart = _full_grid_parts(vals, V, grid)
        energy, mu_r = kin + pot + 0.5 * G * quart, kin + pot + G * quart
    return vals, energy, mu_r, residual, it, newton_steps


@pytest.mark.parametrize(
    "d,n,G", [(1, 512, 20.0), (2, 64, 20.0), (3, 32, 20.0)], ids=["1d", "2d", "3d"]
)
def test_gp_matches_full_grid_oracle(d, n, G):
    grid = make_grid(d, n, 8.0)
    res = gp_minimize(grid, TRAP, G, tol=1e-9)
    vals, energy, mu, residual, iterations, newton_steps = _full_grid_gp_minimize(
        grid, TRAP, G, 1e-9
    )
    assert (res.iterations, res.newton_steps) == (iterations, newton_steps)
    assert np.max(np.abs(res.field.values - vals)) <= 1e-10
    assert res.energy == pytest.approx(energy, rel=1e-12)
    assert res.mu == pytest.approx(mu, rel=1e-12)
    assert residual < 1e-9


def test_suggested_half_width():
    assert suggested_half_width(TRAP, 0.0) == 8.0
    big = suggested_half_width(TRAP, 5568.0)
    assert big == pytest.approx(1.6 * tf_minimize(TRAP, 5568.0).radius, rel=1e-12)


# ---------------------------------------------------------------------------
# Spectrum of the linearized operator
# ---------------------------------------------------------------------------


def _apply_h(X, shape, k2, W):
    """Oracle: -Lap + W on real columns through full complex FFTs.

    Independent of the real-to-complex helper the solver uses; ``k2`` is |k|^2
    in full FFT layout and ``X`` is one flattened field or a column block.
    """
    d = len(shape)
    cols = X.reshape(shape + (-1,))
    hat = np.fft.fftn(cols, axes=tuple(range(d)))
    out = np.fft.ifftn(k2[..., None] * hat, axes=tuple(range(d))).real
    out += W[..., None] * cols
    return out.reshape(X.shape)


def _full_k2(d, n):
    # built from fftfreq alone, so odd n (which Grid rejects) is covered too
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=0.25)
    return sum(
        k.reshape((1,) * ax + (n,) + (1,) * (d - ax - 1)) ** 2 for ax in range(d)
    )


@pytest.mark.parametrize("columns", [None, 3])
@pytest.mark.parametrize("d,n", [(1, 16), (1, 15), (2, 8), (2, 9), (3, 8), (3, 7)])
def test_apply_symbol_matches_full_fft_oracle(d, n, columns):
    shape = (n,) * d
    k2 = _full_k2(d, n)
    k2_half = k2[..., : n // 2 + 1]
    rng = np.random.default_rng(11)
    W = rng.uniform(0.0, 5.0, shape)
    X = rng.standard_normal((n ** d,) if columns is None else (n ** d, columns))
    field = X.reshape(shape + (() if columns is None else (columns,)))

    ref = _apply_h(X, shape, k2, W)
    got = apply_symbol(k2_half, field)
    got += W.reshape(shape + (1,) * (field.ndim - d)) * field
    assert got.shape == field.shape
    assert np.max(np.abs(got.ravel() - ref.ravel())) <= 1e-12 * np.max(np.abs(ref))

    # a symbol other than k2: the resolvent (c - Lap)^{-1} inside the sector
    # preconditioner, against the oracle with W = 0 and 1/(c + k2)
    c = 6.5
    ref_m = _apply_h(X, shape, 1.0 / (c + k2), np.zeros(shape))
    got_m = apply_symbol(1.0 / (c + k2_half), field)
    assert np.max(np.abs(got_m.ravel() - ref_m.ravel())) <= 1e-12 * np.max(np.abs(ref_m))


def test_grid_k2_half_gives_the_laplacian():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        grid = make_grid(d, 16, 3.0)
        assert grid.k2_half.shape == (16,) * (d - 1) + (9,)
        u = rng.standard_normal(grid.shape)
        ref = np.fft.ifftn(grid.k2 * np.fft.fftn(u))
        got = apply_symbol(grid.k2_half, u)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_spectrum_linear_harmonic_1d():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 0.0, tol=1e-10)
    spec = hgp_spectrum(grid, TRAP, 0.0, res.field, k=4)
    assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0, 7.0], atol=1e-8)
    assert spec.gap == pytest.approx(2.0, abs=1e-8)
    assert spec.converged


def test_spectrum_linear_harmonic_3d():
    grid = make_grid(3, 32, 8.0)
    res = gp_minimize(grid, TRAP, 0.0, tol=1e-9)
    spec = hgp_spectrum(grid, TRAP, 0.0, res.field, k=4)
    assert np.allclose(spec.eigenvalues, [3.0, 5.0, 5.0, 5.0], atol=1e-8)
    # one (-++) solve stands for the whole dipole triplet: k=4 needs no
    # solve beyond those of k=2
    assert hgp_spectrum(grid, TRAP, 0.0, res.field, k=2).iterations == spec.iterations


def test_spectrum_against_dense_diagonalization():
    # same operator, two routes: LOBPCG vs dense symmetric eigensolver
    grid = make_grid(1, 128, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-9)
    W = TRAP.on_grid(grid) + 20.0 * np.abs(res.field.values) ** 2
    dense = _apply_h(np.eye(grid.n), grid.shape, grid.k2, W)
    ref = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    spec = hgp_spectrum(grid, TRAP, 20.0, res.field, k=3)
    assert np.allclose(spec.eigenvalues, ref[:3], atol=1e-9)
    assert spec.mu0 == pytest.approx(res.mu, abs=1e-8)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 16), (3, 8)])
def test_parity_sector_operators_match_apply_symbol(d, n):
    # every sector's DCT-I/DST-I Laplacian and preconditioner, applied on the
    # octant and unfolded, against the full-grid multipliers on the unfolded
    # vectors; wrong endpoint weights break this
    grid = make_grid(d, n, 3.0)
    rng = np.random.default_rng(13)
    c = 6.5
    w_full = np.random.default_rng(19).uniform(0.0, 300.0, grid.shape)
    for ax in range(d):  # reflection-symmetric, as the potentials of h are
        w_full = 0.5 * (w_full + np.roll(np.flip(w_full, ax), 1, ax))
    s_full = np.sqrt(c / (c + w_full))[..., None]
    for parity in itertools.product((0, 1), repeat=d):
        sec = _ParitySector(grid, parity)
        X = rng.standard_normal((sec.dim, 3))
        full = sec.unfold(X)
        assert full.shape == (grid.n ** grid.d, 3)
        # an isometry onto the parity subspace, undone by restrict
        assert np.max(np.abs(full.T @ full - X.T @ X)) <= 1e-12 * sec.dim
        back = np.stack([sec.restrict(col.reshape(grid.shape)) for col in full.T], axis=1)
        assert np.max(np.abs(back - X)) <= 1e-14
        # the unfolded density at the octant points is c2 X^2
        density = sec.octant(full[:, 0].reshape(grid.shape) ** 2).ravel()
        assert np.max(np.abs(density - sec.c2 * X[:, 0] ** 2)) <= 1e-14 * np.max(density)
        cols = full.reshape(grid.shape + (3,))
        # -Lap, and M = S (c - Lap)^{-1} S with S = diag(sqrt(c / (c + w)))
        precond = sec.preconditioner(c, sec.octant(w_full).ravel())
        for op, ref in (
            (lambda Y: sec.apply_symbol(sec.k2, Y), apply_symbol(grid.k2_half, cols)),
            (precond, s_full * apply_symbol(1.0 / (c + grid.k2_half), s_full * cols)),
        ):
            ref = ref.reshape(full.shape)
            got = sec.unfold(op(X))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), parity
            one = sec.unfold(op(X[:, 0]))
            assert np.max(np.abs(one - ref[:, 0])) <= 1e-12 * np.max(np.abs(ref)), parity
        # LOBPCG and CG need M symmetric positive definite
        dense = precond(np.eye(sec.dim))
        assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense)), parity
        assert np.linalg.eigvalsh(0.5 * (dense + dense.T))[0] > 0, parity


def _sector_fft_oracle(sec, symbol, X):
    """T symbol T X through scipy.fft, one axis at a time."""
    u = X.reshape(sec.shape + X.shape[1:])
    for ax, odd in enumerate(sec.parity):
        u = (sfft.dst if odd else sfft.dct)(u, type=1, axis=ax, norm="ortho")
    u = u * symbol.reshape(sec.shape + (1,) * (X.ndim - 1))
    for ax, odd in enumerate(sec.parity):
        u = (sfft.dst if odd else sfft.dct)(u, type=1, axis=ax, norm="ortho")
    return u.reshape(X.shape)


# (d, n): sector axes of n/2 + 1 and n/2 - 1 points, dense up to n = 128
# (65 points), through scipy.fft from n = 256 (129 points). At 256^3 only the
# all-even and all-odd sectors run (2 s of the 8 s that all eight take);
# the scipy.fft path is one loop over the axes, which the mixed parities of
# (2, 256) cover
@pytest.mark.parametrize(
    "d,n", [(1, 8), (1, 128), (1, 256), (2, 128), (2, 256), (3, 16), (3, 128), (3, 256)]
)
def test_sector_transforms_match_the_scipy_fft_oracle(d, n):
    grid = make_grid(d, n, 8.0)
    rng = np.random.default_rng(23)
    parities = itertools.product((0, 1), repeat=d)
    for parity in [(0,) * d, (1,) * d] if (d, n) == (3, 256) else parities:
        sec = _ParitySector(grid, parity)
        assert (sec._matrices is None) == (n > 128)
        for T in sec._matrices or ():
            assert np.max(np.abs(T @ T - np.eye(len(T)))) <= 1e-14, parity
        symbol = rng.uniform(0.0, 1.0, sec.shape) * np.max(sec.k2)
        for X in (rng.standard_normal(sec.dim), rng.standard_normal((sec.dim, 2))):
            want = _sector_fft_oracle(sec, symbol, X)
            got = sec.apply_symbol(symbol, X)
            assert got.shape == X.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(symbol), parity


def _dense_h(grid, W):
    """The oracle operator as a dense symmetric matrix, built in column blocks."""
    npts = grid.n ** grid.d
    out = np.empty((npts, npts))
    for start in range(0, npts, 512):
        cols = np.arange(start, min(start + 512, npts))
        unit = np.zeros((npts, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        out[:, cols] = _apply_h(unit, grid.shape, grid.k2, W)
    return 0.5 * (out + out.T)


# (d, n, half_width, G) of the dense-oracle spectrum cases
_DENSE_CASES = {
    "2d-G20": (2, 32, 8.0, 20.0),
    "2d-G0": (2, 32, 8.0, 0.0),
    "3d-G20": (3, 16, 6.0, 20.0),
}


@functools.lru_cache(maxsize=None)
def _dense_case(name):
    """(grid, G, phi, lowest 8 eigenvalues of the dense oracle) of one case."""
    d, n, half_width, G = _DENSE_CASES[name]
    grid = make_grid(d, n, half_width)
    res = gp_minimize(grid, TRAP, G, tol=1e-9)
    W = TRAP.on_grid(grid) + G * np.abs(res.field.values) ** 2
    return grid, G, res.field, np.linalg.eigvalsh(_dense_h(grid, W))[:8]


@pytest.mark.parametrize("case", list(_DENSE_CASES))
def test_spectrum_against_dense_diagonalization_up_to_k8(case):
    # the sector split must find every level below the k-th, including those
    # that share a value across sectors (the G = 0 oscillator: 2, 4, 4, 6, 6,
    # 6, 8, 8 in 2D) or within one sector
    grid, G, phi, ref = _dense_case(case)
    for k in range(2, 9):
        spec = hgp_spectrum(grid, TRAP, G, phi, k=k)
        err = float(np.max(np.abs(spec.eigenvalues - ref[:k])))
        assert err <= 1e-9, (k, err, spec.eigenvalues, ref[:k])
        assert spec.converged
        assert spec.warnings == (), (k, spec.warnings)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_spectrum_converges_inside_near_degenerate_clusters(k):
    # seed 3 on the 3D case: the (-++) sector's growth solve targets 9.1765,
    # 3e-3 below another level of the same sector; LOBPCG must still converge
    # within maxiter there, without a warning
    grid, G, phi, ref = _dense_case("3d-G20")
    spec = hgp_spectrum(grid, TRAP, G, phi, k=k, seed=3)
    err = float(np.max(np.abs(spec.eigenvalues - ref[:k])))
    assert err <= 1e-9, (k, err, spec.eigenvalues, ref[:k])
    assert spec.converged
    assert spec.warnings == (), (k, spec.warnings)


def _block_residuals(grid, W, vecs, lam):
    """Oracle: ||h v - lam v|| of the unfolded columns of ``vecs``, as one block,
    with every column and every transform held at once."""
    cols = vecs.reshape(grid.shape + (-1,))
    r = apply_symbol(grid.k2_half, cols) + (W[..., None] - lam) * cols
    return np.linalg.norm(r.reshape(-1, lam.size), axis=0)


@pytest.mark.parametrize("d,n", [(2, 16), (3, 16)])
def test_orbit_copies_are_member_sector_eigenvectors(d, n):
    # W with the symmetries of the cube but not of the sphere; each copy
    # transposed from a representative must be an eigenvector of its member
    # sector's own operator, and unfold to the same full-grid residual
    grid = make_grid(d, n, 3.0)
    coords = grid.coords()
    W = grid.r2 + 4.0 * np.exp(-grid.r2) + 0.1 * sum(
        (a * b) ** 2 for a, b in itertools.combinations(coords, 2)
    )
    rng = np.random.default_rng(17)

    def h(sec, X):
        return sec.apply_symbol(sec.k2, X) + sec.octant(W).reshape(-1, 1) * X

    def full_residual(sec, X, lam):
        return _block_residuals(grid, W, sec.unfold(X), lam)

    orbits = _parity_orbits(d)
    assert len(orbits) == d + 1
    assert sorted(p for members in orbits.values() for p, _ in members) == sorted(
        itertools.product((0, 1), repeat=d)
    )
    for rep, members in orbits.items():
        assert list(rep) == sorted(rep, reverse=True)
        sec = _ParitySector(grid, rep)
        H = h(sec, np.eye(sec.dim))
        lam, X = np.linalg.eigh(0.5 * (H + H.T))
        lam, X = lam[:4], X[:, :4]
        # near-eigenvectors, so that the residual compared below is not rounding
        near = X + 1e-6 * rng.standard_normal(X.shape)
        rep_residual = full_residual(sec, near, lam)
        assert np.all(rep_residual > 1e-8)
        for parity, axes in members:
            member = _ParitySector(grid, parity)
            copy = sec.transpose(X, axes)
            assert copy.shape == (member.dim, 4)
            hx = h(member, copy)
            assert np.max(np.abs(hx - lam * copy)) <= 1e-12 * np.max(np.abs(hx)), parity
            got = full_residual(member, sec.transpose(near, axes), lam)
            # rounding of h v - lambda v is relative to lambda, not to the residual
            assert np.max(np.abs(got - rep_residual)) <= 1e-12 * np.max(lam), parity


def test_spectrum_requires_reflection_symmetric_potential():
    grid = make_grid(2, 32, 8.0)
    x, y = grid.coords()
    shifted = np.exp(-((x - 0.5) ** 2 + y ** 2) / 2.0) + 0j
    phi = Field(grid, shifted / math.sqrt(np.sum(np.abs(shifted) ** 2) * grid.dv))
    with pytest.raises(ValueError, match="not symmetric under x_0 -> -x_0"):
        hgp_spectrum(grid, TRAP, 20.0, phi, k=2)
    # without interaction only the radial trap enters h, which is symmetric
    spec = hgp_spectrum(grid, TRAP, 0.0, phi, k=2)
    assert np.allclose(spec.eigenvalues, [2.0, 4.0], atol=1e-8)


def test_spectrum_requires_swap_symmetric_potential():
    # symmetric under both reflections but not under x <-> y
    grid = make_grid(2, 32, 8.0)
    x, y = grid.coords()
    squeezed = np.exp(-(x ** 2 + 2.0 * y ** 2) / 2.0) + 0j
    phi = Field(grid, squeezed / math.sqrt(np.sum(np.abs(squeezed) ** 2) * grid.dv))
    with pytest.raises(ValueError, match="not symmetric under the swap x_0 <-> x_1"):
        hgp_spectrum(grid, TRAP, 20.0, phi, k=2)
    spec = hgp_spectrum(grid, TRAP, 0.0, phi, k=2)
    assert np.allclose(spec.eigenvalues, [2.0, 4.0], atol=1e-8)


def test_spectrum_warnings_are_captured_as_data(monkeypatch):
    grid = make_grid(1, 128, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-9)
    monkeypatch.setattr(gs, "_SPECTRUM_MAXITER", 2)
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        spec = hgp_spectrum(grid, TRAP, 20.0, res.field, k=3)
    assert leaked == []
    assert not spec.converged
    assert any("requested tolerance" in w for w in spec.warnings)
    monkeypatch.undo()
    assert hgp_spectrum(grid, TRAP, 20.0, res.field, k=3).warnings == ()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_prolong_reproduces_band_limited_sector_vectors(d):
    # a field of one parity with wavenumbers pi m / L up to the coarse grid's
    # Nyquist (m <= n/4 in cosines, m < n/4 in sines), sampled on the grid
    # and on the grid of its even points: the prolonged coarse sector vector
    # is the fine one, up to its norm
    n = 32 if d < 3 else 16
    fine, coarse = make_grid(d, n, 3.0), make_grid(d, n // 2, 3.0)
    rng = np.random.default_rng(23)
    for parity in itertools.product((0, 1), repeat=d):
        f = np.ones(fine.shape)
        for x, odd in zip(fine.coords(), parity):
            m = np.arange(1, n // 4) if odd else np.arange(n // 4 + 1)
            wave = np.sin if odd else np.cos
            c = rng.standard_normal(m.size)
            f = f * sum(cm * wave(np.pi * mm * x / 3.0) for cm, mm in zip(c, m))
        want = _ParitySector(fine, parity).restrict(f)
        sampled = _ParitySector(coarse, parity).restrict(f[(slice(None, None, 2),) * d])
        got = _ParitySector(coarse, parity).prolong(sampled[:, None])[:, 0]
        assert got.shape == want.shape
        err = np.max(np.abs(got - want / np.linalg.norm(want)))
        assert err <= 1e-12, (parity, err)


@functools.lru_cache(maxsize=None)
def _gs3d_case():
    """(grid, W, phi) of the README groundstate config: 64^3, G = 100."""
    grid = make_grid(3, 64, 8.0)
    res = gp_minimize(grid, TRAP, 100.0, tol=1e-6)
    return grid, TRAP.on_grid(grid) + 100.0 * np.abs(res.field.values) ** 2, res.field


@pytest.mark.parametrize("k,seed", [(4, 0), (4, 3), (8, 0), (8, 3)])
def test_coarse_start_keeps_the_cold_start_eigenvalues(k, seed):
    # the cold start, every solve from the physical guesses, is the oracle of
    # the coarse-grid start that hgp_spectrum takes on 3D grids with n >= 64
    grid, W, phi = _gs3d_case()
    _, copies, values, _, cold_iterations = gs._sector_solves(
        grid, W, phi.values.real, k, np.random.default_rng(seed), starts=None
    )
    cold = sorted(lam for vals, c in zip(values, copies) for lam in vals for _ in c)[:k]
    spec = hgp_spectrum(grid, TRAP, 100.0, phi, k=k, seed=seed)
    assert np.max(np.abs(spec.eigenvalues - cold)) <= 1e-9, (spec.eigenvalues, cold)
    assert spec.converged
    assert spec.warnings == ()
    assert 2 * spec.iterations <= cold_iterations, (spec.iterations, cold_iterations)


@pytest.mark.parametrize("case", ["gs3d", "3d-G20"])
@pytest.mark.parametrize("k", [4, 8])
def test_streamed_residuals_match_the_block_oracle(monkeypatch, case, k):
    # the residuals formed one eigenvector at a time against the block of
    # every unfolded eigenvector, rebuilt from the fine-grid sector solves
    if case == "gs3d":
        G, (grid, W, phi) = 100.0, _gs3d_case()
    else:
        grid, G, phi, _ = _dense_case(case)
        W = TRAP.on_grid(grid) + G * np.abs(phi.values) ** 2
    solves = []
    solve = gs._sector_solves

    def recorded(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(gs, "_sector_solves", recorded)
    spec = hgp_spectrum(grid, TRAP, G, phi, k=k)
    sectors, copies, values, vectors, _ = solves[-1]  # the fine grid's
    lowest = sorted(
        (lam, i, m, j)
        for i, vals in enumerate(values)
        for m in range(len(copies[i]))
        for j, lam in enumerate(vals)
    )[:k]
    assert np.array_equal(spec.eigenvalues, [lam for lam, *_ in lowest])
    columns = []
    for _, i, m, j in lowest:
        member, axes = copies[i][m]
        columns.append(member.unfold(sectors[i].transpose(vectors[i][:, j], axes)))
    vecs = np.stack(columns, axis=1)
    want = _block_residuals(grid, W, vecs, spec.eigenvalues) / np.linalg.norm(vecs, axis=0)
    err = float(np.max(np.abs(spec.residuals - want)))
    assert err <= 1e-12 * np.max(spec.eigenvalues), (err, spec.residuals, want)


def test_spectrum_holds_one_full_grid_eigenvector_at_a_time():
    # the traced peak of the gs3d spectrum (k = 4), above what is held when
    # it is called, in 64^3 float64 fields of 2 MiB: 21.6 fields (43.3 MiB)
    # with the (n^3, k) residual block, 8.8 fields (17.6 MiB) one at a time,
    # 7.7 fields (15.5 MiB) with the start guesses built on the octant and
    # each certified field dropped before the next is unfolded
    grid, _, phi = _gs3d_case()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        hgp_spectrum(grid, TRAP, 100.0, phi, k=4)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    fields = peak / (8 * grid.n ** 3)
    assert fields <= 10.0, fields


def test_spectrum_requires_two_levels():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 0.0, tol=1e-8)
    with pytest.raises(ValueError, match="two eigenvalues"):
        hgp_spectrum(grid, TRAP, 0.0, res.field, k=1)


# ---------------------------------------------------------------------------
# Scaling-law diagnostics
# ---------------------------------------------------------------------------


def test_linf_diagnostics_1d():
    grid = make_grid(1, 512, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-8)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    rep = linf_diagnostics(res.field, TRAP, inter, 5.0)
    assert rep.linf == pytest.approx(norm(res.field, "Linf"), rel=1e-14)
    assert rep.scaled_linf is None  # 3D exponents only
    iv = inter.integral(1)
    assert rep.tf_reference == pytest.approx(
        math.sqrt(tf_minimize(TRAP, iv, 1).mu / iv), rel=1e-13
    )
    with pytest.raises(ValueError, match="positive"):
        linf_diagnostics(res.field, TRAP, inter, 0.0)


def test_tf_profile_distance_shrinks_with_g():
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    iv = inter.integral(1)
    dists = []
    for g in (100.0, 1000.0):
        G = g * iv
        L = max(1.6 * tf_minimize(TRAP, G, 1).radius, 8.0)
        grid = make_grid(1, 2048, L)
        res = gp_minimize(grid, TRAP, G, tol=1e-8)
        dists.append(tf_profile_distance(res.field, TRAP, inter, g))
    assert dists[1] < dists[0] < 0.05


def test_interaction_gap_bound_holds():
    grid = make_grid(1, 4096, 8.0)
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-8)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    gap = interaction_gap(res.field, inter)
    reps = [gap(N) for N in (64, 256, 1024, 4096)]
    for rep in reps:
        assert rep.measured < rep.bound
        assert rep.ratio < 0.5
    meas = [r.measured for r in reps]
    assert meas == sorted(meas, reverse=True)  # decays with N


def test_interaction_gap_resolution_guard():
    grid = make_grid(1, 512, 8.0)  # h = 1/32
    res = gp_minimize(grid, TRAP, 20.0, tol=1e-7)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    with pytest.raises(ValueError, match="resolve"):
        interaction_gap(res.field, inter)(10 ** 6)
    # a particle number below 1 has no kernel range
    for N in (0, -64):
        with pytest.raises(ValueError, match=">= 1"):
            interaction_gap(res.field, inter)(N)

