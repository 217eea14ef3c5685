"""Tests for the spectral grid/field layer."""

import numpy as np
import pytest

from tfcond.grids import Field, apply_symbol, make_grid, norm, normalize
from tfcond.groundstate import _grad_linf


def sampled(grid, fn):
    """fn(*coords) on the grid, as a Field."""
    return Field(grid, fn(*grid.coords()))


def random_field(grid, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


def test_wavenumber_layout():
    g = make_grid(1, 8, 1.0)
    expected = np.pi * np.array([0, 1, 2, 3, -4, -3, -2, -1], dtype=float)
    np.testing.assert_allclose(g.k_axis, expected, rtol=0, atol=1e-15)
    assert g.h == pytest.approx(0.25)
    assert g.x_axis[0] == -1.0 and g.x_axis[-1] == pytest.approx(0.75)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_k2_half_is_the_rfft_slice_of_k2(d):
    # built from the axis wavenumbers without the full n^d |k|^2, in the same
    # order of operations, so it keeps its bits
    g = make_grid(d, 16, 3.0)
    half = g.k2_half
    assert "k2" not in vars(g)
    assert half.flags.c_contiguous
    assert np.array_equal(half, g.k2[..., : g.n // 2 + 1])


@pytest.mark.parametrize(
    "d,n,L",
    [(0, 8, 1.0), (4, 8, 1.0), (2, 12, 1.0), (1, 4, 1.0), (1, 8, 0.0), (1, 8, -2.0)],
)
def test_grid_validation(d, n, L):
    with pytest.raises(ValueError):
        make_grid(d, n, L)


def test_l2_gaussian_analytic():
    # integral of exp(-x^2) over R is sqrt(pi)
    g = make_grid(1, 256, 8.0)
    f = sampled(g, lambda x: np.exp(-(x ** 2) / 2.0))
    assert norm(f, "L2") == pytest.approx(np.pi ** 0.25, rel=1e-12)


def test_l4_and_linf_gaussian():
    # ||f||_4^4 = integral exp(-2 x^2) = sqrt(pi/2) for f = exp(-x^2/2)
    g = make_grid(1, 256, 8.0)
    f = sampled(g, lambda x: np.exp(-(x ** 2) / 2.0))
    assert norm(f, "L4") == pytest.approx((np.pi / 2.0) ** 0.125, rel=1e-12)
    assert norm(f, "Linf") == pytest.approx(1.0, rel=0, abs=1e-14)
    with pytest.raises(ValueError):
        norm(f, "L7")


def test_plane_wave_sobolev_norms():
    # f = exp(i pi x) on [-1, 1): ||f||_2^2 = 2, gradient adds pi^2 per unit mass
    g = make_grid(1, 64, 1.0)
    f = sampled(g, lambda x: np.exp(1j * np.pi * x))
    l2sq = norm(f, "L2") ** 2
    assert l2sq == pytest.approx(2.0, rel=1e-13)
    assert norm(f, "H1") ** 2 == pytest.approx(l2sq * (1 + np.pi ** 2), rel=1e-12)
    assert norm(f, "H2") ** 2 == pytest.approx(
        l2sq * (1 + np.pi ** 2 + np.pi ** 4), rel=1e-12
    )


def test_spectral_derivatives_exact_on_plane_wave():
    g = make_grid(2, 32, 2.0)
    kx, ky = 3 * np.pi / 2.0, -2 * np.pi / 2.0  # multiples of pi/L
    f = sampled(g, lambda x, y: np.exp(1j * (kx * x + ky * y)))
    lap = np.fft.ifftn(-g.k2 * np.fft.fftn(f.values))
    np.testing.assert_allclose(
        lap, -(kx ** 2 + ky ** 2) * f.values, rtol=1e-12, atol=1e-12
    )
    # |grad f| = |k| at every point of a unit plane wave
    assert _grad_linf(f) == pytest.approx(np.hypot(kx, ky), rel=1e-12)


def test_convolve_with_grid_delta_is_identity():
    rng = np.random.default_rng(3)
    g = make_grid(2, 16, 2.0)
    delta = np.zeros(g.shape)
    delta[g.n // 2, g.n // 2] = 1.0 / g.dv  # unit-mass spike at x = 0
    f = random_field(g, rng)
    out = apply_symbol(g.kernel_symbol(delta), f.values)
    np.testing.assert_allclose(out, f.values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_convolve_gaussians_analytic(d):
    # exp(-|x|^2) * exp(-|x|^2) = (pi/2)^{d/2} exp(-|x|^2/2)
    g = make_grid(d, 128 if d == 1 else 64, 8.0)
    ker = sampled(g, lambda *xs: np.exp(-sum(x ** 2 for x in xs)))
    out = apply_symbol(g.kernel_symbol(ker.values), ker.values.real)
    expected = sampled(
        g, lambda *xs: (np.pi / 2.0) ** (d / 2.0) * np.exp(-sum(x ** 2 for x in xs) / 2.0)
    )
    np.testing.assert_allclose(out, expected.values.real, rtol=0, atol=1e-8)


def test_convolve_matches_direct_periodic_sum():
    # brute-force periodic quadrature as an independent route
    rng = np.random.default_rng(11)
    g = make_grid(1, 128, 4.0)
    x = g.x_axis
    ker = sampled(g, lambda xx: np.exp(-(xx ** 2)))
    f = random_field(g, rng)
    diff = x[:, None] - x[None, :]
    wrapped = (diff + g.half_width) % (2 * g.half_width) - g.half_width
    direct = g.h * np.exp(-(wrapped ** 2)) @ f.values
    out = apply_symbol(g.kernel_symbol(ker.values), f.values)
    np.testing.assert_allclose(out, direct, rtol=1e-11, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_apply_symbol_complex_field_matches_c2c(d):
    # a complex field goes through as its real and imaginary parts; the
    # oracle is the complex-to-complex multiplier, also with a batch axis
    rng = np.random.default_rng(11 + d)
    g = make_grid(d, 16, 3.0)
    u = rng.standard_normal(g.shape + (2,)) + 1j * rng.standard_normal(g.shape + (2,))
    axes = tuple(range(d))
    k2 = g.k2[..., None]
    ref = np.fft.ifftn(k2 * np.fft.fftn(u, axes=axes), axes=axes)
    got = apply_symbol(g.k2_half, u)
    assert got.dtype == np.complex128 and got.shape == u.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    one = apply_symbol(g.k2_half, u[..., 0])
    assert np.max(np.abs(one - ref[..., 0])) <= 1e-12 * np.max(np.abs(ref))


def test_normalize_and_inner():
    rng = np.random.default_rng(9)
    g = make_grid(1, 64, 4.0)
    f = normalize(random_field(g, rng))
    assert norm(f, "L2") == pytest.approx(1.0, rel=1e-13)
    assert np.vdot(f.values, f.values) * g.dv == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError):
        normalize(Field(g, np.zeros(g.shape)))


def test_field_arithmetic_and_compat():
    # fields combine through their values; samples must match the grid
    rng = np.random.default_rng(2)
    g = make_grid(1, 64, 4.0)
    f, h = random_field(g, rng), random_field(g, rng)
    assert norm(Field(g, f.values + h.values), "L2") <= norm(f, "L2") + norm(h, "L2")
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.zeros(128))


def test_boundary_shell_mask():
    g = make_grid(1, 8, 1.0)
    np.testing.assert_array_equal(
        g.boundary_shell, [True, True, False, False, False, False, True, True]
    )
