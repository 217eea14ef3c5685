"""Tests for model parameters, the regime window, and scattering."""

import math

import numpy as np
import pytest

from tfcond.grids import make_grid
from tfcond.model import (
    InteractionSpec,
    RegimeParams,
    TrapSpec,
    _take,
    admissibility,
    check_assumption1,
    scattering_length,
    sphere_area,
)


def test_sphere_areas():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)


def test_trap_spec():
    trap = TrapSpec(strength=2.0, s=4.0)
    assert trap.radial(2.0) == pytest.approx(32.0)
    g = make_grid(1, 8, 1.0)
    np.testing.assert_allclose(trap.on_grid(g), 2.0 * g.x_axis ** 4)
    with pytest.raises(ValueError):
        TrapSpec(strength=0.0)
    with pytest.raises(ValueError):
        TrapSpec(s=1.5)


def test_interaction_closed_form_moments():
    v = InteractionSpec("gaussian", beta=0.2)
    # integral of exp(-r^2) over R^d is pi^{d/2}
    for d in (1, 2, 3):
        assert v.integral(d) == pytest.approx(math.pi ** (d / 2.0), rel=1e-10)
    # integral |x| exp(-|x|^2) over R^3 = 4 pi * Gamma(2)/2 = 2 pi
    assert v.first_moment(3) == pytest.approx(2 * math.pi, rel=1e-10)
    # ||v||_2 = (pi/2)^{d/4}
    assert v.l2_norm(3) == pytest.approx((math.pi / 2.0) ** 0.75, rel=1e-10)
    assert v.v0() == 1.0


def test_hollow_profile_moments():
    v = InteractionSpec("hollow_gaussian", beta=0.2)
    # integral (1 - r^2) exp(-r^2) over R^3 = -pi^{3/2}/2
    assert v.integral(3) == pytest.approx(-0.5 * math.pi ** 1.5, rel=1e-10)


# the profiles written out directly: the oracle of the bits that
# InteractionSpec.radial gives from the table of coefficients
_LAMBDA_PROFILES = {
    "gaussian": lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
    "hollow_gaussian": lambda r: (1.0 - np.asarray(r, dtype=float) ** 2)
    * np.exp(-np.asarray(r, dtype=float) ** 2),
    "zero": lambda r: np.zeros_like(np.asarray(r, dtype=float)),
}


@pytest.mark.parametrize("profile", sorted(_LAMBDA_PROFILES))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_moments_match_radial_quadrature(profile, d):
    # quad is the oracle of the closed forms
    from scipy.integrate import quad

    v = InteractionSpec(profile, beta=0.2)

    def radial(fn):
        return sphere_area(d) * quad(fn, 0.0, np.inf, limit=200)[0]

    pairs = [
        (v.integral(d), radial(lambda r: v.radial(r) * r ** (d - 1))),
        (v.first_moment(d), radial(lambda r: abs(v.radial(r)) * r ** d)),
        (v.l2_norm(d), math.sqrt(radial(lambda r: v.radial(r) ** 2 * r ** (d - 1)))),
    ]
    for closed, oracle in pairs:
        # the zero profile and the hollow profile's 2D integral are exactly 0
        assert closed == pytest.approx(oracle, rel=1e-13, abs=1e-13 if closed == 0 else 0)


def test_moments_hold_their_exact_bits():
    assert InteractionSpec("hollow_gaussian").integral(2) == 0.0
    assert InteractionSpec("gaussian").integral(1) == math.sqrt(math.pi)


@pytest.mark.parametrize("profile", sorted(_LAMBDA_PROFILES))
def test_kernel_on_grid_keeps_the_lambda_bits(profile):
    v = InteractionSpec(profile, beta=0.2)
    for grid, N in ((make_grid(1, 64, 8.0), 64), (make_grid(3, 16, 3.0), 512)):
        r = np.sqrt(grid.r2)
        expected = float(N) ** (grid.d * 0.2) * _LAMBDA_PROFILES[profile](float(N) ** 0.2 * r)
        np.testing.assert_array_equal(v.kernel_on_grid(grid, N).values, expected.astype(complex))


def test_kernel_on_grid_scaling():
    v = InteractionSpec("gaussian", beta=0.25)
    g = make_grid(1, 256, 8.0)
    N = 16
    ker = v.kernel_on_grid(g, N)
    # value at x=0 is N^{d beta}, mass is integral(v) independent of N
    assert ker.values[g.n // 2].real == pytest.approx(16 ** 0.25, rel=1e-12)
    assert g.h * np.sum(ker.values).real == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_interaction_validation():
    with pytest.raises(ValueError):
        InteractionSpec("nonexistent")
    with pytest.raises(ValueError):
        InteractionSpec("gaussian", beta=0.4)


def test_admissibility_gn_exponents():
    # at s = 2, beta = 0.2: (1 - 3b)(s + 3)/(s + 5) = 2/7 and (s + 3) b / (2 (s + 1)) = 1/6
    rep = admissibility(TrapSpec(strength=1.0, s=2.0), RegimeParams(N=10_000, beta=0.2, g_N=1.0))
    np.testing.assert_allclose(rep.gn_exponents, (2.0 / 7.0, 1.0 / 6.0), rtol=1e-12)
    # the margins are g_N / N^e for those exponents
    np.testing.assert_allclose(rep.thm1_margins, [10_000 ** -e for e in rep.gn_exponents])


def test_gn_exponents_positive_in_valid_range():
    trap = TrapSpec(s=3.0)
    for beta in np.linspace(0.02, 0.33, 12):
        reg = RegimeParams(N=100, beta=float(beta), g_N=1.0)
        e1, e2 = admissibility(trap, reg).gn_exponents
        if beta < 1 / 3:
            assert e1 > 0 and e2 > 0


def test_admissibility_report():
    trap = TrapSpec(s=2.0)
    rep = admissibility(trap, RegimeParams(N=10 ** 6, beta=0.2, g_N=5.0))
    # margins g / N^{2/7} and g / N^{1/6}
    assert rep.thm1_margins[1] == pytest.approx(5.0 / 10.0, rel=1e-12)
    assert rep.thm1_ok
    assert not rep.thm2_ok  # beta = 0.2 >= 1/6

    rep2 = admissibility(trap, RegimeParams(N=10 ** 6, beta=0.4, g_N=5.0))
    assert not rep2.thm1_ok

    rep3 = admissibility(
        trap, RegimeParams(N=1000, beta=0.1, g_N=1.0, lambda_weight=0.5)
    )
    assert rep3.lambda_interval == pytest.approx((0.3, 0.7))
    assert rep3.thm2_ok

    rep4 = admissibility(trap, RegimeParams(N=1000, beta=0.1, g_N=1.0))
    assert not rep4.thm2_ok  # no counting exponent supplied


def test_check_assumption1_gaussian_passes():
    grid = make_grid(3, 32, 8.0)
    rep = check_assumption1(InteractionSpec("gaussian"), grid)
    assert rep.nonzero and rep.positive_type and rep.symmetric and rep.tail_ok
    assert rep.ok
    assert rep.first_moment == pytest.approx(2 * math.pi, rel=1e-9)
    assert rep.min_fourier_coeff >= -1e-12


def test_check_assumption1_rejects_sign_changing_transform():
    grid = make_grid(3, 32, 8.0)
    rep = check_assumption1(InteractionSpec("hollow_gaussian"), grid)
    assert rep.nonzero and rep.symmetric
    assert not rep.positive_type
    assert rep.min_fourier_coeff < 0
    assert not rep.ok


def test_check_assumption1_rejects_zero_profile():
    grid = make_grid(1, 64, 8.0)
    rep = check_assumption1(InteractionSpec("zero"), grid)
    assert not rep.nonzero
    assert not rep.ok


def test_scattering_free_case_gives_zero():
    res = scattering_length(InteractionSpec("gaussian"), kappa=0.0)
    assert abs(res.a) < 1e-12
    assert res.a_born == 0.0


def test_scattering_born_regime():
    res = scattering_length(InteractionSpec("gaussian"), kappa=1e-3)
    assert res.a_born == pytest.approx(1e-3 * math.sqrt(math.pi) / 8.0, rel=1e-12)
    # frozen reference from tests/oracles/scattering_oracle.py (DOP853 route)
    assert res.a == pytest.approx(2.215175725365e-04, rel=1e-8)
    assert 0.99 <= res.a / res.a_born <= 1.01


def test_scattering_moderate_coupling():
    res = scattering_length(InteractionSpec("gaussian"), kappa=1.0)
    # frozen reference from tests/oracles/scattering_oracle.py
    assert res.a == pytest.approx(1.885034999349e-01, rel=1e-8)
    # repulsive potential: true a below Born approximation
    assert res.a < res.a_born
    # profile f = u/r approaches 1 - a/r
    assert res.f[-1] == pytest.approx(1.0 - res.a / res.r[-1], rel=1e-8)


def test_scattering_mesh_and_range_guards():
    with pytest.raises(ValueError):
        scattering_length(InteractionSpec("gaussian"), kappa=1.0, r_max=2.0)
    with pytest.raises(ValueError):
        scattering_length(InteractionSpec("gaussian"), kappa=1.0, mesh=32)


def test_effective_scattering_ratio_decreases_with_n():
    # ratio (a of g v_N) / N^{-beta} equals a(kappa_eff) with kappa_eff = g N^{beta-1}
    inter = InteractionSpec("gaussian", beta=0.2)
    ratios = []
    for N in (10, 100, 1000):
        kappa_eff = 1.0 * N ** (inter.beta - 1.0)
        ratios.append(scattering_length(inter, kappa_eff).a)
    assert ratios[0] > ratios[1] > ratios[2] > 0


def test_take_types_values_by_their_defaults():
    schema = {"grid": {"n": 64, "half_width": 8.0}, "name": "x", "any": None, "opt": float}
    out = _take({"grid": {"n": 32.0, "half_width": 3}, "any": [1]}, "config", schema)
    assert out == {"grid": {"n": 32, "half_width": 3.0}, "name": "x", "any": [1], "opt": None}
    assert type(out["grid"]["n"]) is int and type(out["grid"]["half_width"]) is float
    assert _take({"opt": 2, "name": None}, "config", schema)["opt"] == 2.0
    bad = [
        ({"grid": 5}, "grid block must be a JSON object"),
        ({"grid": {"n": 64.9}}, "'n' must be of type int"),
        ({"grid": {"n": True}}, "'n' must be of type int"),
        ({"grid": {"half_width": False}}, "'half_width' must be of type float"),
        ({"grid": {"half_width": "8"}}, "'half_width' must be of type float"),
        ({"name": 3}, "'name' must be of type str"),
        ({"opt": "1"}, "'opt' must be of type float"),
        ({"grid": {"n": 10**400}}, "'n' must be finite"),
        ({"grid": {"half_width": 10**400}}, "'half_width' must be finite"),
        ({"grid": {"m": 1}}, r"unknown grid key\(s\): \['m'\]"),
        ({"zzz": 1}, r"unknown config key\(s\): \['zzz'\]"),
    ]
    for block, message in bad:
        with pytest.raises(ValueError, match=message):
            _take(block, "config", schema)

