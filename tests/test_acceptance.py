"""Acceptance suite: twelve end-to-end checks with pinned tolerances.

Each test prints one ``[criterion NN] PASS/FAIL - detail`` line (visible under
``pytest -s``) and asserts the same flag, so the verbose test listing doubles
as the acceptance report.  Budgets are wall-clock and generous; the numerical
tolerances are the contract.
"""

import math
import time

import numpy as np

from tfcond.dynamics import strichartz_check
from tfcond.grids import make_grid
from tfcond.groundstate import gp_minimize, hgp_spectrum, tf_minimize
from tfcond.harness import StudySpec, run_study
from tfcond.manybody import (
    ModeBasis,
    build,
    evolve_and_track,
    hartree_from_hamiltonian,
    product_state,
    verify_appendix,
    verify_gap_chain,
)
from tfcond.model import InteractionSpec, RegimeParams, scattering_length, TrapSpec

SWEEP_G = (10.0, 30.0, 100.0, 300.0, 1000.0)
N_SWEEP = (64, 128, 256, 512, 1024, 2048, 4096)


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def _check(result, name):
    for c in result.checks:
        if c.name == name:
            return c
    raise AssertionError(f"study produced no check named {name!r}")


def test_criterion_01_harmonic_exactness():
    t0 = time.perf_counter()
    grid = make_grid(3, 64, 8.0)
    trap = TrapSpec(strength=1.0, s=2.0)
    res = gp_minimize(grid, trap, 0.0)
    spec = hgp_spectrum(grid, trap, 0.0, res.field, k=4)
    elapsed = time.perf_counter() - t0
    e_err = abs(res.energy - 3.0)
    s_err = float(np.max(np.abs(spec.eigenvalues - np.array([3.0, 5.0, 5.0, 5.0]))))
    ok = e_err <= 1e-6 and s_err <= 1e-6 and spec.converged and elapsed < 120.0
    assert _line(
        1,
        ok,
        f"|E-3|={e_err:.2e}, max|spectrum-(3,5,5,5)|={s_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_tf_closed_form():
    t0 = time.perf_counter()
    prof = tf_minimize(TrapSpec(strength=1.0, s=2.0), 8.0 * math.pi / 15.0)
    elapsed = time.perf_counter() - t0
    mu_err = abs(prof.mu - 1.0)
    mass_err = abs(prof.mass - 1.0)
    ok = mu_err <= 1e-10 and mass_err <= 1e-10 and elapsed < 1.0
    assert _line(
        2, ok, f"|mu-1|={mu_err:.2e}, |mass-1|={mass_err:.2e}, {elapsed:.3f}s"
    )


def test_criterion_03_gap_scaling():
    t0 = time.perf_counter()
    res = run_study(StudySpec(kind="gap_vs_g", values=SWEEP_G, half_width=10.0))
    elapsed = time.perf_counter() - t0
    pos = _check(res, "gap_scaling_positive")
    flat = _check(res, "gap_scaling_flat")
    ok = res.passed and elapsed < 1800.0
    assert _line(
        3,
        ok,
        f"min scaled gap={pos.value:.4f}, spread={flat.value:.3f} (<3), {elapsed:.0f}s",
    )


def test_criterion_04_linf_scaling():
    t0 = time.perf_counter()
    res = run_study(StudySpec(kind="linf_vs_g", values=SWEEP_G, half_width=10.0))
    elapsed = time.perf_counter() - t0
    plateau = _check(res, "linf_plateau")
    grad = _check(res, "grad_linf_bounded")
    ok = res.passed and elapsed < 1800.0
    assert _line(
        4,
        ok,
        f"plateau rel err={plateau.value:.4f} (<0.10), "
        f"grad growth={grad.value:.3f} (<3), {elapsed:.0f}s",
    )


def test_criterion_05_tf_convergence():
    res = run_study(
        StudySpec(kind="tf_convergence", values=(1e2, 1e3, 1e4), half_width=13.0)
    )
    dists = [r["distance"] for r in res.rows]
    ok = res.passed
    assert _line(
        5, ok, "sup distances " + " > ".join(f"{d:.4f}" for d in dists)
    )


def test_criterion_06_smearing_rate():
    t0 = time.perf_counter()
    res1 = run_study(StudySpec(kind="lemma26_vs_N", values=N_SWEEP, grid_d=1))
    res3 = run_study(StudySpec(kind="lemma26_vs_N", values=N_SWEEP, grid_d=3))
    elapsed = time.perf_counter() - t0
    s1 = _check(res1, "smearing_rate").value
    s3 = _check(res3, "smearing_rate").value
    ok = res1.passed and res3.passed and elapsed < 300.0
    assert _line(
        6,
        ok,
        f"slope 1D={s1:.3f}, 3D={s3:.3f} (<=-0.15), bounds hold, {elapsed:.0f}s",
    )


def test_criterion_07_dynamics_rate():
    t0 = time.perf_counter()
    res = run_study(StudySpec(kind="hgp_rate_vs_N", values=N_SWEEP, grid_d=1))
    elapsed = time.perf_counter() - t0
    slope = _check(res, "convergence_rate").value
    drift = _check(res, "mass_conserved").value
    order = _check(res, "splitting_order").value
    ok = res.passed and elapsed < 600.0
    assert _line(
        7,
        ok,
        f"slope={slope:.3f} (<=-0.05), drift={drift:.1e}, "
        f"splitting order={order:.3f}, {elapsed:.0f}s",
    )


def test_criterion_08_appendix_exactness():
    t0 = time.perf_counter()
    rep1 = verify_appendix(4, 3, 200, seed=0)
    rep2 = verify_appendix(6, 2, 200, seed=1)
    elapsed = time.perf_counter() - t0
    v1 = sum(rep1.violations.values())
    v2 = sum(rep2.violations.values())
    ok = rep1.passed and rep2.passed and v1 == 0 and v2 == 0 and elapsed < 120.0
    assert _line(
        8, ok, f"violations (4,3)={v1}, (6,2)={v2} at 1e-10, {elapsed:.1f}s"
    )


def test_criterion_09_counting_rate_identity():
    t0 = time.perf_counter()
    grid = make_grid(1, 64, 8.0)
    modes = ModeBasis.harmonic(grid, 4)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    reg = RegimeParams(N=4, beta=0.2, g_N=0.1, lambda_weight=0.5)
    H = build(modes, TrapSpec(strength=1.0, s=2.0), inter, reg)
    phi0 = np.zeros(4, dtype=complex)
    phi0[0] = 1.0
    psi0 = product_state(H.sector, phi0)
    rep = evolve_and_track(
        psi0, H, phi0, hartree_from_hamiltonian(H), np.linspace(0.0, 0.5, 11), 0.5
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep.max_rate_mismatch < 1e-6
        and rep.sandwich_violations == 0
        and rep.bound_violations == 0
        and elapsed < 300.0
    )
    assert _line(
        9,
        ok,
        f"max|d(alpha)/dt - rate|={rep.max_rate_mismatch:.1e}, "
        f"sandwich/bound violations={rep.sandwich_violations}/{rep.bound_violations}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_gap_chain():
    grid = make_grid(1, 64, 8.0)
    modes = ModeBasis.harmonic(grid, 3)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    reg = RegimeParams(N=3, beta=0.2, g_N=0.5, lambda_weight=0.5)
    H = build(modes, TrapSpec(strength=1.0, s=2.0), inter, reg)
    rep = verify_gap_chain(H, lam=0.5, samples=100, seed=0)
    ok = rep.min_eig_chain >= -1e-10 and rep.passed
    assert _line(10, ok, f"min eigenvalue of the gap chain = {rep.min_eig_chain:.1e}")


def test_criterion_11_strichartz():
    grid = make_grid(3, 16, 8.0)
    rng = np.random.default_rng(7)
    mask = grid.k2 <= 1.0
    samples = []
    for _ in range(100):
        f = np.empty((17,) + grid.shape, dtype=complex)
        for j in range(17):
            w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            f[j] = np.fft.ifftn(np.fft.fftn(w) * mask)
        samples.append(f)
    rep = strichartz_check(grid, samples, 1.0)
    ok = rep.violations == 0
    assert _line(
        11, ok, f"0/100 violations, max ratio={rep.max_ratio:.3f}"
    )


def test_criterion_12_born_limit():
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    res = scattering_length(inter, 1e-3)
    coarse = scattering_length(inter, 1e-3, mesh=2048)
    ratio = res.a / res.a_born
    agree = abs(res.a - coarse.a)
    ok = 0.99 <= ratio <= 1.01 and agree <= 1e-6 * abs(res.a)
    assert _line(
        12, ok, f"a/a_born={ratio:.6f}, mesh agreement={agree / abs(res.a):.1e} rel"
    )
