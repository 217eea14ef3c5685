"""Tests for the split-step propagators, distance bounds, and dispersive checks."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import fft as sfft

from tfcond import dynamics as dyn
from tfcond.dynamics import (
    PropagatorConfig,
    compare_h_vs_gp,
    lp_norm,
    propagate,
    sobolev_monitor,
    strichartz_check,
)
from tfcond.grids import Field, make_grid, norm, normalize
from tfcond.groundstate import gp_minimize
from tfcond.model import InteractionSpec, TrapSpec

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def gaussian_packet(grid, a=1.0):
    # unit-mass Gaussian, exact free evolution known in closed form
    vals = (np.pi * a) ** (-grid.d / 4) * np.exp(-grid.r2 / (2 * a))
    return Field(grid, vals.astype(complex))


def distance(f, h):
    """||f - h||_2 of two fields on one grid."""
    return norm(Field(f.grid, f.values - h.values), "L2")


def free_gaussian_at(grid, a, t):
    b = a + 2j * t
    vals = (np.pi * a) ** (-grid.d / 4) * (a / b) ** (grid.d / 2) * np.exp(
        -grid.r2 / (2 * b)
    )
    return Field(grid, vals)


# --- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        PropagatorConfig(dt=0.0)
    with pytest.raises(ValueError, match="t_final"):
        PropagatorConfig(dt=1e-3, t_final=-1.0)
    with pytest.raises(ValueError, match="record_every"):
        PropagatorConfig(dt=1e-3, record_every=0)
    # a run that steps nothing, or a step that is not finite, is refused
    for dt, t_final in ((np.inf, 1.0), (np.nan, 1.0), (1e-3, 0.0), (1e-3, np.inf), (1e-3, np.nan)):
        with pytest.raises(ValueError, match="dt" if t_final == 1.0 else "t_final"):
            PropagatorConfig(dt=dt, t_final=t_final)


# --- propagator accuracy -----------------------------------------------------


def test_free_gaussian_dispersion_1d():
    grid = make_grid(1, 512, 20.0)
    phi0 = gaussian_packet(grid)
    trace = propagate(phi0, 0.0, PropagatorConfig(dt=1e-3, t_final=1.0))
    exact = free_gaussian_at(grid, 1.0, 1.0)
    assert distance(trace.final, exact) < 1e-6


def test_free_gaussian_dispersion_3d():
    grid = make_grid(3, 32, 8.0)
    phi0 = gaussian_packet(grid)
    trace = propagate(phi0, 0.0, PropagatorConfig(dt=1e-3, t_final=0.4))
    exact = free_gaussian_at(grid, 1.0, 0.4)
    assert distance(trace.final, exact) < 1e-6


def test_plane_wave_constant_state_phase_rotation():
    # constant density on the torus: |phi| fixed, phase rotates at G*rho
    grid = make_grid(1, 256, 10.0)
    rho = 1.0 / (2 * grid.half_width)
    vals = np.full(grid.shape, np.sqrt(rho), dtype=complex)
    phi0 = Field(grid, vals)
    G = 3.0
    trace = propagate(phi0, G, PropagatorConfig(dt=1e-3, t_final=0.5))
    exact = vals * np.exp(-1j * G * rho * 0.5)
    assert np.max(np.abs(trace.final.values - exact)) < 1e-12


def test_mass_and_energy_conservation():
    grid = make_grid(1, 1024, 12.0)
    x = grid.coords()[0]
    phi0 = normalize(Field(grid, np.exp(-x**2 / 2) * (1 + 0.3 * np.cos(x))))
    trace = propagate(phi0, 5.0, PropagatorConfig(dt=2.5e-4, t_final=0.5, record_every=50))
    assert trace.mass_drift < 1e-12
    assert np.max(np.abs(trace.e_free - trace.e_free[0])) < 1e-6
    assert trace.times[-1] == pytest.approx(0.5, abs=1e-14)


def test_strang_order_two():
    grid = make_grid(1, 512, 12.0)
    x = grid.coords()[0]
    phi0 = normalize(Field(grid, np.exp(-x**2 / 2) * (1 + 0.3 * np.cos(x))))
    ref = propagate(phi0, 1.0, PropagatorConfig(dt=0.1 / 2**7, t_final=0.1)).final
    errs = []
    for k in (1, 2, 3):
        out = propagate(phi0, 1.0, PropagatorConfig(dt=0.1 / 2**k, t_final=0.1)).final
        errs.append(distance(out, ref))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for s in slopes:
        assert abs(s - 2.0) < 0.1


def test_time_reversal():
    # conjugation swaps the direction of time for real potentials
    grid = make_grid(1, 512, 12.0)
    x = grid.coords()[0]
    phi0 = normalize(Field(grid, np.exp(-x**2 / 2) * (1 + 0.2j * np.sin(x))))
    cfg = PropagatorConfig(dt=1e-3, t_final=0.2)
    fwd = propagate(phi0, 1.5, cfg).final
    back = propagate(Field(grid, np.conj(fwd.values)), 1.5, cfg).final
    err = norm(Field(grid, np.conj(back.values) - phi0.values), "L2")
    assert err < 1e-10


def test_gauge_invariance():
    grid = make_grid(1, 512, 12.0)
    phi0 = gaussian_packet(grid)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.2, record_every=20)
    tr_a = propagate(phi0, 2.0, cfg)
    shifted = Field(grid, phi0.values * np.exp(0.7j))
    tr_b = propagate(shifted, 2.0, cfg)
    for name in ("mass", "e_free", "h1", "h2", "linf"):
        assert np.max(np.abs(getattr(tr_a, name) - getattr(tr_b, name))) < 1e-12
    rotated = Field(grid, tr_a.final.values * np.exp(0.7j))
    assert distance(tr_b.final, rotated) < 1e-12


# --- the fast step against the plain reference step -------------------------


def _reference_flow(phi0, cfg, w_of):
    """Reference Strang loop: np.exp phases and c2c transforms throughout.

    Returns the final values and the mass and e_free records of a trap-free
    run with cfg.dt dividing cfg.t_final; w_of(rho) gives the potential.
    """
    grid = phi0.grid
    dt = cfg.dt
    nsteps = int(round(cfg.t_final / dt))
    kin_phase = np.exp(-1j * dt * grid.k2)
    half = -0.5j * dt
    vals = phi0.values.astype(complex).copy()
    mass, e_free = [], []

    def record(w):
        rho = np.abs(vals) ** 2
        hat = np.fft.fftn(vals, norm="ortho")
        kin = np.sum(grid.k2 * np.abs(hat) ** 2) * grid.dv
        mass.append(np.sum(rho) * grid.dv)
        e_free.append(kin + np.sum(0.5 * w * rho) * grid.dv)

    w = w_of(np.abs(vals) ** 2)
    record(w)
    pending_half = True
    for j in range(1, nsteps + 1):
        vals *= np.exp((half if pending_half else 2 * half) * w)
        vals = np.fft.ifftn(kin_phase * np.fft.fftn(vals))
        w = w_of(np.abs(vals) ** 2)
        if j % cfg.record_every == 0 or j == nsteps:
            vals *= np.exp(half * w)
            w = w_of(np.abs(vals) ** 2)
            record(w)
            pending_half = True
        else:
            pending_half = False
    return vals, np.array(mass), np.array(e_free)


def _reference_hartree_w(kernel, g):
    khat = np.fft.fftn(np.fft.ifftshift(kernel.values)) * kernel.grid.dv
    return lambda rho: g * np.fft.ifftn(khat * np.fft.fftn(rho)).real


@pytest.mark.parametrize("d, n, half_width, t_final", [(1, 512, 8.0, 0.2), (3, 16, 4.0, 0.02)])
@pytest.mark.parametrize("flow", ["gp", "hartree", "shifted_kernel"])
def test_step_matches_reference_loop(d, n, half_width, t_final, flow):
    grid = make_grid(d, n, half_width)
    x = grid.coords()[0]
    phi0 = normalize(
        Field(grid, np.exp(-grid.r2 / 2) * (1 + 0.3 * np.cos(x) + 0.2j * np.sin(x)))
    )
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    g, N = 4.0, 64
    cfg = PropagatorConfig(dt=1e-3, t_final=t_final, record_every=50)
    if flow == "gp":
        big_g = g * inter.integral(d)
        w_of = lambda rho: big_g * rho  # noqa: E731
        trace = propagate(phi0, big_g, cfg)
    else:
        if flow == "hartree":
            kernel = inter.kernel_on_grid(grid, N)
        else:
            # a real kernel that is not even: its symbol is complex
            kernel = Field(grid, np.exp(-((x - 0.5) ** 2) - grid.r2))
        w_of = _reference_hartree_w(kernel, g)
        trace = propagate(phi0, g, cfg, kernel)
    vals, mass, e_free = _reference_flow(phi0, cfg, w_of)
    assert np.max(np.abs(trace.final.values - vals)) < 1e-12
    assert np.max(np.abs(trace.mass - mass)) < 1e-12
    assert np.max(np.abs(trace.e_free - e_free)) < 1e-12
    assert len(trace.times) == len(mass)


def test_complex_kernel_rejected():
    grid = make_grid(1, 256, 10.0)
    phi0 = gaussian_packet(grid)
    kernel = Field(grid, np.exp(-grid.r2) * (1 + 1e-3j))
    cfg = PropagatorConfig(dt=1e-3, t_final=0.01)
    with pytest.raises(ValueError, match="real"):
        propagate(phi0, 1.0, cfg, kernel)


# --- a sweep's stacked convolution flows against one flow per N -------------

_TRACE_ARRAYS = ("times", "mass", "e_free", "h1", "h2", "linf")


def _assert_same_trace(a, b):
    for name in _TRACE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.dt == b.dt
    assert np.array_equal(a.final.values, b.final.values)


@pytest.mark.parametrize("d, n, half_width, t_final", [(1, 256, 8.0, 0.05), (2, 32, 6.0, 0.02)])
def test_hartree_stack_equals_one_propagate_per_n(d, n, half_width, t_final):
    grid = make_grid(d, n, half_width)
    x = grid.coords()[0]
    phi0 = normalize(
        Field(grid, np.exp(-grid.r2 / 2) * (1 + 0.3 * np.cos(x) + 0.2j * np.sin(x)))
    )
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    cfg = PropagatorConfig(dt=1e-3, t_final=t_final, record_every=7)
    Ns = [64, 128, 256]
    sweep = dyn._compare_sweep(phi0, inter, 4.0, Ns, cfg, workers=1)  # one stack of 3
    gp = propagate(phi0, 4.0 * inter.integral(d), cfg)
    assert len(sweep) == 3
    for N, rep in zip(Ns, sweep):
        alone = propagate(phi0, 4.0, cfg, inter.kernel_on_grid(grid, N))
        assert len(alone.times) >= 4  # a last record off the record_every grid too
        _assert_same_trace(rep.trace_hartree, alone)
        _assert_same_trace(rep.trace_gp, gp)
        assert rep.final_distance == distance(gp.final, alone.final)
        one = compare_h_vs_gp(phi0, inter, 4.0, N, cfg)
        assert np.array_equal(rep.distance, one.distance)
        assert np.array_equal(rep.bound, one.bound)
        assert rep.passed and one.passed


def test_a_failed_row_leaves_the_stack_with_its_own_error(monkeypatch):
    grid = make_grid(1, 256, 8.0)
    phi0 = gaussian_packet(grid)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, record_every=10)
    kernel_on_grid = InteractionSpec.kernel_on_grid

    def kernel(self, grid, N):
        k = kernel_on_grid(self, grid, N)
        if N == 128:  # non-finite from the first step on
            return Field(grid, np.where(np.arange(grid.n) == 3, np.nan, k.values.real))
        if N == 512:  # refused by the phase guard
            return Field(grid, 1e6 * k.values.real)
        return k

    monkeypatch.setattr(InteractionSpec, "kernel_on_grid", kernel)
    Ns = [64, 128, 256, 512, 1024]
    sweep = dyn._compare_sweep(phi0, inter, 4.0, Ns, cfg, workers=1)  # one stack of 5
    for N, out in zip(Ns, sweep):
        if N in (128, 512):
            match = "non-finite" if N == 128 else "phase"
            with pytest.raises(type(out), match=match) as alone:
                propagate(phi0, 4.0, cfg, inter.kernel_on_grid(grid, N))
            assert str(out) == str(alone.value)
        else:
            alone = propagate(phi0, 4.0, cfg, inter.kernel_on_grid(grid, N))
            _assert_same_trace(out.trace_hartree, alone)


def _sweep_within(phi0, inter, g, Ns, cfg, workers, timeout=120):
    """_compare_sweep under a future, so that a hang fails instead of blocking."""
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        return pool.submit(dyn._compare_sweep, phi0, inter, g, Ns, cfg, workers).result(timeout)
    finally:
        pool.shutdown(wait=False)  # a hung sweep must not hold the test


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failure", ["phase guard", "non-finite start", "non-finite later"])
def test_a_failed_cubic_row_fails_every_n(monkeypatch, workers, failure):
    # the cubic flow is row 0 of the first stack: the rows waiting on its
    # records are released, and every N fails with the error it raises alone
    grid = make_grid(1, 256, 8.0)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    phi0, g = gaussian_packet(grid), 4.0
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, record_every=10)
    if failure == "phase guard":
        g, cfg = 40.0, PropagatorConfig(dt=0.5, t_final=1.0)
    elif failure == "non-finite start":
        vals = phi0.values.copy()
        vals[3] = np.nan
        phi0 = Field(grid, vals)
    else:  # a NaN coupling passes the phase guard and the first record
        monkeypatch.setattr(InteractionSpec, "integral", lambda self, d=3: np.nan)
    with pytest.raises((ValueError, RuntimeError)) as alone:
        propagate(phi0, g * inter.integral(1), cfg)
    Ns = [64, 128, 256, 512, 1024]
    sweep = _sweep_within(phi0, inter, g, Ns, cfg, workers)
    assert [type(out) for out in sweep] == [alone.type] * len(Ns)
    assert [str(out) for out in sweep] == [str(alone.value)] * len(Ns)


def test_a_sweep_steps_even_flows_in_the_sector(monkeypatch):
    # the oracle is the full-grid path of the same stepper, forced by
    # declaring no field even; every record agrees to 1e-12 of its scale
    grid = make_grid(1, 256, 8.0)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    phi0 = _trapped_state(grid, 4.0 * inter.integral(1))
    assert dyn._even(phi0.values)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, record_every=200)
    Ns = [64, 128, 256]
    sectors = []
    sector_of = dyn._ParitySector
    monkeypatch.setattr(dyn, "_ParitySector", lambda *a: sectors.append(a) or sector_of(*a))
    sweep = dyn._compare_sweep(phi0, inter, 4.0, Ns, cfg, workers=2)
    assert len(sectors) == 2  # one per stack
    monkeypatch.setattr(dyn, "_even", lambda values: False)
    full = dyn._compare_sweep(phi0, inter, 4.0, Ns, cfg, workers=2)
    assert len(sectors) == 2

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    for rep, oracle in zip(sweep, full):
        for trace in ("trace_gp", "trace_hartree"):
            for name in _TRACE_ARRAYS:
                close(getattr(getattr(rep, trace), name), getattr(getattr(oracle, trace), name))
            close(getattr(rep, trace).final.values, getattr(oracle, trace).final.values)
        close(rep.distance, oracle.distance)
        close(rep.bound, oracle.bound)
        close(rep.final_distance, oracle.final_distance)


# --- the record path ---------------------------------------------------------


def _four_transform_record(t, v, w, grid):
    """A record from norm L2, the energy, H1 and H2, each with transforms of its own."""

    def kinetic(p):
        weight = grid.k2 if p == 1 else grid.k2 ** p
        return float(np.sum(weight * np.abs(sfft.fftn(v, norm="ortho")) ** 2) * grid.dv)

    l2sq = np.sum(np.abs(v) ** 2) * grid.dv
    energy = kinetic(1) + float(np.sum(0.5 * w * np.abs(v) ** 2) * grid.dv)
    h2sq = l2sq + kinetic(1)
    h2sq += kinetic(2)
    h1 = float(np.sqrt(l2sq + kinetic(1)))
    linf = float(np.max(np.abs(v)))
    return t, norm(Field(grid, v), "L2") ** 2, energy, h1, float(np.sqrt(h2sq)), linf


@pytest.mark.parametrize("path", ["sector", "full grid"])
def test_each_record_takes_one_fft_and_the_bits_of_four(monkeypatch, path):
    grid = make_grid(1, 256, 8.0)
    phi0 = gaussian_packet(grid)
    if path == "full grid":  # a moving packet is not even
        phi0 = Field(grid, phi0.values * np.exp(1j * grid.coords()[0]))
    assert dyn._even(phi0.values) == (path == "sector")
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, record_every=10)
    g_rows = (4.0, 9.0)  # two cubic rows, W = g |phi|^2
    fields = {i: [] for i in range(len(g_rows))}
    field_ffts = []  # fftn calls on one field; the stepper transforms the stack
    fftn = sfft.fftn

    def counting_fftn(x, *args, **kwargs):
        if np.ndim(x) == grid.d:
            field_ffts.append(x)
        return fftn(x, *args, **kwargs)

    monkeypatch.setattr(sfft, "fftn", counting_fftn)
    couplings = [(g, None) for g in g_rows]
    traces = dyn._strang(phi0, couplings, cfg, lambda i, v: fields[i].append(v.copy()))
    monkeypatch.undo()
    nrec = len(traces[0].times)
    assert nrec == 6 and len(field_ffts) == len(g_rows) * nrec  # one per row and record
    for g, trace, vs in zip(g_rows, traces, fields.values()):
        assert len(vs) == nrec
        recorded = zip(trace.times, trace.mass, trace.e_free, trace.h1, trace.h2, trace.linf)
        for rec, t, v in zip(recorded, trace.times, vs):
            assert rec == _four_transform_record(t, v, g * np.abs(v) ** 2, grid)


# --- guards ------------------------------------------------------------------


def test_phase_guard_refuses_large_steps():
    grid = make_grid(1, 256, 10.0)
    phi0 = gaussian_packet(grid, a=0.2)
    with pytest.raises(ValueError, match="phase"):
        propagate(phi0, 100.0, PropagatorConfig(dt=1.0, t_final=2.0))


def test_non_finite_input_rejected():
    grid = make_grid(1, 256, 10.0)
    vals = np.ones(grid.shape, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        propagate(Field(grid, vals), 0.0, PropagatorConfig(dt=1e-3, t_final=0.01))


@pytest.mark.parametrize("d, n, half_width", [(2, 32, 6.0), (3, 16, 4.0)])
@pytest.mark.parametrize("flow", ["gp", "hartree"])
def test_sector_step_matches_the_full_grid_in_d_dimensions(monkeypatch, d, n, half_width, flow):
    grid = make_grid(d, n, half_width)
    phi0 = normalize(Field(grid, np.exp(-grid.r2 / 2) * (1 + 0.3 * np.cos(grid.r2))))
    kernel = InteractionSpec(profile="gaussian", beta=0.2).kernel_on_grid(grid, 64)
    assert dyn._even(phi0.values) and dyn._even(kernel.values)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.02, record_every=7)
    args = (phi0, 4.0, cfg) + ((kernel,) if flow == "hartree" else ())
    sector = propagate(*args)
    monkeypatch.setattr(dyn, "_even", lambda values: False)
    full = propagate(*args)
    for name in _TRACE_ARRAYS:
        a, b = getattr(sector, name), getattr(full, name)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    assert np.max(np.abs(sector.final.values - full.final.values)) <= 1e-12


def _leaky_kick(vals, w, scale, theta, phase):
    # the kick with a phase of modulus 1 + 1e-13: the mass grows by about
    # 2e-13 per step, far above the rounding of either path
    np.multiply(w, scale, out=theta)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    phase *= 1 + 1e-13
    vals *= phase


@pytest.mark.parametrize("path", ["sector", "full grid"])
@pytest.mark.parametrize("dt", [1e-3, 5e-4, 2.5e-4])
def test_mass_guard_trips_on_a_leaky_kick(monkeypatch, path, dt):
    # negative control: the guard still means something at every dt
    grid = make_grid(1, 256, 8.0)
    phi0 = gaussian_packet(grid)
    assert dyn._even(phi0.values)
    if path == "full grid":
        monkeypatch.setattr(dyn, "_even", lambda values: False)
    cfg = PropagatorConfig(dt=dt, t_final=0.05, record_every=10)
    assert propagate(phi0, 4.0, cfg).mass_drift < 1e-13
    monkeypatch.setattr(dyn, "_kick", _leaky_kick)
    with pytest.raises(RuntimeError, match="mass drift .* exceeds 1e-12"):
        propagate(phi0, 4.0, cfg)


# --- Hartree vs GP distance --------------------------------------------------


def _trapped_state(grid, G):
    return gp_minimize(grid, TrapSpec(strength=1.0, s=2), G, tol=1e-10).field


def test_delta_kernel_hartree_equals_gp():
    grid = make_grid(1, 1024, 12.0)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    g = 3.0
    phi0 = _trapped_state(grid, g * inter.integral(1))
    dk = np.zeros(grid.shape)
    dk[grid.n // 2] = inter.integral(1) / grid.dv
    delta = Field(grid, dk)
    cfg = PropagatorConfig(dt=5e-4, t_final=0.2, record_every=50)
    gp = propagate(phi0, g * inter.integral(1), cfg)
    hartree = propagate(phi0, g, cfg, delta)
    assert distance(gp.final, hartree.final) < 1e-12
    for name in _TRACE_ARRAYS:
        assert np.max(np.abs(getattr(gp, name) - getattr(hartree, name))) < 1e-12, name


def test_distance_zero_at_t0_and_shrinks_with_n():
    grid = make_grid(1, 1024, 12.0)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    g = 4.0
    phi0 = _trapped_state(grid, g * inter.integral(1))
    cfg = PropagatorConfig(dt=5e-4, t_final=0.2, record_every=50)
    finals = {}
    for N in (64, 1024):
        rep = compare_h_vs_gp(phi0, inter, g, N, cfg)
        assert rep.passed
        assert rep.distance[0] == 0.0
        assert np.all(rep.distance[1:] <= rep.bound[1:])
        finals[N] = rep.final_distance
    assert finals[1024] < finals[64]


def test_bound_evaluator_positive_and_monotone():
    grid = make_grid(1, 512, 12.0)
    phi0 = gaussian_packet(grid)
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    cfg = PropagatorConfig(dt=1e-3, t_final=1.0, record_every=50)
    trace_gp = propagate(phi0, 4.0 * inter.integral(1), cfg)
    assert len(trace_gp.times) == 21
    # with no distance to calibrate on, the prefactor is 1: the bare shape
    shape = dyn._hartree_gp_bound(trace_gp, 256, 0.2, 4.0, 0.0)
    assert np.all(shape > 0)
    assert np.all(np.diff(shape) >= 0)
    bound = dyn._hartree_gp_bound(trace_gp, 256, 0.2, 4.0, 10.0)
    prefactor = bound[1] / shape[1]
    assert prefactor >= 1.0
    assert np.allclose(bound, prefactor * shape, rtol=1e-15, atol=0)
    assert bound[1] >= 10.0


def test_bound_keeps_its_bits():
    # the bound at every record time, pinned as the cubic trace gives it
    grid = make_grid(1, 256, 8.0)
    phi0 = normalize(Field(grid, np.exp(-grid.r2 / 2.0).astype(complex)))
    inter = InteractionSpec(profile="gaussian", beta=0.2)
    cfg = PropagatorConfig(dt=1e-3, t_final=0.05, record_every=10)
    rep = compare_h_vs_gp(phi0, inter, 4.0, 128, cfg)
    assert rep.bound.tolist() == [
        4.6406327364725595,
        5.080268672763987,
        5.567300487818198,
        6.107380556169442,
        6.706894993987292,
        7.37306619923338,
    ]


# --- Sobolev envelopes -------------------------------------------------------


def test_sobolev_free_flow_constant():
    grid = make_grid(1, 512, 12.0)
    phi0 = gaussian_packet(grid)
    trace = propagate(phi0, 0.0, PropagatorConfig(dt=1e-3, t_final=0.3, record_every=30))
    assert np.max(np.abs(trace.h1 - trace.h1[0])) < 1e-10
    assert np.max(np.abs(trace.h2 - trace.h2[0])) < 1e-10
    rep = sobolev_monitor(trace, g=0.0, N=256, beta=0.2)
    assert rep.passed
    assert rep.c_fitted == 0.0


def test_sobolev_envelope_random_states():
    grid = make_grid(1, 512, 12.0)
    x = grid.coords()[0]
    rng = np.random.default_rng(11)
    kfrac = np.abs(np.fft.fftfreq(grid.n))
    for _ in range(10):
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        hat = np.fft.fft(raw)
        hat[kfrac > 0.05] = 0.0
        f = normalize(Field(grid, np.fft.ifft(hat) * np.exp(-x**2 / 6)))
        trace = propagate(f, 2.0, PropagatorConfig(dt=5e-4, t_final=0.2, record_every=40))
        rep = sobolev_monitor(trace, g=2.0, N=256, beta=0.2)
        assert rep.passed
        assert rep.h1_sup <= rep.h1_bound


# --- dispersive inequality ---------------------------------------------------


def test_strichartz_zero_sample():
    grid = make_grid(3, 16, 8.0)
    rep = strichartz_check(grid, [np.zeros((3,) + grid.shape)], 1.0)
    assert rep.passed
    assert rep.ratios[0] == 0.0


def test_strichartz_constant_gaussian():
    grid = make_grid(3, 16, 8.0)
    f = np.repeat(np.exp(-grid.r2 / 2)[None], 9, axis=0)
    rep = strichartz_check(grid, [f], 1.0)
    assert rep.passed
    assert rep.max_ratio < 1.0


def test_strichartz_random_bandlimited():
    grid = make_grid(3, 16, 8.0)
    rng = np.random.default_rng(5)
    mask = grid.k2 <= 1.0
    samples = []
    for _ in range(20):
        f = np.empty((9,) + grid.shape, dtype=complex)
        for j in range(9):
            w = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            f[j] = np.fft.ifftn(np.fft.fftn(w) * mask)
        samples.append(f)
    rep = strichartz_check(grid, samples, 1.0)
    assert rep.violations == 0
    assert rep.max_ratio < 1.0


def _strichartz_loop_ratio(grid, f, T):
    # the position-space Duhamel loop: three FFTs per step
    nt = f.shape[0]
    dt = T / (nt - 1)
    prop = np.exp(-1j * dt * grid.k2)
    u = np.zeros(grid.shape, dtype=complex)
    lhs = 0.0
    for j in range(nt - 1):
        step = prop * np.fft.fftn(u) + 0.5 * dt * (
            prop * np.fft.fftn(f[j]) + np.fft.fftn(f[j + 1])
        )
        u = np.fft.ifftn(step)
        lhs = max(lhs, float(np.sqrt(np.sum(np.abs(u) ** 2).real * grid.dv)))
    return lhs / (np.sqrt(T) * max(lp_norm(f[j], 6.0 / 5.0, grid) for j in range(nt)))


@pytest.mark.parametrize("d, n", [(1, 64), (3, 16)])
def test_strichartz_matches_position_space_loop(d, n):
    grid = make_grid(d, n, 6.0)
    rng = np.random.default_rng(3 + d)
    mask = grid.k2 <= 4.0
    samples = [np.repeat(np.exp(-grid.r2 / 2)[None], 5, axis=0)]
    for _ in range(4):
        w = rng.standard_normal((7,) + grid.shape) + 1j * rng.standard_normal((7,) + grid.shape)
        axes = tuple(range(1, d + 1))
        samples.append(np.fft.ifftn(np.fft.fftn(w, axes=axes) * mask, axes=axes))
    rep = strichartz_check(grid, samples, 0.7)
    ref = np.array([_strichartz_loop_ratio(grid, f, 0.7) for f in samples])
    assert np.max(np.abs(rep.ratios - ref)) <= 1e-12 * np.max(ref)


def test_strichartz_validation():
    grid = make_grid(1, 64, 4.0)
    with pytest.raises(ValueError, match="T"):
        strichartz_check(grid, [], 0.0)
    with pytest.raises(ValueError, match="time slices"):
        strichartz_check(grid, [np.zeros((1,) + grid.shape)], 1.0)


def test_lp_norm_against_quadrature():
    grid = make_grid(1, 256, 10.0)
    vals = np.exp(-grid.r2)
    expect = (np.sum(vals ** (6 / 5)) * grid.dv) ** (5 / 6)
    assert lp_norm(vals, 6 / 5, grid) == pytest.approx(expect, rel=1e-13)
