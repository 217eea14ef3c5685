"""Parameter sweeps with exponent fits and reproducible CSV/JSON artifacts.

Each study kind wires the solver modules into a sweep over one parameter,
records one row per point, evaluates its embedded acceptance rules, and
optionally writes a CSV table plus a JSON summary. Output is deterministic
for a given spec and seed (rows sorted by parameter, repr-formatted floats).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import groundstate as gs
from . import manybody as mb
from .grids import Field, make_grid, norm, normalize
from .model import InteractionSpec, RegimeParams, TrapSpec, _take

__all__ = [
    "STUDY_KINDS",
    "TOLERANCES",
    "StudySpec",
    "FitResult",
    "Check",
    "StudyResult",
    "fit_loglog",
    "run_study",
    "write_csv",
]

_MANYBODY_CHECKS = ("appendix", "gapchain", "gronwall")

# every numeric pass/fail threshold used by the study checks, in one place
TOLERANCES = {
    "gap_flat_factor": 3.0,  # rescaled gap max/min across the sweep
    "linf_plateau_rel": 0.10,  # rescaled sup norm vs flat-profile reference
    "grad_growth_factor": 3.0,  # rescaled gradient vs its first sweep point
    "slope_slack": 0.05,  # additive slack on fitted log-log rates
    "mass_drift": dyn.PropagationTrace.MASS_DRIFT_TOL,  # absolute, on every run of a sweep
    "splitting_order_tol": 0.1,  # |fitted order - 2|
    "rate_identity": mb.TrackReport.RATE_TOL,  # max |d(alpha)/dt - rate| along a trajectory
    "point_failure_frac": 0.20,  # study fails above this fraction of bad points
}


@dataclass(frozen=True)
class StudySpec:
    """One sweep: what to vary, on which grid, and where to write.

    Its kind's row of _KINDS names the fields it reads and fills in their
    defaults; any other field must stay None."""

    kind: str
    values: tuple
    grid_d: int | None = None
    grid_n: int | None = None
    half_width: float | None = None
    trap_strength: float | None = None
    trap_s: float | None = None
    profile: str | None = None
    beta: float | None = None
    g: float | None = None  # coupling held fixed in N sweeps
    t_final: float | None = None
    dt: float | None = None
    lam: float | None = None
    mb_trials: int | None = None
    seed: int = 0
    workers: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown study kind {self.kind!r}")
        vals = tuple(self.values)
        if not vals:
            raise ValueError("parameter list must be nonempty")
        object.__setattr__(self, "values", vals)
        if row.sweeps == "check":
            bad = [v for v in vals if v not in _MANYBODY_CHECKS]
            if bad:
                raise ValueError(f"unknown manybody check(s) {bad}")
        elif any(isinstance(v, bool) or not isinstance(v, (int, float, np.number)) for v in vals):
            raise ValueError(f"sweep values must be numbers, got {list(vals)}")
        elif not all(math.isfinite(v) for v in vals):
            raise ValueError(f"sweep values must be finite, got {list(vals)}")
        elif any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")
        elif row.sweeps == "N" and not all(float(v).is_integer() for v in vals):
            raise ValueError(f"particle numbers must be integers, got {list(vals)}")
        elif row.sweeps == "N" and min(vals) < 1:
            raise ValueError(f"particle numbers in values must be >= 1, got {list(vals)}")
        elif row.sweeps == "g" and min(vals) <= 0:
            raise ValueError(f"couplings in values must be positive, got {list(vals)}")
        # every kind reads its kind, values, seed and out_dir
        reads = {"kind": str, "values": tuple, "seed": 0, "out_dir": str, **row.reads}
        if row.grids:
            default_d = next(iter(row.grids)) if len(row.grids) == 1 else 3
            d = _take({"grid_d": self.grid_d}, self.kind, {"grid_d": default_d})["grid_d"]
            if d not in row.grids:
                dims = " or ".join(f"{k}D" for k in row.grids)
                raise ValueError(f"{self.kind} runs on a {dims} grid, got grid_d={d}")
            reads["grid_d"] = d
            reads["grid_n"], reads["half_width"] = row.grids[d]
        unread = [name for name, v in vars(self).items() if v is not None and name not in reads]
        if unread:
            raise ValueError(f"{self.kind} does not read {unread}")
        for name, value in _take({k: getattr(self, k) for k in reads}, self.kind, reads).items():
            object.__setattr__(self, name, value)
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mb_trials is not None and self.mb_trials < 1:
            raise ValueError(f"mb_trials must be >= 1, got {self.mb_trials}")
        if self.lam is not None and not 0 < self.lam < 1:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        if self.t_final is not None:  # the one kind that reads t_final reads dt too
            dyn.PropagatorConfig(dt=self.dt, t_final=self.t_final)
        if self.g is not None and self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")


@dataclass
class FitResult:
    """Least-squares power law through (log x, log y)."""

    slope: float
    intercept: float
    residual: float
    points: np.ndarray  # (n, 2) raw pairs

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "n_points": int(len(self.points)),
        }


def fit_loglog(points) -> FitResult:
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    if len(pts) < 3:
        raise ValueError("fit needs at least 3 points")
    if np.any(pts <= 0):
        raise ValueError("fit needs strictly positive values")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return FitResult(slope=float(slope), intercept=float(intercept), residual=resid, points=pts)


@dataclass
class Check:
    """One acceptance rule with its measured value, in plain language."""

    name: str
    statement: str
    value: float
    passed: bool


@dataclass
class StudyResult:
    spec: StudySpec
    rows: list
    checks: list
    fits: dict
    passed: bool
    csv_text: str
    summary: dict
    csv_path: str | None = None
    json_path: str | None = None


# ---------------------------------------------------------------------------
# shared pieces


def _trap(spec: StudySpec) -> TrapSpec:
    return TrapSpec(strength=spec.trap_strength, s=spec.trap_s)


def _coupling_sweep_setup(spec: StudySpec):
    """Trap, interaction, integral(v) and the 3D grid of a sweep over g.

    Unless the spec fixes half_width, the box is widened to hold the cloud at
    the largest coupling.
    """
    trap = _trap(spec)
    inter = InteractionSpec(profile=spec.profile)
    intv = inter.integral(3)
    half = spec.half_width
    if half is None:
        half = gs.suggested_half_width(trap, max(spec.values) * intv)
    return trap, inter, intv, make_grid(3, spec.grid_n, half)


def _gaussian_state(grid) -> Field:
    vals = np.exp(-grid.r2 / 2.0) / math.pi ** (grid.d / 4.0)
    return normalize(Field(grid, vals.astype(np.complex128)))


def _point(key, worker, v, spent: float = 0.0) -> dict:
    """The row of worker(v), with its status and its time (plus spent before).

    A failed row still carries the swept value v, under key.
    """
    t0 = time.perf_counter()
    try:
        row = worker(v)
        row["status"] = "ok"
    except Exception as exc:  # per-point failures recorded, sweep continues
        row = {key: v, "status": f"failed: {exc}"}
    # timing is kept out of the CSV so reruns stay byte-identical
    row["_elapsed_s"] = spent + time.perf_counter() - t0
    return row


def _run_points(key, values, worker, workers: int):
    """Evaluate worker(value) per sweep point on up to workers threads, in order."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda v: _point(key, worker, v), values))


def _ok(rows):
    return [r for r in rows if r["status"] == "ok"]


# ---------------------------------------------------------------------------
# study kinds


def _study_gap_vs_g(spec: StudySpec):
    trap, _, intv, grid = _coupling_sweep_setup(spec)

    def worker(g):
        G = g * intv
        res = gs.gp_minimize(grid, trap, G)
        spec_res = gs.hgp_spectrum(grid, trap, G, res.field, seed=spec.seed)
        gap = float(spec_res.eigenvalues[1] - spec_res.eigenvalues[0])
        expo = 2.0 / (trap.s + 3.0)
        return {
            "g": g,
            "G": G,
            "grid_n": grid.n,
            "half_width": grid.half_width,
            "energy": res.energy,
            "mu": res.mu,
            "gap": gap,
            "gap_scaled": gap * g**expo,
            "spectrum_converged": spec_res.converged,
        }

    rows = _run_points("g", spec.values, worker, 1)  # reads no workers
    ok = _ok(rows)
    checks = []
    if ok:
        scaled = [r["gap_scaled"] for r in ok]
        checks.append(
            Check(
                "gap_scaling_positive",
                "min over the sweep of (first excited - ground) * g^(2/(s+3)) is positive",
                min(scaled),
                min(scaled) > 0,
            )
        )
        ratio = max(scaled) / min(scaled) if min(scaled) > 0 else math.inf
        checks.append(
            Check(
                "gap_scaling_flat",
                "rescaled gap varies by less than a factor 3 across the sweep",
                ratio,
                ratio < TOLERANCES["gap_flat_factor"],
            )
        )
        unconverged = sum(1 for r in ok if not r["spectrum_converged"])
        checks.append(
            Check(
                "spectrum_converged",
                "no sweep point's Hessian spectrum missed its residual tolerance",
                float(unconverged),
                unconverged == 0,
            )
        )
    fits = {}
    if len(ok) >= 3:
        fits["gap_vs_g"] = fit_loglog([(r["g"], r["gap"]) for r in ok])
    return rows, checks, fits


def _study_linf_vs_g(spec: StudySpec):
    trap, inter, intv, grid = _coupling_sweep_setup(spec)

    def worker(g):
        res = gs.gp_minimize(grid, trap, g * intv)
        rep = gs.linf_diagnostics(res.field, trap, inter, g)
        return {
            "g": g,
            "grid_n": grid.n,
            "half_width": grid.half_width,
            "linf": rep.linf,
            "grad_linf": rep.grad_linf,
            "scaled_linf": rep.scaled_linf,
            "scaled_grad": rep.scaled_grad,
            "tf_reference": rep.tf_reference,
        }

    rows = _run_points("g", spec.values, worker, 1)  # reads no workers
    ok = _ok(rows)
    checks = []
    if ok:
        last = ok[-1]
        rel = abs(last["scaled_linf"] / last["tf_reference"] - 1.0)
        checks.append(
            Check(
                "linf_plateau",
                "at the largest coupling, ||phi||_inf * g^{3/(2(s+3))} is within "
                "10% of the flat-profile reference sqrt(mu_1 / integral v)",
                rel,
                rel <= TOLERANCES["linf_plateau_rel"],
            )
        )
        # the gradient estimate is an upper bound, not a sharp rate: check
        # that the rescaled quantity never grows past 3x its first value
        grads = [r["scaled_grad"] for r in ok]
        ratio = max(grads) / grads[0] if grads[0] > 0 else math.inf
        checks.append(
            Check(
                "grad_linf_bounded",
                "||grad phi||_inf * g^{-(2s-3)/(2(s+3))} stays within a factor 3 "
                "of its value at the smallest coupling",
                ratio,
                ratio <= TOLERANCES["grad_growth_factor"],
            )
        )
    fits = {}
    if len(ok) >= 3:
        fits["linf_vs_g"] = fit_loglog([(r["g"], r["linf"]) for r in ok])
    return rows, checks, fits


def _study_tf_convergence(spec: StudySpec):
    trap, inter, intv, grid = _coupling_sweep_setup(spec)

    def worker(g):
        res = gs.gp_minimize(grid, trap, g * intv)
        dist = gs.tf_profile_distance(res.field, trap, inter, g)
        return {
            "g": g,
            "grid_n": grid.n,
            "half_width": grid.half_width,
            "distance": dist,
            "energy": res.energy,
        }

    rows = _run_points("g", spec.values, worker, 1)  # reads no workers
    ok = _ok(rows)
    checks = []
    if len(ok) >= 2:
        dists = [r["distance"] for r in ok]
        monotone = all(b < a for a, b in zip(dists, dists[1:]))
        checks.append(
            Check(
                "tf_distance_decreasing",
                "the rescaled sup-norm distance to the flat-profile density "
                "strictly decreases along the coupling sweep",
                max(b - a for a, b in zip(dists, dists[1:])),
                monotone,
            )
        )
    fits = {}
    if len(ok) >= 3:
        fits["tf_distance_vs_g"] = fit_loglog([(r["g"], r["distance"]) for r in ok])
    return rows, checks, fits


def _study_lemma26_vs_N(spec: StudySpec):
    inter = InteractionSpec(profile=spec.profile, beta=spec.beta)
    grid = make_grid(spec.grid_d, spec.grid_n, spec.half_width)
    # the state's part once; the N convolutions share the workers' threads
    gap = gs.interaction_gap(_gaussian_state(grid), inter)

    def worker(N):
        rep = gap(int(N))
        return {
            "N": int(N),
            "grid_d": spec.grid_d,
            "grid_n": grid.n,
            "half_width": grid.half_width,
            "beta": spec.beta,
            "measured": rep.measured,
            "bound": rep.bound,
            "ratio": rep.ratio,
        }

    rows = _run_points("N", spec.values, worker, spec.workers)
    ok = _ok(rows)
    checks = []
    fits = {}
    if ok:
        worst = max(r["ratio"] for r in ok)
        checks.append(
            Check(
                "smearing_below_bound",
                "the smearing error of the scaled kernel stays below its "
                "first-moment bound for every N",
                worst,
                worst <= 1.0,
            )
        )
    if len(ok) >= 3:
        fit = fit_loglog([(r["N"], r["measured"]) for r in ok])
        fits["smearing_vs_N"] = fit
        checks.append(
            Check(
                "smearing_rate",
                f"fitted log-log slope of the smearing error is at most "
                f"-beta + slack = {-spec.beta + TOLERANCES['slope_slack']}",
                fit.slope,
                fit.slope <= -spec.beta + TOLERANCES["slope_slack"],
            )
        )
    return rows, checks, fits


def _strang_order(grid, G, phi0) -> float:
    """Mean Richardson slope of the trap-released splitting vs a fine reference."""
    t_short = 0.1
    cfg_ref = dyn.PropagatorConfig(dt=t_short / 256, t_final=t_short, record_every=10**9)
    ref = dyn.propagate(phi0, G, cfg_ref).final
    errs = []
    dts = [t_short / 8, t_short / 16, t_short / 32]
    for dt in dts:
        cfg = dyn.PropagatorConfig(dt=dt, t_final=t_short, record_every=10**9)
        out = dyn.propagate(phi0, G, cfg).final
        errs.append(norm(Field(grid, out.values - ref.values), "L2"))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return float(np.mean(slopes))


def _study_hgp_rate_vs_N(spec: StudySpec):
    trap = _trap(spec)
    inter = InteractionSpec(profile=spec.profile, beta=spec.beta)
    grid = make_grid(1, spec.grid_n, spec.half_width)
    G = spec.g * inter.integral(1)
    phi0 = gs.gp_minimize(grid, trap, G).field
    cfg = dyn.PropagatorConfig(dt=spec.dt, t_final=spec.t_final, record_every=200)
    # one sweep steps the cubic flow and the Hartree flows in one stack per
    # worker thread, the cubic flow as row 0 of the first; each point's time
    # is its share of the sweep
    Ns = [int(N) for N in spec.values]
    t0 = time.perf_counter()
    reports = dict(zip(Ns, dyn._compare_sweep(phi0, inter, spec.g, Ns, cfg, spec.workers)))
    spent = (time.perf_counter() - t0) / len(Ns)

    def worker(N):
        rep = reports[N]
        if isinstance(rep, Exception):
            raise rep
        return {
            "N": N,
            "grid_n": grid.n,
            "half_width": grid.half_width,
            "beta": spec.beta,
            "g": spec.g,
            "t_final": spec.t_final,
            "dt": spec.dt,
            "final_distance": rep.final_distance,
            "final_bound": float(rep.bound[-1]),
            "mass_drift_gp": rep.trace_gp.mass_drift,
            "mass_drift_hartree": rep.trace_hartree.mass_drift,
            "bound_respected": rep.passed,
        }

    rows = [_point("N", worker, N, spent) for N in Ns]
    ok = _ok(rows)
    checks = []
    fits = {}
    if ok:
        violated = sum(1 for r in ok if not r["bound_respected"])
        checks.append(
            Check(
                "bound_respected",
                "the distance between the convolution flow and the cubic flow "
                "stays within its calibrated bound at every record point of every N",
                float(violated),
                violated == 0,
            )
        )
    if len(ok) >= 2:
        dists = [r["final_distance"] for r in ok]
        monotone = all(b < a for a, b in zip(dists, dists[1:]))
        checks.append(
            Check(
                "distance_decreasing_in_N",
                "the final-time distance between the convolution flow and the "
                "cubic flow decreases monotonically in N",
                max(b - a for a, b in zip(dists, dists[1:])),
                monotone,
            )
        )
        drift = max(
            max(r["mass_drift_gp"], r["mass_drift_hartree"]) for r in ok
        )
        checks.append(
            Check(
                "mass_conserved",
                f"mass drift below {TOLERANCES['mass_drift']:g} on every run",
                drift,
                drift < TOLERANCES["mass_drift"],
            )
        )
    if len(ok) >= 3:
        fit = fit_loglog([(r["N"], r["final_distance"]) for r in ok])
        fits["distance_vs_N"] = fit
        checks.append(
            Check(
                "convergence_rate",
                f"fitted log-log slope of the final distance is at most "
                f"-beta/2 + slack = {-spec.beta / 2 + TOLERANCES['slope_slack']}",
                fit.slope,
                fit.slope <= -spec.beta / 2 + TOLERANCES["slope_slack"],
            )
        )
    order = _strang_order(grid, G, phi0)
    checks.append(
        Check(
            "splitting_order",
            "Richardson slope of the time splitting is 2 +- 0.1",
            order,
            abs(order - 2.0) <= TOLERANCES["splitting_order_tol"],
        )
    )
    return rows, checks, fits


def _mode_hamiltonian(inter, N, M, g, lam, modes="harmonic") -> mb.ManyBodyHamiltonian:
    """H of N bosons with pair interaction inter, coupling g and counting
    exponent lam on the 64-point grid on [-8, 8): on its M lowest harmonic
    modes in the trap (1, 2), or on its M lowest plane waves and no trap."""
    grid = make_grid(1, 64, 8.0)
    if modes == "harmonic":
        basis, trap = mb.ModeBasis.harmonic(grid, M), mb._HARMONIC_TRAP
    elif modes == "planewave":
        basis, trap = mb.ModeBasis.planewave(grid, M), None
    else:
        raise ValueError(f"unknown mode kind {modes!r}")
    reg = RegimeParams(N=N, beta=inter.beta, g_N=g, lambda_weight=lam)
    return mb.build(basis, trap, inter, reg)


def _product_track(H: mb.ManyBodyHamiltonian, t_grid, lam: float) -> mb.TrackReport:
    """``evolve_and_track`` of the product state of mode 0 against the mean-field flow from it."""
    phi0 = np.zeros(H.sector.M, dtype=complex)
    phi0[0] = 1.0
    psi0 = mb.product_state(H.sector, phi0)
    return mb.evolve_and_track(psi0, H, phi0, mb.hartree_from_hamiltonian(H), t_grid, lam)


def _study_manybody_suite(spec: StudySpec):
    inter = InteractionSpec(profile=spec.profile, beta=spec.beta)

    def worker(check):
        if check == "appendix":
            reps = [
                mb.verify_appendix(4, 3, spec.mb_trials, seed=spec.seed),
                mb.verify_appendix(6, 2, spec.mb_trials, seed=spec.seed + 1),
            ]
            total = sum(sum(r.violations.values()) for r in reps)
            return {
                "check": check,
                "trials": spec.mb_trials,
                "violations": total,
                "max_deviation": max(r.max_dev for r in reps),
                "metric": float(total),
                "metric_ok": total == 0,
            }
        if check == "gapchain":
            H = _mode_hamiltonian(inter, 3, 3, 0.5, spec.lam)
            rep = mb.verify_gap_chain(H, lam=spec.lam, samples=100, seed=spec.seed)
            return {
                "check": check,
                "trials": 100,
                "violations": rep.sandwich_violations,
                "max_deviation": max(-rep.min_eig_chain, -rep.min_eig_nplus, 0.0),
                "metric": rep.min_eig_chain,
                "metric_ok": rep.passed,
            }
        # gronwall
        H = _mode_hamiltonian(inter, 4, 4, 0.1, spec.lam)
        rep = _product_track(H, np.linspace(0, 0.5, 11), spec.lam)
        return {
            "check": check,
            "trials": len(rep.times),
            "violations": rep.sandwich_violations + rep.bound_violations,
            "max_deviation": rep.max_rate_mismatch,
            "metric": rep.max_rate_mismatch,
            "metric_ok": rep.passed,
        }

    rows = _run_points("check", spec.values, worker, spec.workers)
    ok = _ok(rows)
    checks = []
    if ok:
        viol = sum(r["violations"] for r in ok)
        checks.append(
            Check(
                "exact_identities",
                "zero violations across the projector, gap-chain, and "
                "counting-rate verifications",
                float(viol),
                viol == 0 and all(r["metric_ok"] for r in ok),
            )
        )
    return rows, checks, {}


@dataclass(frozen=True)
class _Kind:
    """One study kind: its function and the StudySpec fields it reads."""

    study: object  # the function that runs the sweep
    sweeps: str  # what its values are: couplings "g", particle numbers "N" or checks
    # each grid_d it runs on -> default (grid_n, half_width); a lone key is
    # also the default grid_d
    grids: dict
    reads: dict  # every other field it reads -> default


# the coupling sweeps solve their 3D points on one thread (2 threads ran
# 10-30% slower) and use v through its integral only: they read no workers
# and no beta.  half_width None widens the box to hold the largest-g cloud
_COUPLING_GRIDS = {3: (64, float)}
_COUPLING_READS = {"trap_strength": 1.0, "trap_s": 2.0, "profile": "gaussian"}

# the one table of what each study kind reads, with the defaults it fills in
_KINDS = {
    "gap_vs_g": _Kind(_study_gap_vs_g, "g", _COUPLING_GRIDS, _COUPLING_READS),
    "linf_vs_g": _Kind(_study_linf_vs_g, "g", _COUPLING_GRIDS, _COUPLING_READS),
    "tf_convergence": _Kind(_study_tf_convergence, "g", _COUPLING_GRIDS, _COUPLING_READS),
    # in 2D and 3D, spacing 0.047 resolves the kernel range N^-beta / 4 up to
    # N = 4096 at beta = 0.2
    "lemma26_vs_N": _Kind(
        _study_lemma26_vs_N, "N", {1: (4096, 8.0), 2: (128, 3.0), 3: (128, 3.0)},
        {"profile": "gaussian", "beta": 0.2, "workers": 2},
    ),
    "hgp_rate_vs_N": _Kind(
        _study_hgp_rate_vs_N, "N", {1: (4096, 16.0)},
        {**_COUPLING_READS, "beta": 0.2, "g": 4.0, "t_final": 0.5, "dt": 2.5e-4, "workers": 2},
    ),
    "manybody_suite": _Kind(
        _study_manybody_suite, "check", {},
        {"profile": "gaussian", "beta": 0.2, "lam": 0.5, "mb_trials": 200, "workers": 2},
    ),
}

STUDY_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# artifacts


def write_csv(rows: list) -> str:
    """Render rows as CSV with repr-exact floats; column order from row keys.

    Keys starting with an underscore (timings) are private and excluded.
    """
    if not rows:
        return ""
    cols = []
    for row in rows:
        for key in row:
            if key not in cols and not key.startswith("_"):
                cols.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow([_cell(row.get(c, "")) for c in cols])
    return buf.getvalue()


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def run_study(spec: StudySpec) -> StudyResult:
    """Execute the sweep, evaluate its acceptance rules, write artifacts."""
    rows, checks, fits = _KINDS[spec.kind].study(spec)
    n_failed = sum(1 for r in rows if r["status"] != "ok")
    frac = n_failed / len(rows)
    checks.append(
        Check(
            "point_failures",
            "at most 20% of sweep points may fail",
            frac,
            frac <= TOLERANCES["point_failure_frac"],
        )
    )
    passed = all(c.passed for c in checks)
    csv_text = write_csv(rows)
    summary = {
        "kind": spec.kind,
        "passed": passed,
        "n_points": len(rows),
        "n_failed": n_failed,
        "seed": spec.seed,
        "checks": [asdict(c) for c in checks],
        "fits": {name: f.to_dict() for name, f in fits.items()},
    }
    result = StudyResult(
        spec=spec,
        rows=rows,
        checks=checks,
        fits=fits,
        passed=passed,
        csv_text=csv_text,
        summary=summary,
    )
    if spec.out_dir is not None:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{spec.kind}.csv"
        json_path = out / f"{spec.kind}_summary.json"
        csv_path.write_text(csv_text, encoding="utf-8")
        json_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        result.csv_path = str(csv_path)
        result.json_path = str(json_path)
    return result
