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
from .model import InteractionSpec, RegimeParams, TrapSpec

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

STUDY_KINDS = (
    "gap_vs_g",
    "linf_vs_g",
    "tf_convergence",
    "lemma26_vs_N",
    "hgp_rate_vs_N",
    "manybody_suite",
)

# the coupling sweeps solve one point at a time: their 3D GP points ran
# 10-30% slower on 2 threads, so they take no workers
_ONE_THREAD_KINDS = ("gap_vs_g", "linf_vs_g", "tf_convergence")

_MANYBODY_CHECKS = ("appendix", "gapchain", "gronwall")

# the sweeps over N; their values are particle numbers
_N_SWEEP_KINDS = ("lemma26_vs_N", "hgp_rate_vs_N")

# the one grid dimension each fixed-dimension kind runs on
_GRID_D = {**dict.fromkeys(_ONE_THREAD_KINDS, 3), "hgp_rate_vs_N": 1}

# every numeric pass/fail threshold used by the study checks, in one place
TOLERANCES = {
    "gap_flat_factor": 3.0,  # rescaled gap max/min across the sweep
    "linf_plateau_rel": 0.10,  # rescaled sup norm vs flat-profile reference
    "grad_growth_factor": 3.0,  # rescaled gradient vs its first sweep point
    "slope_slack": 0.05,  # additive slack on fitted log-log rates
    "mass_drift": 1e-12,
    "splitting_order_tol": 0.1,  # |fitted order - 2|
    "rate_identity": mb.TrackReport.RATE_TOL,  # max |d(alpha)/dt - rate| along a trajectory
    "point_failure_frac": 0.20,  # study fails above this fraction of bad points
}


@dataclass(frozen=True)
class StudySpec:
    """One sweep: what to vary, on which grid, and where to write."""

    kind: str
    values: tuple
    grid_d: int = 3
    grid_n: int | None = None  # default: 64 for 3D studies, 4096 for 1D
    half_width: float | None = None
    trap_strength: float = 1.0
    trap_s: float = 2.0
    profile: str = "gaussian"
    beta: float = 0.2
    g: float = 4.0  # coupling held fixed in N sweeps
    t_final: float = 0.5
    dt: float = 2.5e-4
    lam: float = 0.5
    mb_trials: int = 200
    seed: int = 0
    # threads: lemma26_vs_N and manybody_suite share their points among them,
    # hgp_rate_vs_N steps one stack of its Hartree flows on each; g sweeps run on 1
    workers: int = 2
    out_dir: str | None = None

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}")
        vals = tuple(self.values)
        if not vals:
            raise ValueError("parameter list must be nonempty")
        object.__setattr__(self, "values", vals)
        if self.kind == "manybody_suite":
            bad = [v for v in vals if v not in _MANYBODY_CHECKS]
            if bad:
                raise ValueError(f"unknown manybody check(s) {bad}")
        elif any(isinstance(v, bool) or not isinstance(v, (int, float, np.number)) for v in vals):
            raise ValueError(f"sweep values must be numbers, got {list(vals)}")
        elif any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly increasing")
        elif self.kind in _N_SWEEP_KINDS and not all(float(v).is_integer() for v in vals):
            raise ValueError(f"particle numbers must be integers, got {list(vals)}")
        grid_d = _GRID_D.get(self.kind)
        if grid_d is not None and self.grid_d != grid_d:
            raise ValueError(f"{self.kind} runs on a {grid_d}D grid, got grid_d={self.grid_d}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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


def _grid_defaults(spec: StudySpec) -> tuple[int, float]:
    """Budgeted grid: 64^3 boxes for 3D sweeps, 2^12 points in 1D."""
    if spec.kind == "lemma26_vs_N" and spec.grid_d == 3:
        return spec.grid_n or 128, spec.half_width or 3.0
    if spec.grid_d == 3:
        return spec.grid_n or 64, spec.half_width or 8.0
    if spec.kind == "hgp_rate_vs_N":
        return spec.grid_n or 4096, spec.half_width or 16.0
    return spec.grid_n or 4096, spec.half_width or 8.0


def _trap(spec: StudySpec) -> TrapSpec:
    return TrapSpec(strength=spec.trap_strength, s=spec.trap_s)


def _coupling_sweep_setup(spec: StudySpec):
    """Trap, interaction, integral(v) and the 3D grid of a sweep over g.

    Unless the spec fixes half_width, the box is widened to hold the cloud at
    the largest coupling.
    """
    trap = _trap(spec)
    inter = InteractionSpec(profile=spec.profile, beta=spec.beta)
    intv = inter.integral(3)
    n, half = _grid_defaults(spec)
    if spec.half_width is None:
        half = max(half, gs.suggested_half_width(trap, max(spec.values) * intv))
    return trap, inter, intv, make_grid(3, n, half)


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

    rows = _run_points("g", spec.values, worker, 1)  # one of _ONE_THREAD_KINDS
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

    rows = _run_points("g", spec.values, worker, 1)  # one of _ONE_THREAD_KINDS
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

    rows = _run_points("g", spec.values, worker, 1)  # one of _ONE_THREAD_KINDS
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
    n, half = _grid_defaults(spec)
    grid = make_grid(spec.grid_d, n, half)
    phi = _gaussian_state(grid)

    def worker(N):
        rep = gs.interaction_gap(phi, inter, int(N))
        return {
            "N": int(N),
            "grid_d": spec.grid_d,
            "grid_n": n,
            "half_width": half,
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
    n, half = _grid_defaults(spec)
    grid = make_grid(1, n, half)
    G = spec.g * inter.integral(1)
    phi0 = gs.gp_minimize(grid, trap, G).field
    cfg = dyn.PropagatorConfig(dt=spec.dt, t_final=spec.t_final, record_every=200)
    # one sweep steps the cubic flow once and the Hartree flows in one stack
    # per worker thread; each point's time is its share of the sweep
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
            "grid_n": n,
            "half_width": half,
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
                "mass drift below 1e-12 on every run",
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
            grid = make_grid(1, 64, 8.0)
            modes = mb.ModeBasis.harmonic(grid, 3)
            reg = RegimeParams(N=3, beta=spec.beta, g_N=0.5, lambda_weight=spec.lam)
            H = mb.build(modes, TrapSpec(strength=1.0, s=2), inter, reg)
            _, h_gp = mb.gp_modes_ground(H)
            rep = mb.verify_gap_chain(H, h_gp, lam=spec.lam, samples=100, seed=spec.seed)
            return {
                "check": check,
                "trials": 100,
                "violations": rep.sandwich_violations,
                "max_deviation": max(-rep.min_eig_chain, -rep.min_eig_nplus, 0.0),
                "metric": rep.min_eig_chain,
                "metric_ok": rep.passed,
            }
        # gronwall
        grid = make_grid(1, 64, 8.0)
        modes = mb.ModeBasis.harmonic(grid, 4)
        reg = RegimeParams(N=4, beta=spec.beta, g_N=0.1, lambda_weight=spec.lam)
        H = mb.build(modes, TrapSpec(strength=1.0, s=2), inter, reg)
        phi0 = np.zeros(4, dtype=complex)
        phi0[0] = 1.0
        psi0 = mb.product_state(H.sector, phi0)
        rep = mb.evolve_and_track(
            psi0, H, phi0, mb.hartree_from_hamiltonian(H), np.linspace(0, 0.5, 11), spec.lam
        )
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


_DISPATCH = {
    "gap_vs_g": _study_gap_vs_g,
    "linf_vs_g": _study_linf_vs_g,
    "tf_convergence": _study_tf_convergence,
    "lemma26_vs_N": _study_lemma26_vs_N,
    "hgp_rate_vs_N": _study_hgp_rate_vs_N,
    "manybody_suite": _study_manybody_suite,
}


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
    rows, checks, fits = _DISPATCH[spec.kind](spec)
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
