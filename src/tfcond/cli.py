"""Command-line front end: ground states, sweeps, dynamics, verifications.

Every subcommand reads a JSON config, prints a short report, optionally
writes artifacts to --out, and exits 0 exactly when its embedded acceptance
rules pass (1 on rule failure, 2 on bad configs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import groundstate as gs
from . import harness
from . import manybody as mb
from .grids import Field, make_grid, normalize
from .model import _INTERACTION_KEYS, _TRAP_KEYS, _take
from .model import InteractionSpec, TrapSpec, scattering_length

__all__ = ["main", "build_parser"]


def _load_config(path: str | None, keys: dict | None = None) -> dict:
    """The JSON config at path ({} for none), parsed against keys if given."""
    if path is None:
        data = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data if keys is None else _take(data, "config", keys)


def _numbers(value, where: str) -> list:
    """A finite number or a nonempty list of them, as a list of floats."""
    items = value if isinstance(value, list) else [value]
    if not items or not all(type(v) in (int, float) and np.isfinite(v) for v in items):
        raise ValueError(
            f"{where!r} must be a finite number or a nonempty list of them, got {value!r}"
        )
    return [float(v) for v in items]


def _write_json(out_dir: str | None, name: str, payload: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n",
        encoding="utf-8",
    )


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _report(lines, passed: bool) -> int:
    for line in lines:
        print(line)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_groundstate(args) -> int:
    keys = {
        "grid": {"d": 3, "n": 64, "half_width": 8.0}, "trap": _TRAP_KEYS,
        "G": 0.0, "tol": 1e-6, "spectrum_k": 0,
    }
    cfg = _load_config(args.config, keys)
    grid = make_grid(**cfg["grid"])
    trap = TrapSpec(**cfg["trap"])
    G, tol, k = cfg["G"], cfg["tol"], cfg["spectrum_k"]
    res = gs.gp_minimize(grid, trap, G, tol=tol)
    lines = [
        f"grid: {grid.d}D n={grid.n} half_width={grid.half_width}",
        f"G={G} energy={res.energy:.12g} mu={res.mu:.12g} "
        f"residual={res.residual:.3e} iterations={res.iterations} "
        f"newton_steps={res.newton_steps}",
    ]
    passed = res.residual <= tol
    payload = {
        "energy": res.energy,
        "mu": res.mu,
        "kinetic": res.kinetic,
        "potential": res.potential,
        "interaction": res.interaction,
        "residual": res.residual,
        "iterations": res.iterations,
        "newton_steps": res.newton_steps,
        "boundary_mass": res.boundary_mass,
    }
    if k > 0:
        spec = gs.hgp_spectrum(grid, trap, G, res.field, k=k)
        lines.append(
            "spectrum: "
            + " ".join(f"{v:.10g}" for v in spec.eigenvalues)
            + f" (gap {spec.gap:.10g})"
        )
        lines.append(f"spectrum iterations: {spec.iterations}")
        lines.append(f"spectrum warnings: {len(spec.warnings)}")
        lines.extend(f"  {w}" for w in spec.warnings)
        passed = passed and spec.converged
        payload["eigenvalues"] = spec.eigenvalues
        payload["gap"] = spec.gap
        payload["spectrum_iterations"] = spec.iterations
    payload["passed"] = passed
    _write_json(args.out, "groundstate.json", payload)
    return _report(lines, passed)


def _cmd_study(args) -> int:
    """A study from its config block; ``gap`` fixes the kind to gap_vs_g."""
    cfg = _load_config(args.config)
    if args.kind is not None and "values" not in cfg and "g_values" in cfg:
        cfg["values"] = cfg.pop("g_values")
    # the study block is the config itself or its one "study" entry; StudySpec
    # type-checks the fields its kind reads and rejects the others
    keys = {f.name: f.default for f in dataclasses.fields(harness.StudySpec)}
    keys.update(kind=str, values=list, out_dir=str)
    if "study" in cfg:
        block = _take(cfg, "config", {"study": keys})["study"]
    else:
        block = _take(cfg, "study", keys)
    if block["values"] is None:
        raise ValueError("study block needs values")
    if args.kind is not None and block["kind"] not in (None, args.kind):
        raise ValueError(
            f"{args.command} runs the {args.kind} study, but the config asks for {block['kind']}"
        )
    block["values"] = tuple(block["values"])
    flags = {"kind": args.kind, "out_dir": args.out, "seed": args.seed, "workers": args.workers}
    block.update((key, flag) for key, flag in flags.items() if flag is not None)
    spec = harness.StudySpec(**block)
    result = harness.run_study(spec)
    lines = [f"study {spec.kind}: {len(result.rows)} points, {result.summary['n_failed']} failed"]
    for check in result.checks:
        lines.append(
            f"  [{'ok' if check.passed else 'FAIL'}] {check.name} = {check.value:.6g}"
        )
    for name, fit in result.fits.items():
        lines.append(f"  fit {name}: slope {fit.slope:.4f} residual {fit.residual:.2e}")
    if result.csv_path:
        lines.append(f"  wrote {result.csv_path} and {result.json_path}")
    return _report(lines, result.passed)


def _cmd_dynamics(args) -> int:
    keys = {
        "grid": {"d": 1, "n": 4096, "half_width": 16.0}, "trap": _TRAP_KEYS,
        "interaction": _INTERACTION_KEYS, "g": 4.0, "N": 1024, "dt": 2.5e-4,
        "t_final": 0.5, "record_every": 200, "initial": "gp_ground",
    }
    raw = _load_config(args.config)
    cfg = _take(raw, "config", keys)
    grid = make_grid(**cfg["grid"])
    inter = InteractionSpec(**cfg["interaction"])
    g, N, initial = cfg["g"], cfg["N"], cfg["initial"]
    pcfg = dyn.PropagatorConfig(
        dt=cfg["dt"], t_final=cfg["t_final"], record_every=cfg["record_every"]
    )
    if initial == "gp_ground":
        trap = TrapSpec(**cfg["trap"])
        phi0 = gs.gp_minimize(grid, trap, g * inter.integral(grid.d)).field
    elif initial == "gaussian":
        if raw.get("trap") is not None:
            raise ValueError("the gaussian initial state does not read the trap")
        vals = np.exp(-grid.r2 / 2.0).astype(np.complex128)
        phi0 = normalize(Field(grid, vals))
    else:
        raise ValueError(f"unknown initial state {initial!r}")
    header = [
        f"grid: {grid.d}D n={grid.n} half_width={grid.half_width}",
        f"g={g} N={N} t_final={pcfg.t_final} dt={pcfg.dt}",
    ]
    try:
        rep = dyn.compare_h_vs_gp(phi0, inter, g, N, pcfg)
    except RuntimeError as exc:  # the mass-drift or the non-finite guard refused a run
        _write_json(args.out, "dynamics.json", {"error": str(exc), "passed": False})
        return _report(header + [f"failed check: {exc}"], False)
    lines = header + [
        f"final distance {rep.final_distance:.6e} (bound {rep.bound[-1]:.6e})",
        f"mass drift: gp {rep.trace_gp.mass_drift:.3e}, "
        f"hartree {rep.trace_hartree.mass_drift:.3e}",
    ]
    payload = {
        "times": rep.times,
        "distance": rep.distance,
        "bound": rep.bound,
        "final_distance": rep.final_distance,
        "mass_drift_gp": rep.trace_gp.mass_drift,
        "mass_drift_hartree": rep.trace_hartree.mass_drift,
        "passed": rep.passed,
    }
    _write_json(args.out, "dynamics.json", payload)
    return _report(lines, rep.passed)


# the config keys (and the flags of the same name) each manybody check reads
_MANYBODY_READS = {
    "appendix": {"N", "M", "trials", "seed"},
    "gapchain": {"N", "M", "modes", "g", "beta", "lambda_weight", "trials", "seed"},
    "gronwall": {"N", "M", "modes", "g", "beta", "lambda_weight", "t_final", "steps"},
}


def _cmd_manybody(args) -> int:
    keys = {
        "N": 4, "M": 3, "modes": "harmonic", "check": "appendix", "trials": 200, "seed": 0,
        "g": float, "beta": 0.2, "lambda_weight": 0.5, "t_final": 0.5, "steps": 11,
    }
    raw = _load_config(args.config)
    cfg = _take(raw, "config", keys)
    check = args.check or cfg["check"]
    if check not in _MANYBODY_READS:
        raise ValueError(f"unknown check {check!r}")
    flags = ("N", "M", "modes", "trials", "seed")
    given = {key for key, value in raw.items() if value is not None}
    given |= {key for key in flags if getattr(args, key) is not None}
    ignored = given - _MANYBODY_READS[check] - {"check"}
    if ignored:
        raise ValueError(f"the {check} check does not read {sorted(ignored)}")
    N = args.N if args.N is not None else cfg["N"]
    M = args.M if args.M is not None else cfg["M"]
    mode_kind = args.modes or cfg["modes"]
    trials = args.trials if args.trials is not None else cfg["trials"]
    # the coupling's default depends on the check
    g = cfg["g"] if cfg["g"] is not None else (0.1 if check == "gronwall" else 0.5)
    beta, lam = cfg["beta"], cfg["lambda_weight"]
    seed = args.seed if args.seed is not None else cfg["seed"]

    if check == "appendix":
        rep = mb.verify_appendix(N, M, trials, seed=seed)
        lines = [
            f"appendix identities: N={N} M={M} trials={trials}",
            "violations: "
            + ", ".join(f"{k}={v}" for k, v in rep.violations.items()),
        ]
        payload = {"violations": rep.violations, "max_dev": rep.max_dev, "passed": rep.passed}
        _write_json(args.out, "manybody_appendix.json", payload)
        return _report(lines, rep.passed)

    inter = InteractionSpec(profile="gaussian", beta=beta)
    H = harness._mode_hamiltonian(inter, N, M, g, lam, mode_kind)

    if check == "gapchain":
        header = f"gap chain: N={N} M={M} g={g} modes={mode_kind}"
        try:
            rep = mb.verify_gap_chain(H, lam=lam, samples=trials, seed=seed)
        except RuntimeError as exc:  # no mean-field reference to test the chain against
            _write_json(args.out, "manybody_gapchain.json", {"error": str(exc), "passed": False})
            return _report([header, f"failed check: mean-field reference ({exc})"], False)
        lines = [
            header,
            f"min eig chain {rep.min_eig_chain:.3e}, min eig counting "
            f"{rep.min_eig_nplus:.3e}, sandwich violations "
            f"{rep.sandwich_violations}/{rep.samples}, depletion {rep.depletion:.3e}",
        ]
        payload = {
            "mu0": rep.mu0,
            "mu1": rep.mu1,
            "min_eig_chain": rep.min_eig_chain,
            "min_eig_nplus": rep.min_eig_nplus,
            "sandwich_violations": rep.sandwich_violations,
            "depletion": rep.depletion,
            "passed": rep.passed,
        }
        _write_json(args.out, "manybody_gapchain.json", payload)
        return _report(lines, rep.passed)

    # gronwall
    rep = harness._product_track(H, np.linspace(0.0, cfg["t_final"], cfg["steps"]), lam)
    passed = rep.passed
    lines = [
        f"counting-rate identity: N={N} M={M} g={g} modes={mode_kind}",
        f"max |d(alpha)/dt - rate| = {rep.max_rate_mismatch:.3e}",
        f"sandwich violations {rep.sandwich_violations}, "
        f"term-bound violations {rep.bound_violations}",
    ]
    payload = {
        "times": rep.times,
        "alpha": rep.alpha,
        "rate": rep.rate,
        "max_rate_mismatch": rep.max_rate_mismatch,
        "sandwich_violations": rep.sandwich_violations,
        "bound_violations": rep.bound_violations,
        "galerkin_leakage": rep.galerkin_leakage,
        "passed": passed,
    }
    _write_json(args.out, "manybody_gronwall.json", payload)
    return _report(lines, passed)


def _cmd_scattering(args) -> int:
    # the interaction comes as a block or as its keys at the top level, not
    # both; the top-level keys are read by type only, so an absent one is None
    keys = {"interaction": None, "kappa": None, "r_max": 12.0, "mesh": 4096, "born_window": None}
    keys.update((key, type(default)) for key, default in _INTERACTION_KEYS.items())
    cfg = _load_config(args.config, keys)
    flat = {key: cfg[key] for key in _INTERACTION_KEYS if cfg[key] is not None}
    if cfg["interaction"] is not None and flat:
        raise ValueError(
            f"interaction key(s) {sorted(flat)} given both at the top level "
            "and in the interaction block"
        )
    block = flat if cfg["interaction"] is None else cfg["interaction"]
    inter = InteractionSpec(**_take(block, "interaction", _INTERACTION_KEYS))
    kappas = _numbers(1e-3 if cfg["kappa"] is None else cfg["kappa"], "kappa")
    window = cfg["born_window"]
    if window is not None:
        window = _numbers(window, "born_window")
        if len(window) != 2:
            raise ValueError(f"'born_window' must be [low, high], got {cfg['born_window']!r}")
    lines = []
    rows = []
    passed = True
    for kappa in sorted(kappas):
        res = scattering_length(inter, kappa, r_max=cfg["r_max"], mesh=cfg["mesh"])
        ratio = res.a / res.a_born
        rows.append({"kappa": kappa, "a": res.a, "a_born": res.a_born, "ratio": ratio})
        lines.append(
            f"kappa={kappa:g}: a={res.a:.12e} born={res.a_born:.12e} ratio={ratio:.6f}"
        )
    if window is not None and rows:
        lo, hi = window
        ratio0 = rows[0]["ratio"]  # smallest coupling is closest to the Born limit
        passed = lo <= ratio0 <= hi
        lines.append(f"born window [{lo}, {hi}] on kappa={rows[0]['kappa']:g}: {ratio0:.6f}")
    _write_json(args.out, "scattering.json", {"rows": rows, "passed": passed})
    return _report(lines, passed)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfcond",
        description="Trapped-condensate solvers: ground states, sweeps, "
        "mean-field dynamics, and exact few-boson verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *int_flags, config_required=True):
        p.add_argument(
            "--config",
            required=config_required,
            help="JSON config file",
        )
        p.add_argument("--out", default=None, help="directory for artifacts")
        for flag in int_flags:
            p.add_argument(flag, type=int, default=None)

    p = sub.add_parser("groundstate", help="minimize the cubic functional, report spectrum")
    common(p)
    p.set_defaults(func=_cmd_groundstate)

    p = sub.add_parser("gap", help="spectral-gap sweep over the coupling")
    common(p, "--seed")
    p.set_defaults(func=_cmd_study, kind="gap_vs_g", workers=None)

    p = sub.add_parser("dynamics", help="convolution-vs-cubic flow comparison")
    common(p)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("manybody", help="exact few-boson verifications")
    common(p, "--seed", config_required=False)
    p.add_argument("--N", type=int, default=None, help="particle number")
    p.add_argument("--M", type=int, default=None, help="mode count")
    p.add_argument(
        "--modes", choices=("harmonic", "planewave"), default=None, help="mode family"
    )
    p.add_argument(
        "--check",
        choices=("appendix", "gapchain", "gronwall"),
        default=None,
        help="which verification to run",
    )
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_manybody)

    p = sub.add_parser("study", help="run a parameter study from a spec")
    common(p, "--seed", "--workers")
    p.set_defaults(func=_cmd_study, kind=None)

    p = sub.add_parser("scattering", help="zero-energy scattering length")
    common(p)
    p.set_defaults(func=_cmd_scattering)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
