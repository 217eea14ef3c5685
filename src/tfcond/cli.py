"""Command-line front end: ground states, sweeps, dynamics, verifications.

Every subcommand reads a JSON config, prints a short report, optionally
writes artifacts to --out, and exits 0 exactly when its embedded acceptance
rules pass (1 on rule failure, 2 on bad configs).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import groundstate as gs
from . import harness
from . import manybody as mb
from .grids import make_grid
from .model import InteractionSpec, RegimeParams, TrapSpec, scattering_length

__all__ = ["main", "build_parser"]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    return data


def _known(block: dict, keys, where: str = "config") -> dict:
    """block itself; an unknown (say, misspelt) key raises, so the CLI exits 2."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {unknown}")
    return block


def _grid_from(cfg: dict, default_d=3, default_n=64, default_half=8.0):
    block = _known(cfg.get("grid", {}), "d n half_width".split(), "grid")
    return make_grid(
        int(block.get("d", default_d)),
        int(block.get("n", default_n)),
        float(block.get("half_width", default_half)),
    )


def _trap_from(cfg: dict) -> TrapSpec:
    block = _known(cfg.get("trap", {}), "strength s".split(), "trap")
    return TrapSpec(strength=float(block.get("strength", 1.0)), s=float(block.get("s", 2)))


def _interaction_from(cfg: dict) -> InteractionSpec:
    block = _known(cfg.get("interaction", {}), "profile beta".split(), "interaction")
    return InteractionSpec(
        profile=block.get("profile", "gaussian"), beta=float(block.get("beta", 0.2))
    )


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
    cfg = _known(_load_config(args.config), "grid trap G tol spectrum_k".split())
    grid = _grid_from(cfg)
    trap = _trap_from(cfg)
    G = float(cfg.get("G", 0.0))
    tol = float(cfg.get("tol", 1e-6))
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
    k = int(cfg.get("spectrum_k", 0))
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


def _study_spec_from(cfg: dict, args, kind: str | None = None) -> harness.StudySpec:
    block = dict(cfg.get("study", cfg))
    if kind is not None:
        block["kind"] = kind
    if "values" in block:
        block["values"] = tuple(block["values"])
    if args.out is not None:
        block["out_dir"] = args.out
    if args.seed is not None:
        block["seed"] = args.seed
    if args.workers is not None:
        block["workers"] = args.workers
    return harness.StudySpec(**_known(block, harness.StudySpec.__dataclass_fields__, "study"))


def _run_study_cmd(spec: harness.StudySpec) -> int:
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


def _cmd_gap(args) -> int:
    cfg = _load_config(args.config)
    if "values" not in cfg and "g_values" in cfg:
        cfg["values"] = cfg.pop("g_values")
    return _run_study_cmd(_study_spec_from(cfg, args, kind="gap_vs_g"))


def _cmd_study(args) -> int:
    cfg = _load_config(args.config)
    return _run_study_cmd(_study_spec_from(cfg, args))


def _cmd_dynamics(args) -> int:
    keys = "grid trap interaction g N dt t_final record_every initial"
    cfg = _known(_load_config(args.config), keys.split())
    grid = _grid_from(cfg, default_d=1, default_n=4096, default_half=16.0)
    inter = _interaction_from(cfg)
    g = float(cfg.get("g", 4.0))
    N = int(cfg.get("N", 1024))
    pcfg = dyn.PropagatorConfig(
        dt=float(cfg.get("dt", 2.5e-4)),
        t_final=float(cfg.get("t_final", 0.5)),
        record_every=int(cfg.get("record_every", 200)),
    )
    initial = cfg.get("initial", "gp_ground")
    if initial == "gp_ground":
        trap = _trap_from(cfg)
        phi0 = gs.gp_minimize(grid, trap, g * inter.integral(grid.d)).field
    elif initial == "gaussian":
        from .grids import Field, normalize

        vals = np.exp(-grid.r2 / 2.0).astype(np.complex128)
        phi0 = normalize(Field(grid, vals, "position"))
    else:
        raise ValueError(f"unknown initial state {initial!r}")
    rep = dyn.compare_h_vs_gp(phi0, inter, g, N, pcfg)
    lines = [
        f"grid: {grid.d}D n={grid.n} half_width={grid.half_width}",
        f"g={g} N={N} t_final={pcfg.t_final} dt={pcfg.dt}",
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


def _cmd_manybody(args) -> int:
    keys = "N M modes check trials g beta lambda_weight seed t_final steps"
    cfg = _known(_load_config(args.config), keys.split())
    N = args.N if args.N is not None else int(cfg.get("N", 4))
    M = args.M if args.M is not None else int(cfg.get("M", 3))
    mode_kind = args.modes or cfg.get("modes", "harmonic")
    check = args.check or cfg.get("check", "appendix")
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 200))
    g = float(cfg.get("g", 0.1 if check == "gronwall" else 0.5))
    beta = float(cfg.get("beta", 0.2))
    lam = float(cfg.get("lambda_weight", 0.5))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))

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

    grid = make_grid(1, 64, 8.0)
    if mode_kind == "harmonic":
        modes = mb.ModeBasis.harmonic(grid, M)
        trap = TrapSpec(strength=1.0, s=2)
    elif mode_kind == "planewave":
        modes = mb.ModeBasis.planewave(grid, M)
        trap = None
    else:
        raise ValueError(f"unknown mode kind {mode_kind!r}")
    inter = InteractionSpec(profile="gaussian", beta=beta)
    reg = RegimeParams(N=N, beta=beta, g_N=g, lambda_weight=lam)
    H = mb.build(modes, trap, inter, reg)

    if check == "gapchain":
        _, h_gp = mb.gp_modes_ground(modes, H.h_mat, H.kernel, H.g)
        rep = mb.verify_gap_chain(H, h_gp, lam=lam, samples=trials, seed=seed)
        lines = [
            f"gap chain: N={N} M={M} g={g} modes={mode_kind}",
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

    if check == "gronwall":
        phi0 = np.zeros(M, dtype=complex)
        phi0[0] = 1.0
        psi0 = mb.product_state(H.sector, phi0)
        t_grid = np.linspace(0.0, float(cfg.get("t_final", 0.5)), int(cfg.get("steps", 11)))
        rep = mb.evolve_and_track(
            psi0, H, phi0, mb.hartree_from_hamiltonian(H), t_grid, lam
        )
        passed = (
            rep.max_rate_mismatch < 1e-6
            and rep.sandwich_violations == 0
            and rep.bound_violations == 0
            and rep.gronwall_ok
        )
        lines = [
            f"counting-rate identity: N={N} M={M} g={g} modes={mode_kind}",
            f"max |d(alpha)/dt - rate| = {rep.max_rate_mismatch:.3e}",
            f"sandwich violations {rep.sandwich_violations}, "
            f"term-bound violations {rep.bound_violations}, "
            f"envelope c = {rep.gronwall_c:.3e}",
        ]
        payload = {
            "times": rep.times,
            "alpha": rep.alpha,
            "rate": rep.rate,
            "max_rate_mismatch": rep.max_rate_mismatch,
            "sandwich_violations": rep.sandwich_violations,
            "bound_violations": rep.bound_violations,
            "gronwall_c": rep.gronwall_c,
            "galerkin_leakage": rep.galerkin_leakage,
            "passed": passed,
        }
        _write_json(args.out, "manybody_gronwall.json", payload)
        return _report(lines, passed)

    raise ValueError(f"unknown check {check!r}")


def _cmd_scattering(args) -> int:
    keys = "interaction profile beta kappa r_max mesh born_window"
    cfg = _known(_load_config(args.config), keys.split())
    flat = {k: cfg[k] for k in ("profile", "beta") if k in cfg}
    inter = _interaction_from({"interaction": cfg.get("interaction", flat)})
    kappas = cfg.get("kappa", 1e-3)
    if not isinstance(kappas, list):
        kappas = [kappas]
    r_max = float(cfg.get("r_max", 12.0))
    mesh = int(cfg.get("mesh", 4096))
    window = cfg.get("born_window")
    lines = []
    rows = []
    passed = True
    for kappa in sorted(float(k) for k in kappas):
        res = scattering_length(inter, kappa, r_max=r_max, mesh=mesh)
        ratio = res.a / res.a_born
        rows.append({"kappa": kappa, "a": res.a, "a_born": res.a_born, "ratio": ratio})
        lines.append(
            f"kappa={kappa:g}: a={res.a:.12e} born={res.a_born:.12e} ratio={ratio:.6f}"
        )
    if window is not None and rows:
        lo, hi = float(window[0]), float(window[1])
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

    def common(p, config_required=True):
        p.add_argument(
            "--config",
            required=config_required,
            help="JSON config file",
        )
        p.add_argument("--out", default=None, help="directory for artifacts")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("groundstate", help="minimize the cubic functional, report spectrum")
    common(p)
    p.set_defaults(func=_cmd_groundstate)

    p = sub.add_parser("gap", help="spectral-gap sweep over the coupling")
    common(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("dynamics", help="convolution-vs-cubic flow comparison")
    common(p)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("manybody", help="exact few-boson verifications")
    common(p, config_required=False)
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
    common(p)
    p.set_defaults(func=_cmd_study)

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
