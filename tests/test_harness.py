"""Tests for the study runner, exponent fits, and the command line."""

import ast
import dataclasses
import difflib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tfcond
from tfcond import cli
from tfcond import dynamics as dyn
from tfcond import groundstate as gs
from tfcond import harness
from tfcond.harness import TOLERANCES, StudySpec, fit_loglog, run_study, write_csv
from tfcond.dynamics import PropagatorConfig, compare_h_vs_gp, propagate
from tfcond.grids import Field, make_grid
from tfcond.model import InteractionSpec, TrapSpec


@pytest.mark.parametrize(
    "module",
    ["tfcond"] + [f"tfcond.{m.name}" for m in pkgutil.iter_modules(tfcond.__path__)],
)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# Public functions that nothing but their unit tests calls yet: the regime
# window and the Assumption 1 check stay public until the studies gate on
# them (ROADMAP item 1).
_UNREACHED_EXEMPT = ("model.admissibility", "model.check_assumption1")


_MODULES = {info.name for info in pkgutil.iter_modules(tfcond.__path__)}


def _used_names(path):
    """The (module, name) pairs of tfcond functions a file uses.

    A use is ``mod.name`` with ``mod`` bound to a tfcond module, an import of
    ``name`` from that module, or a bare ``name`` read inside the module itself.
    A use inside a function of the same name, such as a recursive call,
    does not count.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem if path.parent.name == "tfcond" else None
    bound = {}  # local name -> the tfcond module it is bound to
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mod = alias.name.removeprefix("tfcond.")
                if alias.asname and mod in _MODULES:
                    bound[alias.asname] = mod
        elif isinstance(node, ast.ImportFrom):
            # "from tfcond import m" and "from . import m" bind m;
            # "from tfcond.m import f" and "from .m import f" use f
            source = (node.module or "").removeprefix("tfcond").lstrip(".")
            for alias in node.names:
                if not source and alias.name in _MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif source in _MODULES:
                    found.add((source, alias.name))

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        use = None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bound:
                use = (bound[node.value.id], node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            use = (own, node.id)
        if use is not None and use[1] not in enclosing:
            found.add(use)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_function_is_reached():
    # every function in a module's __all__ has a caller in the package, the
    # benchmark or the acceptance suite; code only unit tests call lives in
    # the tests
    files = [
        *(ROOT / "src" / "tfcond").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set().union(*map(_used_names, files))
    unreached = []
    for module in sorted(_MODULES):
        mod = importlib.import_module(f"tfcond.{module}")
        unreached += [
            f"{module}.{name}"
            for name in mod.__all__
            if inspect.isfunction(getattr(mod, name)) and (module, name) not in used
        ]
    assert sorted(unreached) == sorted(_UNREACHED_EXEMPT)


def test_reach_guard_resolves_the_module_of_a_name(tmp_path):
    # a name counts only where it refers to that module's function
    script = tmp_path / "uses.py"
    script.write_text(
        "import tfcond.model as md\n"
        "from tfcond import manybody as mb\n"
        "from tfcond.groundstate import gp_minimize\n"
        "alpha = 1\n"
        "md.scattering_length, mb.build, x.ground_state\n"
    )
    assert _used_names(script) == {
        ("groundstate", "gp_minimize"), ("model", "scattering_length"), ("manybody", "build"),
    }


def test_bench_tracer_installs_and_restores(monkeypatch):
    # the traced benchmark patches these methods by name, so a rename must
    # fail here and not only in a --trace 1 run
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    patched = {(m, c, f) for m, c, f, _ in tracing.METHODS}
    assert patched >= {
        ("manybody", "SymmetricSector", "__init__"),
        ("manybody", "SymmetricSector", "one_body_matrix"),
        ("manybody", "SymmetricSector", "two_body_matrix"),
        ("manybody", "ProjectorContext", "__init__"),
    }
    mods = {layer: importlib.import_module(f"tfcond.{layer}") for layer in tracing.LAYERS}

    def bound():
        names = {key: getattr(getattr(mods[key[0]], key[1]), key[2]) for key in patched}
        for layer, mod in mods.items():
            names.update(((layer, name), getattr(mod, name)) for name in mod.__all__)
        names["eigh"], names["fft"] = np.linalg.eigh, np.fft.fft
        names["harness pool"] = harness.ThreadPoolExecutor
        names["dynamics pool"] = dyn.ThreadPoolExecutor
        return names

    before = bound()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = bound()
        assert all(during[key] is not before[key] for key in patched)
        mods["manybody"].SymmetricSector(2, 2)
        assert [span[2] for span in tracer.spans] == ["manybody.SymmetricSector"]
    finally:
        tracer.uninstall()
    after = bound()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


class TestFitLoglog:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_loglog(np.c_[x, x**2])
        assert abs(fit.slope - 2.0) < 1e-10
        assert fit.residual < 1e-12

    def test_noisy_decay(self):
        rng = np.random.default_rng(0)
        x = np.logspace(0, 2, 12)
        y = 3.0 * x**-0.4 * (1.0 + 0.01 * rng.standard_normal(12))
        fit = fit_loglog(np.c_[x, y])
        assert abs(fit.slope + 0.4) < 0.02

    def test_two_points_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_loglog([(1.0, 1.0), (2.0, 4.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_loglog([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)])

    def test_reports_table(self):
        fit = fit_loglog([(1.0, 2.0), (2.0, 4.0), (4.0, 8.0)])
        assert fit.points.shape == (3, 2)
        assert np.isfinite(fit.residual)


class TestStudySpec:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            StudySpec(kind="gap_vs_g", values=())

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            StudySpec(kind="gap_vs_g", values=(10.0, 5.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            StudySpec(kind="everything", values=(1,))

    def test_unknown_manybody_check_rejected(self):
        with pytest.raises(ValueError, match="check"):
            StudySpec(kind="manybody_suite", values=("appendix", "frobnicate"))

    def test_grid_d_a_kind_does_not_run_rejected(self):
        for kind in ("gap_vs_g", "linf_vs_g", "tf_convergence"):
            with pytest.raises(ValueError, match="3D grid"):
                StudySpec(kind=kind, values=(10,), grid_d=1)
        with pytest.raises(ValueError, match="1D grid"):
            StudySpec(kind="hgp_rate_vs_N", values=(64, 128), grid_d=3)
        # a kind that runs on one dimension defaults to it
        assert StudySpec(kind="hgp_rate_vs_N", values=(64, 128)).grid_d == 1
        assert StudySpec(kind="gap_vs_g", values=(10,)).grid_d == 3
        assert StudySpec(kind="lemma26_vs_N", values=(64,)).grid_d == 3

    def test_non_integral_particle_numbers_rejected(self):
        for kind, grid_d in (("lemma26_vs_N", 1), ("hgp_rate_vs_N", 1)):
            with pytest.raises(ValueError, match="integers"):
                StudySpec(kind=kind, values=(64.5, 128, 256), grid_d=grid_d)
            assert StudySpec(kind=kind, values=(64.0, 128), grid_d=grid_d).values == (64.0, 128)


def _small_lemma26(**kw):
    base = dict(
        kind="lemma26_vs_N",
        values=(64, 128, 256, 512),
        grid_d=1,
        grid_n=512,
        half_width=8.0,
        beta=0.2,
        workers=2,
    )
    base.update(kw)
    return StudySpec(**base)


class TestRunStudy:
    def test_lemma26_rows_and_checks(self):
        res = run_study(_small_lemma26())
        assert len(res.rows) == 4
        assert all(r["status"] == "ok" for r in res.rows)
        assert all(r["measured"] <= r["bound"] for r in res.rows)
        names = {c.name for c in res.checks}
        assert {"smearing_below_bound", "smearing_rate", "point_failures"} <= names
        assert res.passed
        assert res.fits["smearing_vs_N"].slope <= -0.15

    def test_lemma26_grid_defaults_by_dimension(self):
        # 2D and 3D take 128 points on [-3, 3) per axis, not 4096^d points
        for grid_d, grid in ((1, (4096, 8.0)), (2, (128, 3.0)), (3, (128, 3.0))):
            spec = StudySpec(kind="lemma26_vs_N", values=(64,), grid_d=grid_d)
            assert (spec.grid_n, spec.half_width) == grid

    def test_lemma26_2d_passes_on_its_default_grid(self):
        res = run_study(
            StudySpec(kind="lemma26_vs_N", values=(64, 256, 1024, 4096), grid_d=2, workers=1)
        )
        assert res.passed
        assert {(r["grid_n"], r["half_width"]) for r in res.rows} == {(128, 3.0)}

    def test_rerun_is_byte_identical(self):
        # the many-body suite runs its checks on 2 threads and draws every
        # random number from its own seeded generator, none from numpy's
        # global random state
        small_suite = StudySpec(
            kind="manybody_suite", values=("gapchain", "gronwall"), mb_trials=5, workers=2
        )
        for spec, header in ((_small_lemma26(), "N,"), (small_suite, "check,")):
            a = run_study(spec)
            b = run_study(spec)
            assert a.csv_text == b.csv_text
            assert a.csv_text.startswith(header)

    def test_rows_carry_full_parameters(self):
        res = run_study(_small_lemma26())
        header = res.csv_text.splitlines()[0].split(",")
        for key in ("N", "grid_d", "grid_n", "half_width", "beta", "status"):
            assert key in header

    def test_failed_points_recorded_and_tolerance_applied(self):
        # the last N cannot be resolved on this grid: 1/3 of points fail (> 20%)
        spec = _small_lemma26(values=(64, 128, 100_000))
        res = run_study(spec)
        failed = [r for r in res.rows if r["status"] != "ok"]
        assert len(failed) == 1
        assert "resolve" in failed[0]["status"]
        assert not res.passed
        frac = [c for c in res.checks if c.name == "point_failures"][0]
        assert not frac.passed

    def test_hgp_rate_small(self):
        spec = StudySpec(
            kind="hgp_rate_vs_N",
            values=(64, 128, 256),
            grid_d=1,
            grid_n=512,
            half_width=8.0,
            g=4.0,
            t_final=0.05,
            dt=1e-3,
            workers=2,
        )
        res = run_study(spec)
        assert res.passed
        by_name = {c.name: c for c in res.checks}
        assert by_name["distance_decreasing_in_N"].passed
        assert by_name["mass_conserved"].value < 1e-12
        assert abs(by_name["splitting_order"].value - 2.0) <= 0.1
        assert res.fits["distance_vs_N"].slope <= -0.05

    def test_hgp_rate_rows_equal_standalone_comparisons(self):
        # one GP trajectory per sweep gives the numbers of one GP run per point
        spec = StudySpec(
            kind="hgp_rate_vs_N",
            values=(64, 256),
            grid_d=1,
            grid_n=256,
            half_width=8.0,
            g=4.0,
            t_final=0.25,
            dt=1e-3,
            workers=2,
        )
        res = run_study(spec)
        inter = InteractionSpec(profile=spec.profile, beta=spec.beta)
        grid = make_grid(1, spec.grid_n, spec.half_width)
        trap = TrapSpec(strength=spec.trap_strength, s=spec.trap_s)
        phi0 = gs.gp_minimize(grid, trap, spec.g * inter.integral(1)).field
        cfg = PropagatorConfig(dt=spec.dt, t_final=spec.t_final, record_every=200)
        assert [r["status"] for r in res.rows] == ["ok", "ok"]
        for row, N in zip(res.rows, spec.values):
            rep = compare_h_vs_gp(phi0, inter, spec.g, N, cfg)
            assert len(rep.times) == 3
            assert row["final_distance"] == rep.final_distance
            assert row["final_bound"] == float(rep.bound[-1])
            assert row["mass_drift_gp"] == rep.trace_gp.mass_drift

    def test_hgp_rate_gp_failure_fails_every_point(self):
        spec = StudySpec(
            kind="hgp_rate_vs_N",
            values=(64, 128),
            grid_d=1,
            grid_n=256,
            half_width=8.0,
            g=4.0,
            t_final=1.0,
            dt=0.5,
        )
        res = run_study(spec)
        assert not res.passed
        for row in res.rows:
            assert row["status"].startswith("failed: potential phase per step")

    def test_manybody_suite_small(self):
        spec = StudySpec(
            kind="manybody_suite",
            values=("appendix", "gapchain", "gronwall"),
            mb_trials=5,
            workers=2,
        )
        res = run_study(spec)
        assert res.passed
        assert all(r["violations"] == 0 for r in res.rows)

    def test_gap_vs_g_gates_spectrum_convergence(self, monkeypatch):
        spec = StudySpec(kind="gap_vs_g", values=(0.5, 1.0, 2.0), grid_n=16, half_width=8.0)
        res = run_study(spec)
        check = {c.name: c for c in res.checks}["spectrum_converged"]
        assert check.passed and check.value == 0.0
        assert [r["status"] for r in res.rows] == ["ok"] * 3
        assert all(r["spectrum_converged"] for r in res.rows)

        # a point whose spectrum did not converge fails the study
        intv = InteractionSpec(profile="gaussian", beta=0.2).integral(3)
        solve = gs.hgp_spectrum

        def unconverged_at_smallest_g(grid, trap, G, phi, **kw):
            out = solve(grid, trap, G, phi, **kw)
            return dataclasses.replace(out, converged=G > 0.75 * intv)

        monkeypatch.setattr(gs, "hgp_spectrum", unconverged_at_smallest_g)
        res = run_study(spec)
        check = {c.name: c for c in res.checks}["spectrum_converged"]
        assert not check.passed and check.value == 1.0
        assert not res.passed

    def test_threads_only_where_a_sweep_gains(self, monkeypatch):
        # the coupling sweep solves its points on one thread and reads no workers
        with pytest.raises(ValueError, match="does not read.*workers"):
            StudySpec(kind="gap_vs_g", values=(0.5, 1.0, 2.0), workers=2)
        threads = []
        minimize = gs.gp_minimize

        def recording_minimize(*args, **kw):
            threads.append(threading.get_ident())
            return minimize(*args, **kw)

        monkeypatch.setattr(gs, "gp_minimize", recording_minimize)
        spec = StudySpec(kind="gap_vs_g", values=(0.5, 1.0, 2.0), grid_n=16, half_width=8.0)
        assert run_study(spec).passed
        assert len(threads) == 3 and len(set(threads)) == 1

        # an N sweep steps the cubic flow and its convolution flows in one
        # stack per worker, one _strang call each, the cubic flow as row 0 of
        # the first: at workers=2 both stacks (2 + 2 rows) must be inside the
        # stepper at once to pass the barrier, at workers=1 one stack holds
        # all four (the splitting-order check's runs record no distances)
        stack_calls = []
        barrier = threading.Barrier(2, timeout=60)
        strang = dyn._strang

        def recording_strang(phi0, couplings, config, on_record=None):
            if on_record is not None:
                kernels = [kernel is not None for _, kernel in couplings]
                stack_calls.append((threading.get_ident(), kernels))
                if workers == 2:
                    barrier.wait()
            return strang(phi0, couplings, config, on_record)

        monkeypatch.setattr(dyn, "_strang", recording_strang)
        for workers in (2, 1):
            stack_calls.clear()
            spec = StudySpec(
                kind="hgp_rate_vs_N", values=(64, 128, 256), grid_d=1, grid_n=256,
                half_width=8.0, t_final=0.05, dt=1e-3, workers=workers,
            )
            res = run_study(spec)
            assert [r["status"] for r in res.rows] == ["ok", "ok", "ok"]
            assert [r["N"] for r in res.rows] == [64, 128, 256]
            stacks = sorted(kernels for _, kernels in stack_calls)
            if workers == 1:
                assert stacks == [[False, True, True, True]]
            else:
                assert stacks == [[False, True], [True, True]]
            assert len({ident for ident, _ in stack_calls}) == workers

    def test_hgp_rate_failed_flow_fails_only_its_point(self, monkeypatch):
        kernel_on_grid = InteractionSpec.kernel_on_grid

        def kernel(self, grid, N):
            k = kernel_on_grid(self, grid, N)
            if N == 128:
                return Field(grid, np.where(np.arange(grid.n) == 3, np.nan, k.values.real))
            return k

        monkeypatch.setattr(InteractionSpec, "kernel_on_grid", kernel)
        spec = StudySpec(
            kind="hgp_rate_vs_N", values=(64, 128, 256), grid_d=1, grid_n=256,
            half_width=8.0, t_final=0.05, dt=1e-3, workers=1,
        )
        res = run_study(spec)
        inter = InteractionSpec(profile=spec.profile, beta=spec.beta)
        grid = make_grid(1, spec.grid_n, spec.half_width)
        trap = TrapSpec(strength=spec.trap_strength, s=spec.trap_s)
        phi0 = gs.gp_minimize(grid, trap, spec.g * inter.integral(1)).field
        cfg = PropagatorConfig(dt=spec.dt, t_final=spec.t_final, record_every=200)
        with pytest.raises(RuntimeError) as alone:
            propagate(phi0, spec.g, cfg, inter.kernel_on_grid(grid, 128))
        assert [r["status"] for r in res.rows] == ["ok", f"failed: {alone.value}", "ok"]
        assert res.rows[1]["N"] == 128
        assert res.csv_text.splitlines()[2].startswith("128,")
        for row in (res.rows[0], res.rows[2]):
            rep = compare_h_vs_gp(phi0, inter, spec.g, row["N"], cfg)
            assert row["final_distance"] == rep.final_distance

    def test_hgp_rate_violated_bound_fails_the_study(self, monkeypatch):
        # a bound below the measured distance at one N fails that point's
        # bound_respected and the study, not the point
        bound_of = dyn._hartree_gp_bound

        def tight_at_256(trace_gp, N, beta, g, dist1):
            bound = bound_of(trace_gp, N, beta, g, dist1)
            return 0.5 * dist1 * bound / bound[1] if N == 256 else bound

        monkeypatch.setattr(dyn, "_hartree_gp_bound", tight_at_256)
        spec = StudySpec(
            kind="hgp_rate_vs_N", values=(64, 128, 256, 512, 1024, 2048), grid_d=1,
            grid_n=256, half_width=8.0, t_final=0.05, dt=1e-3,
        )
        res = run_study(spec)
        assert [r["status"] for r in res.rows] == ["ok"] * 6
        assert [r["bound_respected"] for r in res.rows] == [True, True, False, True, True, True]
        checks = {c.name: c for c in res.checks}
        assert not checks["bound_respected"].passed
        assert checks["bound_respected"].value == 1.0
        assert checks["point_failures"].value == 0.0
        assert not res.passed

    def test_hgp_rate_keeps_its_mass_at_half_dt(self):
        # criterion 07's grid and dt / 2: the even flows step on the all-even
        # sector, whose mass drift stays below the guard (the full grid's
        # FFTs drifted 1.22e-12 here)
        spec = StudySpec(kind="hgp_rate_vs_N", values=(64, 512, 4096), grid_d=1, dt=1.25e-4)
        res = run_study(spec)
        assert [r["status"] for r in res.rows] == ["ok"] * 3
        checks = {c.name: c for c in res.checks}
        assert checks["mass_conserved"].passed
        assert checks["mass_conserved"].value < TOLERANCES["mass_drift"]
        assert res.passed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hgp_rate_csv_keeps_its_bytes(self, workers):
        spec = StudySpec(
            kind="hgp_rate_vs_N", values=(64, 128, 256), grid_d=1, grid_n=256,
            half_width=8.0, t_final=0.05, dt=1e-3, workers=workers,
        )
        assert run_study(spec).csv_text == _HGP_RATE_GOLDEN_CSV

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lemma26_csv_keeps_its_bytes(self, workers):
        # both sweeps run before either is compared, so a change that moves
        # one golden shows at once whether it moved the other as well
        spec = StudySpec(kind="lemma26_vs_N", values=(64, 512, 4096), grid_d=3, workers=workers)
        runs = {
            "1D": (run_study(_small_lemma26(workers=workers)).csv_text, _LEMMA26_GOLDEN_CSV_1D),
            "3D": (run_study(spec).csv_text, _LEMMA26_GOLDEN_CSV_3D),
        }
        moved = [
            f"{name} golden moved:\n" + "\n".join(
                difflib.unified_diff(
                    golden.splitlines(), got.splitlines(), "golden", "run", lineterm=""
                )
            )
            for name, (got, golden) in runs.items()
            if got != golden
        ]
        assert not moved, "\n".join(moved)

    def test_lemma26_computes_the_gradient_once_per_sweep(self, monkeypatch):
        # the state's sup norms do not depend on N: one gradient per sweep,
        # not one per point
        calls = []
        grad_linf = gs._grad_linf

        def counting_grad_linf(phi):
            calls.append(phi)
            return grad_linf(phi)

        monkeypatch.setattr(gs, "_grad_linf", counting_grad_linf)
        res = run_study(_small_lemma26())
        assert [r["status"] for r in res.rows] == ["ok"] * 4
        assert len(calls) == 1

    def test_artifacts_written(self, tmp_path):
        spec = _small_lemma26(out_dir=str(tmp_path))
        res = run_study(spec)
        assert res.csv_path is not None and res.json_path is not None
        summary = json.loads((tmp_path / "lemma26_vs_N_summary.json").read_text())
        assert summary["kind"] == "lemma26_vs_N"
        assert summary["passed"] is True
        assert all("statement" in c for c in summary["checks"])
        csv_text = (tmp_path / "lemma26_vs_N.csv").read_text()
        assert csv_text == res.csv_text


# run_study(StudySpec("hgp_rate_vs_N", (64, 128, 256), grid_d=1, grid_n=256,
# half_width=8.0, t_final=0.05, dt=1e-3)).csv_text, as the even flows stepped
# on the all-even parity sector gave it
_HGP_RATE_GOLDEN_CSV = """\
N,grid_n,half_width,beta,g,t_final,dt,final_distance,final_bound,mass_drift_gp,mass_drift_hartree,bound_respected,status
64,256,8.0,0.2,4.0,0.05,0.001,0.0038961898209454063,5.6042754834722475,1.7763568394002505e-15,4.440892098500626e-16,True,ok
128,256,8.0,0.2,4.0,0.05,0.001,0.002986763133820853,5.073710602035024,1.7763568394002505e-15,1.7763568394002505e-15,True,ok
256,256,8.0,0.2,4.0,0.05,0.001,0.00228348496218214,4.607826379336262,1.7763568394002505e-15,6.661338147750939e-16,True,ok
"""


# run_study(_small_lemma26()).csv_text and the 3D sweep at N = 64, 512, 4096
# on the default 128^3 grid, as one gradient and one convolution per N gave
# them with the interaction moments in closed form
_LEMMA26_GOLDEN_CSV_1D = """\
N,grid_d,grid_n,half_width,beta,measured,bound,ratio,status
64,1,512,8.0,0.2,0.08309520346564037,0.29790090568476607,0.2789357194958325,ok
128,1,512,8.0,0.2,0.064884320168904,0.25933780125029865,0.2501922969042265,ok
256,1,512,8.0,0.2,0.05033658910836847,0.22576666896242578,0.22295846122771099,ok
512,1,512,8.0,0.2,0.03884768329226673,0.19654130083872934,0.19765658986933715,ok
"""
_LEMMA26_GOLDEN_CSV_3D = """\
N,grid_d,grid_n,half_width,beta,measured,bound,ratio,status
64,3,128,3.0,0.2,0.22916022021786198,0.5960631518333644,0.3844562770119466,ok
512,3,128,3.0,0.2,0.11208172811693451,0.39325502208217455,0.2850102905831776,ok
4096,3,128,3.0,0.2,0.051529836811437635,0.25945155629429933,0.19861062908016114,ok
"""


class TestWriteCsv:
    def test_private_keys_excluded(self):
        rows = [{"a": 1, "_elapsed_s": 0.5, "status": "ok"}]
        text = write_csv(rows)
        assert "_elapsed_s" not in text
        assert text.splitlines()[0] == "a,status"

    def test_float_repr_roundtrip(self):
        rows = [{"x": 0.1 + 0.2, "status": "ok"}]
        text = write_csv(rows)
        assert repr(0.1 + 0.2) in text


ROOT = Path(__file__).resolve().parents[1]


def _readme_sections():
    """The text of each subcommand section of the README, by subcommand."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sections = re.split(r"^(?=`\w+` —)", text, flags=re.M)[1:]
    return {section[1 : section.index("`", 1)]: section for section in sections}


def _readme_configs():
    """The JSON config of each subcommand section of the README."""
    configs = {}
    for command, section in _readme_sections().items():
        block = re.search(r"```json\n(.*?)```", section, flags=re.S)
        if block:
            configs[command] = json.loads(block.group(1))
    return configs


# Every case of test_bad_config_value_exits_2 and
# test_bad_number_error_names_the_key carries its test id, so that adding a
# case renames no other test. The cases written before the ids were explicit
# keep the positional names pytest had given them (`study-config52`), under
# which their results are already tracked; a new case takes the key it
# breaks plus a short reason, such as `values-not-finite`.

# study configs that set a field their kind does not read, or one out of its
# range, with the field the error must name and the case's id in
# test_bad_config_value_exits_2
_STUDY_FIELD_CASES = [
    (
        "trap_s",
        {"study": {"kind": "lemma26_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 512,
                   "dt": 5.0, "mb_trials": 7, "g": -3.0, "trap_s": 9.0}}, "study-config32",
    ),
    (
        "beta",
        {"kind": "gap_vs_g", "values": [0.5, 1.0, 2.0], "grid_n": 16, "beta": 0.3},
        "study-config33",
    ),
    (
        "dt",
        {"kind": "linf_vs_g", "values": [0.5, 1.0, 2.0], "grid_n": 16, "dt": 1e-3},
        "study-config34",
    ),
    (
        "mb_trials",
        {"kind": "tf_convergence", "values": [0.5, 1.0, 2.0], "grid_n": 16, "mb_trials": 5},
        "study-config35",
    ),
    (
        "lam",
        {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": 0.05, "dt": 1e-3, "lam": 0.9}, "study-config36",
    ),
    (
        "grid_d",
        {"kind": "manybody_suite", "values": ["appendix"], "mb_trials": 5, "grid_d": 2},
        "study-config37",
    ),
    (
        "lam",
        {"kind": "manybody_suite", "values": ["gapchain", "gronwall"], "lam": 0.0},
        "study-config38",
    ),
    (
        "lam",
        {"kind": "manybody_suite", "values": ["gapchain", "gronwall"], "lam": 1.5},
        "study-config39",
    ),
    (
        "t_final",
        {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": 0, "dt": 1e-3}, "study-config40",
    ),
    # a coupling sweep runs at positive couplings only, an N sweep at g >= 0
    (
        "values",
        {"kind": "tf_convergence", "values": [-2, -1, 0.5], "grid_n": 16},
        "study-config41",
    ),
    ("values", {"kind": "gap_vs_g", "values": [0, 1.0], "grid_n": 16}, "study-config42"),
    ("values", {"kind": "linf_vs_g", "values": [-1.0, 2.0], "grid_n": 16}, "study-config43"),
    (
        "g",
        {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": 0.05, "dt": 1e-3, "g": -3.0}, "study-config44",
    ),
    # particle numbers start at 1, refused before any point runs
    (
        "values",
        {"kind": "lemma26_vs_N", "values": [-64, 0, 64, 128], "grid_d": 1, "grid_n": 512,
         "half_width": 8.0}, "study-config45",
    ),
    (
        "values",
        {"kind": "hgp_rate_vs_N", "values": [0, 64, 128], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": 0.05, "dt": 1e-3}, "study-config46",
    ),
    # a value must be finite (JSON writes NaN and Infinity), and a time step positive
    ("values", {"kind": "gap_vs_g", "values": [10, np.nan, 100], "grid_n": 16}, "study-config47"),
    ("values", {"kind": "gap_vs_g", "values": [10, np.inf], "grid_n": 16}, "study-config48"),
    (
        "half_width",
        {"kind": "linf_vs_g", "values": [1, 2], "grid_n": 16, "half_width": np.nan},
        "study-config49",
    ),
    (
        "t_final",
        {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": np.inf, "dt": 1e-3}, "study-config50",
    ),
    (
        "dt",
        {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": 0.05, "dt": 0}, "study-config51",
    ),
]

# configs of the other commands with a value that is not finite, or a
# comparison that steps nothing, with the key the error must name and the
# case's ids in test_bad_config_value_exits_2 and
# test_bad_number_error_names_the_key
_SMALL_DYNAMICS = {
    "initial": "gaussian", "grid": {"d": 1, "n": 256, "half_width": 8.0}, "N": 128,
    "t_final": 0.05, "dt": 1e-3, "record_every": 10,
}
_BAD_NUMBER_CASES = [
    (
        "dynamics",
        {**_SMALL_DYNAMICS, "t_final": np.nan},
        "t_final",
        "dynamics-config52",
        "dynamics-config0-t_final",
    ),
    (
        "dynamics",
        {**_SMALL_DYNAMICS, "dt": np.inf},
        "dt",
        "dynamics-config53",
        "dynamics-config1-dt",
    ),
    (
        "dynamics",
        {**_SMALL_DYNAMICS, "t_final": 0},
        "t_final",
        "dynamics-config54",
        "dynamics-config2-t_final",
    ),
    ("scattering", {"kappa": np.nan}, "kappa", "scattering-config55", "scattering-config3-kappa"),
    (
        "scattering",
        {"kappa": [1e-3, -np.inf]},
        "kappa",
        "scattering-config56",
        "scattering-config4-kappa",
    ),
    (
        "scattering",
        {"born_window": [0.9, np.nan]},
        "born_window",
        "scattering-config57",
        "scattering-config5-born_window",
    ),
    (
        "groundstate",
        {"grid": {"d": 1, "n": 64, "half_width": 8.0}, "G": np.nan},
        "G",
        "groundstate-config58",
        "groundstate-config6-G",
    ),
    (
        "groundstate",
        {"grid": {"d": 1, "n": 64, "half_width": 8.0}, "tol": np.nan},
        "tol",
        "groundstate-config59",
        "groundstate-config7-tol",
    ),
    # JSON reads integer literals of any length: one too large for a float
    ("scattering", {"kappa": 10**400}, "kappa", "scattering-config60", "scattering-config8-kappa"),
    ("scattering", {"mesh": 10**400}, "mesh", "scattering-config61", "scattering-config9-mesh"),
    (
        "dynamics",
        {**_SMALL_DYNAMICS, "N": 10**400},
        "N",
        "dynamics-config62",
        "dynamics-config10-N",
    ),
    (
        "groundstate",
        {"grid": {"d": 1, "n": 64, "half_width": 8.0}, "G": 10**400},
        "G",
        "groundstate-config63",
        "groundstate-config11-G",
    ),
    (
        "study",
        {"kind": "gap_vs_g", "values": [10, 10**400], "grid_n": 16},
        "values",
        "study-config64",
        "study-config12-values",
    ),
    (
        "study",
        {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 1, "grid_n": 256,
         "half_width": 8.0, "t_final": 10**400, "dt": 1e-3},
        "t_final", "study-config65", "study-config13-t_final",
    ),
    # a tolerance no residual can reach, and a spectrum of no or too many
    # levels, refused before the minimization runs
    *(
        ("groundstate", {"grid": {"d": 1, "n": 64, "half_width": 8.0}, "tol": tol}, "tol",
         f"groundstate-tol-{why}", f"groundstate-tol-{why}")
        for tol, why in ((0, "zero"), (-1, "negative"))
    ),
    *(
        ("groundstate", {"grid": {"d": 1, "n": 16, "half_width": 8.0}, "spectrum_k": k},
         "spectrum_k", f"groundstate-spectrum_k-{why}", f"groundstate-spectrum_k-{why}")
        for k, why in ((-3, "negative"), (40, "above-the-grid-points"))
    ),
]


# the CLI child process imports the same tfcond as this one, installed or not
_PACKAGE_ROOT = str(Path(tfcond.__file__).resolve().parents[1])


def _python(*argv, timeout=300):
    path = os.pathsep.join(filter(None, (_PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestCli:
    def test_cli_import_leaves_scipy_integrate_out(self):
        proc = _python("-c", "import sys, tfcond.cli; print('scipy.integrate' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_runs_leave_scipy_integrate_and_optimize_out(self, tmp_path):
        # the interaction moments are closed forms: a ground state, a flow, a
        # scattering run and a Lemma 2.6 sweep load neither quad nor the
        # optimizers, and only the many-body engine loads scipy's linalg
        configs = {
            "groundstate": {"grid": {"d": 3, "n": 16, "half_width": 6.0}, "G": 20.0,
                            "spectrum_k": 4},
            "dynamics": _SMALL_DYNAMICS,
            "scattering": {"kappa": [1e-3]},
            "study": {"study": {"kind": "lemma26_vs_N", "values": [64, 128], "grid_d": 1,
                                "grid_n": 256, "half_width": 8.0}},
        }
        script = ["import sys", "from tfcond import cli"]
        for command, config in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config))
            script += [
                f"assert cli.main([{command!r}, '--config', {str(path)!r}]) == 0",
                f"print('loaded after', {command!r}, [m for m in ('scipy.integrate',"
                " 'scipy.optimize', 'scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])",
            ]
        proc = _python("-c", "\n".join(script))
        assert proc.returncode == 0, proc.stderr
        loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded after")]
        assert loaded == [f"loaded after {c} []" for c in configs]

    def test_scattering_pass(self, tmp_path, capsys):
        cfg = tmp_path / "scat.json"
        cfg.write_text(
            json.dumps(
                {"profile": "gaussian", "kappa": [1e-3], "born_window": [0.99, 1.01]}
            )
        )
        code = cli.main(["scattering", "--config", str(cfg), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert "PASS" in out
        payload = json.loads((tmp_path / "scattering.json").read_text())
        assert payload["passed"] is True

    def test_scattering_fail_window(self, tmp_path, capsys):
        cfg = tmp_path / "scat.json"
        cfg.write_text(
            json.dumps({"profile": "gaussian", "kappa": [1.0], "born_window": [0.999, 1.001]})
        )
        assert cli.main(["scattering", "--config", str(cfg)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_manybody_flags(self, capsys):
        argv = ["manybody", "--N", "3", "--M", "2", "--check", "appendix", "--trials", "3"]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert "violations" in capsys.readouterr().out

    def test_manybody_gapchain(self, capsys):
        argv = ["manybody", "--N", "3", "--M", "3", "--check", "gapchain", "--trials", "20"]
        assert cli.main(argv) == 0, capsys.readouterr().err

    def test_manybody_gapchain_reports_a_failed_mean_field_reference(self, tmp_path, capsys):
        # at g = 5 the mean-field iteration of gp_modes_ground finds no fixed point
        cfg = tmp_path / "mb.json"
        cfg.write_text(json.dumps({"N": 4, "M": 3, "g": 5.0, "check": "gapchain"}))
        code = cli.main(["manybody", "--config", str(cfg), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1, err
        assert "failed check: mean-field reference" in out
        assert out.rstrip().endswith("FAIL")
        payload = json.loads((tmp_path / "manybody_gapchain.json").read_text())
        assert payload == {"error": "mean-field iteration did not converge", "passed": False}

    @pytest.mark.parametrize("modes", ["harmonic", "planewave"])
    def test_manybody_gronwall(self, tmp_path, capsys, modes):
        argv = ["manybody", "--N", "3", "--M", "3", "--check", "gronwall", "--modes", modes]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
        payload = json.loads((tmp_path / "manybody_gronwall.json").read_text())
        assert payload["passed"] is True
        assert payload["max_rate_mismatch"] < TOLERANCES["rate_identity"]
        assert payload["sandwich_violations"] == payload["bound_violations"] == 0
        assert len(payload["alpha"]) == len(payload["rate"]) == 11

    def test_gap_seed_reaches_the_spectrum(self, tmp_path, capsys, monkeypatch):
        seeds = []
        solve = gs.hgp_spectrum

        def spy(*args, **kw):
            seeds.append(kw.get("seed", 0))
            return solve(*args, **kw)

        monkeypatch.setattr(gs, "hgp_spectrum", spy)
        cfg = tmp_path / "gap.json"
        cfg.write_text(json.dumps({"g_values": [0.5, 1.0, 2.0], "grid_n": 16, "half_width": 8.0}))
        argv = ["gap", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path)]
        assert cli.main(argv) == 0, capsys.readouterr().out
        assert seeds == [7, 7, 7]
        assert json.loads((tmp_path / "gap_vs_g_summary.json").read_text())["seed"] == 7

    def test_study_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(
            json.dumps(
                {
                    "study": {
                        "kind": "lemma26_vs_N",
                        "values": [64, 128, 256],
                        "grid_d": 1,
                        "grid_n": 512,
                        "half_width": 8.0,
                    }
                }
            )
        )
        code = cli.main(["study", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "lemma26_vs_N.csv").exists()
        assert (tmp_path / "lemma26_vs_N_summary.json").exists()

    def test_groundstate_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "gs.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"d": 1, "n": 128, "half_width": 8.0},
                    "trap": {"strength": 1.0, "s": 2},
                    "G": 0.0,
                    "spectrum_k": 2,
                }
            )
        )
        code = cli.main(["groundstate", "--config", str(cfg), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert "spectrum warnings: 0" in out
        newton = re.search(r"newton_steps=(\d+)", out)
        sweeps = re.search(r"spectrum iterations: (\d+)", out)
        assert newton and sweeps, out
        payload = json.loads((tmp_path / "groundstate.json").read_text())
        # the flow hands this config to the Newton polish
        assert payload["newton_steps"] == int(newton.group(1)) > 0
        assert payload["spectrum_iterations"] == int(sweeps.group(1)) > 0
        # 1D oscillator levels 1 and 3
        assert abs(payload["energy"] - 1.0) < 1e-6
        assert abs(payload["eigenvalues"][1] - 3.0) < 1e-6

    def test_dynamics_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "dyn.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"d": 1, "n": 512, "half_width": 8.0},
                    "interaction": {"profile": "gaussian", "beta": 0.2},
                    "g": 4.0,
                    "N": 128,
                    "t_final": 0.05,
                    "dt": 1e-3,
                    "record_every": 10,
                    "initial": "gaussian",
                }
            )
        )
        code = cli.main(["dynamics", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        payload = json.loads((tmp_path / "dynamics.json").read_text())
        assert payload["passed"] is True
        assert payload["mass_drift_gp"] < 1e-12

    def test_dynamics_violated_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        bound_of = dyn._hartree_gp_bound

        def tight(trace_gp, N, beta, g, dist1):
            bound = bound_of(trace_gp, N, beta, g, dist1)
            return 0.5 * dist1 * bound / bound[1]

        monkeypatch.setattr(dyn, "_hartree_gp_bound", tight)
        cfg = tmp_path / "dyn.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"d": 1, "n": 256, "half_width": 8.0}, "g": 4.0, "N": 128,
                    "t_final": 0.05, "dt": 1e-3, "record_every": 10, "initial": "gaussian",
                }
            )
        )
        assert cli.main(["dynamics", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL"
        payload = json.loads((tmp_path / "dynamics.json").read_text())
        assert payload["passed"] is False
        assert payload["distance"][1] > payload["bound"][1]

    def test_dynamics_guard_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # a run the mass guard refuses is a failed check, not a traceback
        kick = dyn._kick

        def leaky_kick(vals, w, scale, theta, phase):
            kick(vals, w, scale, theta, phase)
            vals *= 1 + 1e-13  # a phase of modulus 1 + 1e-13

        monkeypatch.setattr(dyn, "_kick", leaky_kick)
        cfg = tmp_path / "dyn.json"
        cfg.write_text(
            json.dumps(
                {
                    "grid": {"d": 1, "n": 256, "half_width": 8.0}, "g": 4.0, "N": 128,
                    "t_final": 0.05, "dt": 1e-3, "record_every": 10, "initial": "gaussian",
                }
            )
        )
        assert cli.main(["dynamics", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "FAIL"
        assert re.fullmatch(r"failed check: mass drift \S+ exceeds 1e-12", out[-2])
        payload = json.loads((tmp_path / "dynamics.json").read_text())
        assert payload == {"error": out[-2].removeprefix("failed check: "), "passed": False}

    def test_groundstate_refused_run_is_a_failed_check(self, tmp_path, capsys):
        # a box too small for the cloud (mass in the boundary shell) ends the
        # run as a failed check with exit 1, not as a traceback
        cfg = tmp_path / "gs.json"
        cfg.write_text(
            json.dumps({"grid": {"d": 1, "n": 8, "half_width": 8}, "G": 1.0, "spectrum_k": 4})
        )
        code = cli.main(["groundstate", "--config", str(cfg), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "FAIL"
        assert re.fullmatch(r"failed check: boundary-shell mass \S+ exceeds \S+; .*", lines[-2])
        payload = json.loads((tmp_path / "groundstate.json").read_text())
        assert payload == {"error": lines[-2].removeprefix("failed check: "), "passed": False}

    def test_bad_config_exits_2(self):
        # the module entry point turns main's return value into the exit code
        proc = _python("-m", "tfcond.cli", "study", "--config", "/nonexistent/cfg.json")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize(
        "command, config",
        [
            ("groundstate", {"grid": {"d": 1, "n": 64, "half_width": 8.0}, "g": 100.0}),
            ("groundstate", {"grid": {"d": 1, "n": 64, "half_widht": 8.0}}),
            ("dynamics", {"grid": {"d": 1, "n": 64, "half_width": 8.0}, "t_finl": 0.1}),
            ("manybody", {"N": 2, "M": 2, "trails": 3}),
            ("scattering", {"profile": "gaussian", "kapa": [1e-3]}),
            ("scattering", {"interaction": {"profile": "gaussian", "bta": 0.2}}),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config",
        [
            pytest.param("groundstate", {"grid": 5}, id="groundstate-config0"),
            pytest.param("groundstate", {"G": True}, id="groundstate-config1"),
            pytest.param(
                "dynamics",
                {"grid": {"d": 1, "n": 64.9, "half_width": 8.0}},
                id="dynamics-config2",
            ),
            pytest.param("scattering", {"born_window": [0.9]}, id="scattering-config3"),
            pytest.param(
                "study", {"study": {"kind": "gap_vs_g", "values": 5}}, id="study-config4",
            ),
            pytest.param("study", {"kind": "gap_vs_g"}, id="study-config5"),
            pytest.param("gap", {"g_values": [1, "x"]}, id="gap-config6"),
            pytest.param("manybody", {"N": 2, "M": 2, "g": "0.1"}, id="manybody-config7"),
            # the interaction given both as a block and as top-level keys
            pytest.param(
                "scattering",
                {"interaction": {"profile": "gaussian"}, "profile": "hollow_gaussian",
                 "kappa": 0.001}, id="scattering-config8",
            ),
            # gap runs gap_vs_g only
            pytest.param(
                "gap",
                {"study": {"kind": "lemma26_vs_N", "values": [64, 128, 256], "grid_d": 1}},
                id="gap-config9",
            ),
            # an empty coupling list computes nothing
            pytest.param("scattering", {"kappa": []}, id="scattering-config10"),
            # the coupling sweeps run on one thread and read no workers, from
            # the config or the flag
            pytest.param(
                "gap",
                {"g_values": [0.5, 1.0, 2.0], "grid_n": 16, "workers": 7},
                id="gap-config11",
            ),
            pytest.param(
                "study",
                {"study": {"kind": "linf_vs_g", "values": [1, 2, 4], "workers": 1}},
                id="study-config12",
            ),
            pytest.param(
                "study --workers 2",
                {"kind": "tf_convergence", "values": [1, 2, 4]},
                id="study --workers 2-config13",
            ),
            # a manybody check rejects the keys and flags it does not read
            pytest.param(
                "manybody",
                {"check": "gapchain", "steps": 50, "t_final": 9.0},
                id="manybody-config14",
            ),
            pytest.param(
                "manybody --check appendix --modes planewave",
                {},
                id="manybody --check appendix --modes planewave-config15",
            ),
            pytest.param("manybody", {"check": "appendix", "g": 0.3}, id="manybody-config16"),
            pytest.param(
                "manybody --check gronwall --trials 5",
                {},
                id="manybody --check gronwall --trials 5-config17",
            ),
            pytest.param(
                "manybody --seed 3", {"check": "gronwall"}, id="manybody --seed 3-config18",
            ),
            # the pair identities and the counting rate need two bosons
            pytest.param(
                "manybody --N 1 --check appendix",
                {},
                id="manybody --N 1 --check appendix-config19",
            ),
            pytest.param(
                "manybody --N 1 --check gronwall",
                {},
                id="manybody --N 1 --check gronwall-config20",
            ),
            # the coupling sweeps run on a 3D grid, hgp_rate_vs_N on a 1D one
            pytest.param(
                "study", {"kind": "gap_vs_g", "values": [10], "grid_d": 1}, id="study-config21",
            ),
            pytest.param(
                "study",
                {"kind": "hgp_rate_vs_N", "values": [64, 128, 256], "grid_d": 3},
                id="study-config22",
            ),
            # an N sweep's values are particle numbers
            pytest.param(
                "study",
                {"kind": "lemma26_vs_N", "values": [64.5, 128, 256], "grid_d": 1},
                id="study-config23",
            ),
            # a many-body check needs at least one trial
            pytest.param(
                "manybody --check appendix --trials 0",
                {},
                id="manybody --check appendix --trials 0-config24",
            ),
            pytest.param(
                "manybody --check appendix --trials -3",
                {},
                id="manybody --check appendix --trials -3-config25",
            ),
            pytest.param("manybody", {"check": "gapchain", "trials": 0}, id="manybody-config26"),
            pytest.param(
                "study",
                {"kind": "manybody_suite", "values": ["appendix"], "mb_trials": 0},
                id="study-config27",
            ),
            # the tracked times are at least two, strictly increasing from 0
            pytest.param("manybody", {"check": "gronwall", "steps": 0}, id="manybody-config28"),
            pytest.param("manybody", {"check": "gronwall", "steps": 1}, id="manybody-config29"),
            pytest.param(
                "manybody", {"check": "gronwall", "t_final": -0.5}, id="manybody-config30",
            ),
            # a gaussian initial state reads no trap
            pytest.param(
                "dynamics",
                {"initial": "gaussian", "trap": {"strength": 50.0, "s": 4},
                 "grid": {"d": 1, "n": 512, "half_width": 8.0}, "N": 128,
                 "t_final": 0.05, "dt": 1e-3, "record_every": 10}, id="dynamics-config31",
            ),
            # a study field its kind does not read, or out of its range
            *(
                pytest.param("study", config, id=test_id)
                for _, config, test_id in _STUDY_FIELD_CASES
            ),
            *(
                pytest.param(command, config, id=test_id)
                for command, config, _, test_id, _ in _BAD_NUMBER_CASES
            ),
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([*command.split(), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            pytest.param(command, config, key, id=test_id)
            for command, config, key, _, test_id in _BAD_NUMBER_CASES
        ],
    )
    def test_bad_number_error_names_the_key(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["groundstate", "--config", "c.json", "--seed", "1"],
            ["groundstate", "--config", "c.json", "--workers", "2"],
            ["dynamics", "--config", "c.json", "--seed", "1"],
            ["dynamics", "--config", "c.json", "--workers", "2"],
            ["scattering", "--config", "c.json", "--seed", "1"],
            ["scattering", "--config", "c.json", "--workers", "2"],
            ["manybody", "--workers", "2"],
            ["gap", "--config", "c.json", "--workers", "2"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seed_and_workers_flags_where_read(self):
        parser = cli.build_parser()
        assert parser.parse_args(["manybody", "--seed", "3"]).seed == 3
        assert parser.parse_args(["gap", "--config", "c.json", "--seed", "3"]).seed == 3
        args = parser.parse_args(["study", "--config", "c.json", "--seed", "3", "--workers", "2"])
        assert (args.seed, args.workers) == (3, 2)

    def test_readme_and_benchmark_configs_exit_0(self, tmp_path, monkeypatch, capsys):
        configs = _readme_configs()
        assert set(configs) == {"groundstate", "gap", "dynamics", "study", "scattering"}
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        # the gs3d benchmark workload runs the README groundstate config
        assert configs["groundstate"] == workloads.GS3D_CONFIG
        # the gap sweep solves three 64^3 spectra; its keys go through the
        # same study parser as the study config
        del configs["gap"]
        for command, config in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(config))
            code = cli.main([command, "--config", str(path)])
            assert code == 0, (command, *capsys.readouterr())

    def test_unknown_study_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({"study": {"kind": "gap_vs_g", "values": [1, 2], "zzz": 1}}))
        assert cli.main(["study", "--config", str(cfg)]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("field, config", [case[:2] for case in _STUDY_FIELD_CASES])
    def test_study_error_names_the_field(self, tmp_path, capsys, field, config):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["study", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err

    def test_readme_lists_the_fields_each_study_kind_reads(self):
        section = _readme_sections()["study"]
        listed = {}
        for kinds, reads in re.findall(r"^- (`\w+`(?:, `\w+`)*): `([^`]*)`", section, flags=re.M):
            for kind in re.findall(r"`(\w+)`", kinds):
                listed[kind] = {name.strip() for name in reads.split(",")}
        grid_fields = {"grid_d", "grid_n", "half_width"}
        assert listed == {
            kind: set(row.reads) | (grid_fields if row.grids else set())
            for kind, row in harness._KINDS.items()
        }
