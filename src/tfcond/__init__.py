"""Numerics for trapped bosons with strong, short-range repulsion.

The package covers the three layers that show up when a trapped Bose gas is
pushed into the Thomas-Fermi regime:

* mean-field ground states -- Gross-Pitaevskii minimizers, their spectra,
  Thomas-Fermi profiles and the strong-coupling scaling laws that connect
  them (:mod:`tfcond.groundstate`);
* mean-field dynamics -- Gross-Pitaevskii vs. Hartree propagation after the
  trap is switched off (:mod:`tfcond.dynamics`);
* the many-body layer -- small occupation-number models used to verify the
  excitation-counting machinery that controls condensation
  (:mod:`tfcond.manybody`).

:mod:`tfcond.grids` supplies the periodic spectral grids everything runs on,
:mod:`tfcond.model` the physical parameters (trap, interaction profile,
coupling regime) and their derived scales, and :mod:`tfcond.harness` the
parameter studies behind the ``tfcond`` command line tool.
"""

__version__ = "0.1.0"

from .dynamics import (
    BoundEvaluator,
    ComparisonReport,
    PropagationTrace,
    PropagatorConfig,
    compare_h_vs_gp,
    propagate,
    sobolev_monitor,
    strichartz_check,
)
from .grids import Field, Grid, convolve, make_grid
from .groundstate import (
    GroundStateResult,
    SpectrumResult,
    TFProfile,
    gp_minimize,
    hgp_spectrum,
    interaction_gap,
    linf_diagnostics,
    tf_minimize,
    tf_profile_distance,
)
from .harness import FitResult, StudyResult, StudySpec, fit_loglog, run_study
from .manybody import (
    ManyBodyHamiltonian,
    ManyBodyState,
    ModeBasis,
    SymmetricSector,
    alpha,
    evolve_and_track,
    ground_state,
    product_state,
    reduced_density,
    verify_appendix,
    verify_gap_chain,
)
from .model import (
    DerivedScales,
    InteractionSpec,
    RegimeParams,
    TrapSpec,
    derived_scales,
    scattering_length,
)

__all__ = [
    "Field",
    "Grid",
    "convolve",
    "make_grid",
    "DerivedScales",
    "InteractionSpec",
    "RegimeParams",
    "TrapSpec",
    "derived_scales",
    "scattering_length",
    "TFProfile",
    "GroundStateResult",
    "SpectrumResult",
    "tf_minimize",
    "gp_minimize",
    "hgp_spectrum",
    "interaction_gap",
    "linf_diagnostics",
    "tf_profile_distance",
    "PropagatorConfig",
    "PropagationTrace",
    "BoundEvaluator",
    "ComparisonReport",
    "propagate",
    "compare_h_vs_gp",
    "sobolev_monitor",
    "strichartz_check",
    "SymmetricSector",
    "ModeBasis",
    "ManyBodyState",
    "ManyBodyHamiltonian",
    "product_state",
    "ground_state",
    "reduced_density",
    "alpha",
    "evolve_and_track",
    "verify_appendix",
    "verify_gap_chain",
    "StudySpec",
    "StudyResult",
    "FitResult",
    "fit_loglog",
    "run_study",
    "__version__",
]
