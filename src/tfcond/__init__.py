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
coupling regime) and the regime window, and :mod:`tfcond.harness` the
parameter studies behind the ``tfcond`` command line tool.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
