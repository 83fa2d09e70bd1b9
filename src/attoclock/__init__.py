"""Uncertainty-relation tunneling times for strong-field ionization.

Library layout: ``units`` (conversions), ``atom`` (inputs), ``barrier``
(geometry), ``clocks`` (time estimators), ``harness`` (sweeps, data
comparison, figure tables), ``cli`` (command line).
"""

from .atom import AtomModel, LaserField, builtin_catalog, catalog_lookup
from .barrier import (BarrierGeometry, Regime, RegimeError, atomic_field_strength,
                      solve_geometry)
from .clocks import TunnelClocks, compute_clocks, keldysh_gamma
from .harness import (ComparisonReport, MeasurementRecord, SweepRow, compare,
                      emit_figure_data, load_measurements, run_sweep)
from .units import CONSTANTS, PhysicalConstants

__version__ = "0.1.0"

__all__ = [
    "AtomModel", "LaserField", "builtin_catalog", "catalog_lookup",
    "BarrierGeometry", "Regime", "RegimeError", "atomic_field_strength",
    "solve_geometry", "TunnelClocks", "compute_clocks", "keldysh_gamma",
    "ComparisonReport", "MeasurementRecord", "SweepRow", "compare",
    "emit_figure_data", "load_measurements", "run_sweep",
    "CONSTANTS", "PhysicalConstants", "__version__",
]
