"""Uncertainty-relation tunneling times for strong-field ionization.

Library layout: ``units`` (conversions), ``atom`` (inputs), ``barrier``
(regimes and the barrier geometry), ``clocks`` (``evaluate``: geometry
and time estimators at one point), ``harness`` (sweeps, data comparison,
figure tables), ``cli`` (command line).
"""

from .atom import AtomModel, builtin_catalog, catalog_lookup
from .barrier import RegimeError, atomic_field_strength
from .clocks import Point, evaluate
from .harness import (ComparisonReport, MeasurementRecord, compare,
                      emit_figure_data, load_measurements)
from .units import CONSTANTS

__version__ = "0.1.0"

__all__ = [
    "AtomModel", "builtin_catalog", "catalog_lookup",
    "RegimeError", "atomic_field_strength", "Point", "evaluate",
    "ComparisonReport", "MeasurementRecord", "compare",
    "emit_figure_data", "load_measurements", "CONSTANTS", "__version__",
]
