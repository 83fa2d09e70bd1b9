"""Uncertainty-relation tunneling times for strong-field ionization.

Library layout: ``units`` (conversions), ``atom`` (inputs), ``barrier``
(regimes and the barrier geometry), ``clocks`` (``evaluate`` at one point),
``tables`` (output columns and the renderer), ``harness`` (sweeps, data
comparison, figure tables), ``cli`` (command line).
"""

__version__ = "0.1.0"

# Each public name's module, imported on first use: a command loads only what it runs.
_EXPORTS = {
    "AtomModel": "atom", "builtin_catalog": "atom", "catalog_lookup": "atom",
    "RegimeError": "barrier", "atomic_field_strength": "barrier", "Point": "clocks",
    "evaluate": "clocks", "ComparisonReport": "harness", "MeasurementRecord": "harness",
    "compare": "harness", "emit_figure_data": "harness", "load_measurements": "harness",
    "CONSTANTS": "units"}
__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{_EXPORTS[name]}", __name__)
    return globals().setdefault(name, getattr(module, name))   # later reads skip this


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
