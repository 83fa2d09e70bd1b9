"""The output layer: every column defined once, table rows and the one renderer."""

import functools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, cycle, islice, repeat

from .atom import AtomModel
from .barrier import atomic_field_strength
from .clocks import Point
from .units import CONSTANTS


_CHUNK = 32     # CSV rows per `%`, held at once; larger chunks raised the dump's peak RSS


def _check_finite(cells: Iterable[tuple[str, object]]) -> None:
    """Refuse a float cell that is not finite, naming its column."""
    for column, value in cells:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{column} is {value!r}, not a finite number")


def render(meta: dict[str, object] | None, columns: Sequence[str],
           rows: Iterable[Sequence[object]] | None, fmt: str, precision: int) -> str:
    """One table as CSV (``# key=value`` metadata lines, header, rows) or
    JSON (a list of row objects, or ``{"meta": ..., "rows": [...]}`` with
    metadata). With ``rows`` None, ``meta`` is one record: a JSON object, or a
    CSV header of its keys and one row of its values. Rows hold ``len(columns)`` cells
    and are consumed once, so may be lazy; CSV fills each chunk of rows with one ``%``
    on a template kept per pattern of cell types. A non-finite float cell or metadata
    value is an error naming its column or key; in CSV it wins over a later pull's error."""
    if fmt == "json":
        import json
        records = [] if rows is None else [dict(zip(columns, row)) for row in rows]
        doc = meta if rows is None else {"meta": meta, "rows": records} if meta else records
        text = json.dumps(doc, indent=2)
        # How a non-finite float prints. Searching the text is cheaper than testing
        # every cell, which is done only on a hit (a text cell can hold the word).
        if "Infinity" in text or "NaN" in text:
            _check_finite(chain.from_iterable(map(dict.items, [meta or {}, *records])))
        return text + "\n"
    if rows is None:
        meta, columns, rows = None, meta.keys(), [meta.values()]
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))

    @functools.cache
    def template(kinds, n):   # one per chunk pattern of cell kinds: its n lines
        cells = ("%.0s" if kind is type(None) else f"%.{precision}g"
                 if issubclass(kind, float) else "%s" for kind in kinds)
        return "\n".join([",".join(islice(cells, len(kinds) // n)) for _ in range(n)])
    rows = iter(rows)
    while True:
        chunk = []
        try:
            chunk.extend(islice(rows, _CHUNK))
        finally:   # rows pulled before a failing pull are formatted and checked first
            if chunk:
                flat = tuple(chain.from_iterable(chunk))
                text = template(tuple(map(type, flat)), len(chunk)) % flat
                # Every non-finite float prints with an "n" (inf, nan), so only such a
                # chunk has its cells tested (a text cell can hold the letter too).
                if "n" in text:
                    _check_finite(zip(cycle(columns), flat))
                lines.append(text)
        if len(chunk) < _CHUNK:
            break
    lines.append("")
    return "\n".join(lines)


_AS = "(None if {0} is None else {0} * K)"     # the au time {0} in as

# Every output column, once: its value as an expression over the atom ``a``, the
# evaluated point ``p`` and the drive's omega ``w``, with the names of _NAMESPACE.
# The suffix is the unit: _au as computed, _as converted, none for text and
# counts. None: not in this regime.
COLUMNS = {
    "atom": "a.name",
    "name": "a.name",
    "source": "a.source",
    "i_p_au": "a.ip",
    "z_eff": "a.z_eff",
    "f_a_au": "atomic_field_strength(a)",
    # F_a^2: intensity at which the barrier top reaches -ip (** 2 can round differently).
    "i_a_au": "atomic_field_strength(a) * atomic_field_strength(a)",
    "f_au": "p.f",
    "regime": "p.regime",
    "delta_z_au": "p.delta_z",
    "delta_z_imag_au": "p.delta_z_imag",
    "x_entrance_au": "p.x_entrance",
    "x_peak_au": "p.x_peak",
    "x_exit_au": "p.x_exit",
    "x_classical_au": "p.x_classical",
    "barrier_width_au": "p.barrier_width",
    "d_b_au": "p.barrier_width",
    "h_max_au": "p.h_max",
    "tau_i_au": "p.tau_i",
    "tau_i_as": _AS.format("p.tau_i"),
    "tau_d_au": "p.tau_d",
    "tau_d_as": _AS.format("p.tau_d"),
    "tau_sym_au": "p.tau_sym",
    "tau_sym_as": _AS.format("p.tau_sym"),
    "tau_unsy_au": "p.tau_unsy",
    "tau_unsy_as": _AS.format("p.tau_unsy"),
    "tau_c_au": "p.tau_c",
    "tau_c_as": _AS.format("p.tau_c"),
    "tau_t_au": "p.tau_t",
    "tau_t_as": _AS.format("p.tau_t"),
    "tau_a_au": "p.tau_a",
    "tau_a_as": _AS.format("p.tau_a"),
    "de_plus_au": "p.de_plus",
    "de_minus_au": "p.de_minus",
    # Light-traversal time of the barrier; None without a real barrier.
    "light_as": "(p.barrier_width / C * K if p.regime == 'sub_atomic' else None)",
    "tau_d_re_au": "p.tau_d_re",
    "tau_d_im_au": "p.tau_d_im",
    # The approach time is the conjugate; a zero imaginary part keeps its sign.
    "tau_i_re_au": "p.tau_d_re",
    "tau_i_im_au": "(None if p.tau_d_im is None else -p.tau_d_im)",
    "omega_au": "w",
    # Keldysh's adiabaticity parameter omega sqrt(2 ip) / F; None without a drive.
    "gamma_k": "(None if w is None else w * sqrt(2.0 * a.ip) / p.f)",
}
# Every name a COLUMNS expression reads, bound once; nothing else is in scope.
_NAMESPACE = {
    "__builtins__": {}, "K": CONSTANTS.au_time_in_attoseconds,
    "C": CONSTANTS.speed_of_light, "sqrt": math.sqrt,
    "atomic_field_strength": atomic_field_strength,
}

GEOMETRY_COLUMNS = (
    "atom", "source", "i_p_au", "z_eff", "f_au", "f_a_au", "i_a_au", "regime",
    "delta_z_au", "delta_z_imag_au", "x_entrance_au", "x_peak_au", "x_exit_au",
    "x_classical_au", "barrier_width_au", "h_max_au",
)
TIMES_COLUMNS = (
    "atom", "source", "i_p_au", "z_eff", "f_au", "regime", "tau_i_au", "tau_i_as",
    "tau_d_au", "tau_d_as", "tau_sym_au", "tau_sym_as", "tau_unsy_au", "tau_unsy_as",
    "tau_c_au", "tau_c_as", "tau_t_au", "tau_t_as", "tau_a_au", "tau_a_as",
    "de_plus_au", "de_minus_au", "tau_d_re_au", "tau_d_im_au", "tau_i_re_au", "tau_i_im_au",
)
DRIVE_COLUMNS = ("omega_au", "gamma_k")      # times, when a wavelength is given
DUMP_COLUMNS = (
    "f_au", "regime", "delta_z_au", "delta_z_imag_au", "x_entrance_au",
    "x_peak_au", "x_exit_au", "x_classical_au", "barrier_width_au", "h_max_au",
    "tau_i_as", "tau_d_as", "tau_sym_as", "tau_unsy_as", "tau_c_as", "tau_t_as",
    "tau_a_as", "light_as", "tau_d_re_au", "tau_d_im_au", "gamma_k",
)
CATALOG_COLUMNS = ("name", "source", "i_p_au", "z_eff", "f_a_au", "i_a_au")
# Each figure's columns, by the name ``sweep --figure`` takes.
FIGURE_COLUMNS = {
    "fig2": ("f_au", "tau_unsy_as", "tau_sym_as"),
    "fig3": ("f_au", "tau_d_as", "tau_sym_as"),
    "fig4": ("d_b_au", "tau_d_as", "light_as"),
}
RESIDUAL_COLUMNS = ("f_au", "model_as", "measured_as", "residual_as", "within_bars")


@functools.cache
def _row_function(columns: tuple[str, ...]) -> Callable[..., tuple]:
    """One function of ``(a, p, w)`` compiled from the COLUMNS entries of ``columns``."""
    cells = "".join(f"{COLUMNS[name]}, " for name in columns)
    return eval(f"lambda a, p, w: ({cells})", _NAMESPACE)


def table(columns: Sequence[str], atom: AtomModel, points: Iterable[Point | None],
          omega: float | None = None) -> Iterator[tuple]:
    """Lazily, one tuple of ``len(columns)`` cells per point, in ``columns`` order,
    each from its :data:`COLUMNS` entry; an unknown name is a KeyError. Columns that
    read only the atom take None points."""
    return map(_row_function(tuple(columns)), repeat(atom), points, repeat(omega))
