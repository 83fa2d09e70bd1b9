"""The output layer: every column defined once, table rows and the one renderer."""

import functools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, cycle

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


@functools.cache
def _row(kinds: tuple[type, ...], precision: int) -> str:
    """One CSV row's template for cells of these types: empty, number or text."""
    return ",".join("%.0s" if kind is type(None) else f"%.{precision}g"
                    if issubclass(kind, float) else "%s" for kind in kinds)


def render(meta: dict[str, object] | None, columns: Sequence[str],
           blocks: Iterable[Sequence[Sequence]] | None, fmt: str, precision: int) -> str:
    """One table as CSV (``# key=value`` metadata lines, header, rows) or
    JSON (a list of row objects, or ``{"meta": ..., "rows": [...]}`` with
    metadata). With ``blocks`` None, ``meta`` is one record: a JSON object, or a
    CSV header of its keys and one row of its values. A block is a list of rows of
    ``len(columns)`` cells with one cell type per column, as a kernel segment's rows;
    blocks are consumed once, so may be lazy. CSV formats each block before it pulls
    the next, with one row template for its first row's cell types, _CHUNK rows per
    ``%``. A non-finite float cell or metadata value is an error naming its column
    or key; in CSV it wins over a later pull's error. ``fmt`` is csv or json and
    ``precision`` an int from 1 to 17; anything else is a ValueError."""
    if fmt not in ("csv", "json") or type(precision) is not int or not 1 <= precision <= 17:
        raise ValueError(f"need fmt csv or json and precision 1..17, got {fmt!r}, {precision!r}")
    if fmt == "json":
        import json
        records = [] if blocks is None else [dict(zip(columns, r)) for b in blocks for r in b]
        doc = meta if blocks is None else {"meta": meta, "rows": records} if meta else records
        text = json.dumps(doc, indent=2)
        # How a non-finite float prints. Searching the text is cheaper than testing
        # every cell, which is done only on a hit (a text cell can hold the word).
        if "Infinity" in text or "NaN" in text:
            _check_finite(chain.from_iterable(map(dict.items, [meta or {}, *records])))
        return text + "\n"
    if blocks is None:
        meta, columns, blocks = None, meta.keys(), [[meta.values()]]
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    for block in filter(None, blocks):
        row = _row(tuple(map(type, block[0])), precision)
        for lo in range(0, len(block), _CHUNK):
            chunk = block[lo:lo + _CHUNK]
            flat = tuple(chain.from_iterable(chunk))
            text = "\n".join([row] * len(chunk)) % flat
            # Every non-finite float prints with an "n" (inf, nan), so only such a
            # chunk has its cells tested (a text cell can hold the letter too).
            if "n" in text:
                _check_finite(zip(cycle(columns), flat))
            lines.append(text)
    lines.append("")
    return "\n".join(lines)


# Every output column, once: its cells as an expression over the atom ``a``, the
# drive's omega ``w`` and a segment's columns (``f``, ``regime``, the other
# :class:`attoclock.clocks.Point` fields and its length ``n``), with the names of
# _NAMESPACE. The suffix is the unit: _au as computed, _as converted (K as per au),
# none for text and counts. None: not in this regime. Each column of a segment holds
# one cell type, as a render block's must: f_au is float for int fields too.
COLUMNS = {
    "atom": "[a.name] * n", "name": "[a.name] * n", "source": "[a.source] * n",
    "i_p_au": "[a.ip] * n", "z_eff": "[a.z_eff] * n", "omega_au": "[w] * n",
    "f_a_au": "[atomic_field_strength(a)] * n",
    # F_a^2: intensity at which the barrier top reaches -ip (** 2 can round differently).
    "i_a_au": "[atomic_field_strength(a) * atomic_field_strength(a)] * n",
    "f_au": "[float(x) for x in f]", "regime": "regime", "d_b_au": "barrier_width",
    **{f"{name}_au": name for name in Point._fields[2:]},
    **{f"{name}_as": f"[None if t is None else t * K for t in {name}]"
       for name in ("tau_i", "tau_d", "tau_sym", "tau_unsy", "tau_c", "tau_t", "tau_a")},
    # Light-traversal time of the barrier, None without one; a segment is in one regime.
    "light_as": "[d / C * K for d in barrier_width] if regime[0] == 'sub_atomic' else [None] * n",
    # The approach time is the conjugate; a zero imaginary part keeps its sign.
    "tau_i_re_au": "tau_d_re", "tau_i_im_au": "[None if t is None else -t for t in tau_d_im]",
    # Keldysh's adiabaticity parameter omega sqrt(2 ip) / F; None without a drive.
    "gamma_k": "[None if w is None else w * sqrt(2.0 * a.ip) / x for x in f]",
}
# Every name a COLUMNS expression reads, bound once; nothing else is in scope.
_NAMESPACE = {
    "__builtins__": {}, "K": CONSTANTS.au_time_in_attoseconds,
    "C": CONSTANTS.speed_of_light, "sqrt": math.sqrt, "float": float,
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
def _program(columns: tuple[str, ...]):
    """The COLUMNS entries of ``columns`` as one expression: a list of the columns."""
    return compile(f"[{', '.join(COLUMNS[name] for name in columns)}]", "COLUMNS", "eval")


def reads(columns: Sequence[str]) -> tuple[str, ...]:
    """The segment columns (and other names) that ``columns``' expressions read."""
    return _program(tuple(columns)).co_names


def rows(columns: Sequence[str], atom: AtomModel | None, segments: Iterable[Mapping],
         omega: float | None = None) -> Iterator[list[tuple]]:
    """Lazily, one :func:`render` block per segment: a tuple of ``len(columns)``
    cells per point, in ``columns`` order, each column its :data:`COLUMNS` entry
    evaluated over the segment's columns at once; an unknown name is a KeyError."""
    program, scope = _program(tuple(columns)), {**_NAMESPACE, "a": atom, "w": omega}
    return (list(zip(*eval(program, scope, segment))) for segment in segments)


def table(columns: Sequence[str], atom: AtomModel | None, points: Iterable[Point | None],
          omega: float | None = None) -> Iterator[tuple]:
    """The row of each point (:class:`attoclock.clocks.Point`), lazily: :func:`rows`
    of one-point segments. Columns that read only the atom take None points."""
    return chain.from_iterable(rows(columns, atom, (dict(zip(Point._fields, zip(p or ())), n=1)
                                                    for p in points), omega))
