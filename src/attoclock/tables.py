"""The output layer: every column defined once, table rows and the one renderer."""

import functools
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, cycle, repeat

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


def check_format(fmt: str, precision: int) -> None:
    """Refuse a fmt other than csv or json, or a precision not an int in 1..17."""
    if fmt not in ("csv", "json") or type(precision) is not int or not 1 <= precision <= 17:
        raise ValueError(f"need fmt csv or json and precision 1..17, got {fmt!r}, {precision!r}")


def pieces(meta: dict[str, object] | None, columns: Sequence[str],
           blocks: Iterable[Sequence[Sequence]] | None, fmt: str, precision: int) -> Iterator[str]:
    """One table's text, lazily: CSV (``# key=value`` metadata lines, header, rows) as one
    piece per block with rows, the first led by the metadata and header (or those alone), or
    JSON (a list of row objects, or ``{"meta": ..., "rows": [...]}`` with metadata) as one
    piece. With ``blocks`` None, ``meta`` is one record: a JSON object, or a CSV header of
    its keys and one row of its values. A block is a list of cells per column, in
    ``columns`` order, each column of one cell type, as a kernel segment's columns; blocks
    are consumed once, so may be lazy. CSV formats a block before it pulls the next: a
    column that is one finite object on every row is formatted once, into the block's row
    template, which the other columns fill _CHUNK rows per ``%``. A non-finite float cell
    or metadata value is an error naming its column or key, the first in row order; in CSV
    it wins over a later pull's error. See :func:`check_format`."""
    check_format(fmt, precision)
    if fmt == "json":
        import json
        records = [] if blocks is None else [dict(zip(columns, r)) for b in blocks for r in zip(*b)]
        doc = meta if blocks is None else {"meta": meta, "rows": records} if meta else records
        text = json.dumps(doc, indent=2)
        # How a non-finite float prints. Searching the text is cheaper than testing
        # every cell, which is done only on a hit (a text cell can hold the word).
        if "Infinity" in text or "NaN" in text:
            _check_finite(chain.from_iterable(map(dict.items, [meta or {}, *records])))
        yield text + "\n"
        return
    if blocks is None:
        meta, columns, blocks = None, meta.keys(), [[[value] for value in meta.values()]]
    lines = [*(f"# {key}={value}" for key, value in (meta or {}).items()), ",".join(columns)]
    number = f"%.{precision}g"
    for block in (b for b in blocks if b and len(b[0])):
        cells, varying = [], []
        for name, column in zip(columns, block):
            first = column[0]
            cell = "%.0s" if first is None else number if isinstance(first, float) else "%s"
            # One object on every row (by identity, as 0.0 == -0.0) and finite.
            if (first is column[-1] and all(map(operator.is_, column, repeat(first)))
                    and (cell is not number or math.isfinite(first))):
                cell = (cell % (first,)).replace("%", "%%")
            else:
                varying.append((name, column))
            cells.append(cell)
        row, n, k = ",".join(cells), len(block[0]), len(varying)
        flat = [None] * (n * k)
        for j, (_, column) in enumerate(varying):
            flat[j::k] = column
        for lo in range(0, n, _CHUNK):
            chunk = tuple(flat[lo * k:(lo + _CHUNK) * k])
            text = "\n".join([row] * min(_CHUNK, n - lo)) % chunk
            if "n" in text:     # inf and nan print with one; only then are cells tested
                _check_finite(zip(cycle([name for name, _ in varying]), chunk))
            lines.append(text)
        yield "\n".join([*lines, ""])
        lines = []
    yield from ["\n".join([*lines, ""])] if lines else []     # no rows: the header alone


# Every output column, once: its cells as an expression over the atom ``a``, the
# drive's omega ``w`` and a segment's columns (``f``, ``regime``, the other
# :class:`attoclock.clocks.Point` fields and its length ``n``), with the names of
# _NAMESPACE. The suffix is the unit: _au as computed, _as converted (K as per au),
# none for text and counts. None: not in this regime; a segment is in one. Each column
# of a segment holds one cell type, as a pieces block's must: f_au is float for ints too.
COLUMNS = {
    "atom": "[a.name] * n", "name": "[a.name] * n", "source": "[a.source] * n",
    "i_p_au": "[a.ip] * n", "z_eff": "[a.z_eff] * n", "omega_au": "[w] * n",
    "f_a_au": "[atomic_field_strength(a)] * n",
    # F_a^2: intensity at which the barrier top reaches -ip (** 2 can round differently).
    "i_a_au": "[atomic_field_strength(a) * atomic_field_strength(a)] * n",
    "f_au": "[float(x) for x in f]", "regime": "regime", "d_b_au": "barrier_width",
    **{f"{name}_au": name for name in Point._fields[2:]},
    **{f"{name}_as": f"[None] * n if {name}[0] is None else [t * K for t in {name}]"
       for name in ("tau_i", "tau_d", "tau_sym", "tau_unsy", "tau_c", "tau_t")},
    "tau_a_as": "[tau_a[0] * K] * n",     # one object repeated: pieces formats it once
    # Light-traversal time of the barrier, None without one; a segment is in one regime.
    "light_as": "[d / C * K for d in barrier_width] if regime[0] == 'sub_atomic' else [None] * n",
    # The approach time is the conjugate; a zero imaginary part keeps its sign.
    "tau_i_re_au": "tau_d_re",
    "tau_i_im_au": "[None] * n if tau_d_im[0] is None else [-t for t in tau_d_im]",
    # Keldysh's adiabaticity parameter omega sqrt(2 ip) / F; None without a drive.
    "gamma_k": "[None] * n if w is None else "   # f rebound: an inner loop sees no locals
               "[c / x for c, f in [(w * sqrt(2.0 * a.ip), f)] for x in f]",
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


def rows(columns: Sequence[str], atom: AtomModel | None, segments: Iterable[Mapping],
         omega: float | None = None) -> Iterator[list[list]]:
    """Lazily, one :func:`pieces` block per segment: a list of the ``columns``, each its
    :data:`COLUMNS` entry evaluated over the whole segment; an unknown name is a KeyError."""
    program, scope = _program(tuple(columns)), {**_NAMESPACE, "a": atom, "w": omega}
    return (eval(program, scope, segment) for segment in segments)
