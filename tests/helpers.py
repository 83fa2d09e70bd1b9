"""Shared strategies and small helpers for the test suite."""

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from hypothesis import strategies as st

from attoclock.atom import AtomModel
from attoclock.barrier import atomic_field_strength
from attoclock.clocks import Point
from attoclock.harness import iter_segments
from attoclock.tables import pieces, rows


def table(columns: Sequence[str], atom: AtomModel | None, points: Iterable[Point | None],
          omega: float | None = None) -> Iterator[tuple]:
    """Each point's row (:class:`attoclock.clocks.Point`), a tuple, lazily: the
    :func:`attoclock.tables.rows` blocks of one-point segments, transposed. Columns of
    the atom alone take None points."""
    return chain.from_iterable(zip(*block) for block in rows(
        columns, atom, (dict(zip(Point._fields, zip(p or ())), n=1) for p in points), omega))


def render(meta: dict[str, object] | None, columns: Sequence[str],
           blocks: Iterable[Sequence[Sequence]] | None, fmt: str, precision: int) -> str:
    """:func:`attoclock.tables.pieces`' text, joined, as a command's output is."""
    return "".join(pieces(meta, columns, blocks, fmt, precision))


def iter_sweep(atom: AtomModel, f_grid: Sequence[float]) -> Iterator[Point]:
    """:func:`attoclock.clocks.evaluate`'s point at each field of a grid, lazily: the
    segments of :func:`attoclock.harness.iter_segments`, which checks the grid, as rows."""
    return chain.from_iterable(map(Point._make, zip(*map(segment.__getitem__, Point._fields)))
                               for segment in iter_segments(atom, f_grid))


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def complex_parts(point):
    """(crossing, approach) times as their printed columns give them above
    barrier suppression, or None."""
    ((d_re, d_im, i_re, i_im),) = table(
        ("tau_d_re_au", "tau_d_im_au", "tau_i_re_au", "tau_i_im_au"), None, [point])
    return None if d_re is None else (complex(d_re, d_im), complex(i_re, i_im))


@st.composite
def atom_models(draw) -> AtomModel:
    ip = draw(st.floats(min_value=0.3, max_value=2.5,
                        allow_nan=False, allow_infinity=False))
    z_eff = draw(st.floats(min_value=0.6, max_value=2.5,
                           allow_nan=False, allow_infinity=False))
    return AtomModel(name="X", ip=ip, z_eff=z_eff, source="hyp")


@st.composite
def subatomic_cases(draw, lo: float = 0.01, hi: float = 0.999):
    """An (atom, field strength) pair with the field a fixed fraction of the
    barrier-suppression value, safely below it."""
    atom = draw(atom_models())
    frac = draw(st.floats(min_value=lo, max_value=hi,
                          allow_nan=False, allow_infinity=False))
    return atom, frac * atomic_field_strength(atom)
