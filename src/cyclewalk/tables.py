"""Published revival tables embedded as fixtures, plus the verification driver.

Each row holds its exact weight once, as the paper's expression (surds, pi,
sin and cos of rational multiples of pi) in `rho_display`; `rho` evaluates it
with the command-line grammar of `exprs.parse_value` on first use. `verify_table`
powers every (k, rho, delta) combination a row lists to the row's N, one engine
pass per cycle length, and returns the max-entry deviations from the identity
as columns, the form `verify --table` writes its line from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exprs import parse_value
from .revival import power_deviations

__all__ = [
    "TABLE1_ROWS",
    "TABLE2_ROWS",
    "TABLE3_ROWS",
    "TABLE4_ROWS",
    "TABLE5_ROWS",
    "TABLE6_COLUMNS",
    "TableColumns",
    "TableRow",
    "verify_table",
]

TWO_PI = 2.0 * math.pi


def _fs(*pairs: tuple[int, int]) -> frozenset[Fraction]:
    return frozenset(Fraction(n, d) for n, d in pairs)


@dataclass(frozen=True)
class TableRow:
    """One published row: a period, a weight, and the coin phases it covers.

    `generator_sets`, present only for the two-form table, carries the two
    published fraction families (primary form first).
    """

    k_values: tuple[int, ...]
    n: int
    rho_display: str
    delta_two_pi: tuple[Fraction, ...]
    generator_sets: tuple[frozenset[Fraction], frozenset[Fraction]] | None = None

    @cached_property
    def rho(self) -> float:
        return parse_value(self.rho_display)


def _edge_rows() -> tuple[TableRow, ...]:
    # spot grid over the closed-form edge families: rho=0 -> N=2v,
    # rho=1 -> N=lcm(2, k, v*k), for representative (k, u/v) choices
    rows = []
    for k in (2, 3, 4, 5, 7, 12):
        for uv in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            rows.append(TableRow((k,), 2 * uv.denominator, "0", (uv,)))
            rows.append(TableRow((k,), math.lcm(2, k, uv.denominator * k), "1", (uv,)))
    return tuple(rows)


TABLE1_ROWS: tuple[TableRow, ...] = _edge_rows()

_ZERO = (Fraction(0),)
_THIRDS = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
_NONZERO_THIRDS = (Fraction(1, 3), Fraction(2, 3))

# delta=0 makes every k=2 weight form degenerate: period 2 for any rho.
# The second entry is the seeded worked example (seed 2/5, delta=2*pi*2/3).
# The delta=0 weights are spelled as the float reprs that `verify` prints.
TABLE2_ROWS: tuple[TableRow, ...] = tuple(
    TableRow((2,), 2, rho, _ZERO)
    for rho in ("0.0", "0.1", "0.3333333333333333", "0.5", "0.6666666666666666", "0.9", "1.0")
) + (TableRow((2,), 30, "(2/3)*(1-sin(7*pi/30))", (Fraction(2, 3),)),)

TABLE3_ROWS: tuple[TableRow, ...] = (
    TableRow((3, 6), 8, "2/3", _ZERO),
    TableRow((3, 6), 10, "(5-sqrt5)/6", _ZERO),
    TableRow((3, 6), 12, "1/3", _THIRDS),
    TableRow((3, 6), 14, "(2/3)*(1-cos(2*pi*1/7))", _ZERO),
    TableRow((3, 6), 14, "(2/3)*(1-cos(2*pi*2/7))", _ZERO),
    TableRow((3, 6), 16, "(2-sqrt2)/3", _ZERO),
    TableRow((3, 6), 18, "(2/3)*(1-cos(2*pi*1/9))", _THIRDS),
    TableRow((3, 6), 18, "(2/3)*(1-cos(2*pi*2/9))", _THIRDS),
    TableRow((3, 6), 20, "(3-sqrt5)/6", _ZERO),
    TableRow((3, 6), 20, "(3+sqrt5)/6", _ZERO),
    TableRow((3, 6), 22, "(2/3)*(1-cos(2*pi*1/11))", _ZERO),
    TableRow((3, 6), 22, "(2/3)*(1-cos(2*pi*2/11))", _ZERO),
    TableRow((3, 6), 22, "(2/3)*(1-cos(2*pi*3/11))", _ZERO),
    TableRow((3, 6), 24, "(2-sqrt3)/3", _THIRDS),
    TableRow((3, 6), 24, "2/3", _NONZERO_THIRDS),
    TableRow((3, 6), 26, "(2/3)*(1-cos(2*pi*1/13))", _ZERO),
    TableRow((3, 6), 26, "(2/3)*(1-cos(2*pi*2/13))", _ZERO),
    TableRow((3, 6), 26, "(2/3)*(1-cos(2*pi*3/13))", _ZERO),
    TableRow((3, 6), 26, "(2/3)*(1-cos(2*pi*4/13))", _ZERO),
    TableRow((3, 6), 28, "(2/3)*(1-cos(2*pi*1/14))", _ZERO),
    TableRow((3, 6), 28, "(2/3)*(1-cos(2*pi*3/14))", _ZERO),
    TableRow((3, 6), 30, "(7-sqrt5-sqrt(6*(5-sqrt5)))/12", _THIRDS),
    TableRow((3, 6), 30, "(7+sqrt5-sqrt(6*(5+sqrt5)))/12", _THIRDS),
    TableRow((3, 6), 30, "(7-sqrt5+sqrt(6*(5-sqrt5)))/12", _THIRDS),
    TableRow((3, 6), 30, "(5-sqrt5)/6", _NONZERO_THIRDS),
)

_K4_ZERO_PI = (Fraction(0), Fraction(1, 2))
_K4_PI = (Fraction(1, 2),)
_K4_QUARTERS = (Fraction(1, 4), Fraction(3, 4))

TABLE4_ROWS: tuple[TableRow, ...] = (
    TableRow((4,), 6, "3/4", _ZERO),
    TableRow((4,), 8, "1/2", _K4_ZERO_PI),
    TableRow((4,), 10, "(5-sqrt5)/8", _ZERO),
    TableRow((4,), 10, "(5+sqrt5)/8", _ZERO),
    TableRow((4,), 12, "1/4", _K4_ZERO_PI),
    TableRow((4,), 12, "3/4", _K4_PI),
    TableRow((4,), 12, "(2-sqrt3)/2", _K4_QUARTERS),
    TableRow((4,), 14, "(1/2)*(1-sin(3*pi/14))", _ZERO),
    TableRow((4,), 14, "(1/2)*(1+sin(pi/14))", _ZERO),
    TableRow((4,), 14, "(1/2)*(1+cos(pi/7))", _ZERO),
    TableRow((4,), 16, "(2-sqrt2)/4", _K4_ZERO_PI),
    TableRow((4,), 16, "(2+sqrt2)/4", _K4_ZERO_PI),
    TableRow((4,), 16, "(2-sqrt2)/2", _K4_QUARTERS),
    TableRow((4,), 18, "(1/2)*(1-cos(2*pi/9))", _ZERO),
    TableRow((4,), 18, "(1/2)*(1-sin(pi/18))", _ZERO),
    TableRow((4,), 20, "(3-sqrt5)/8", _K4_ZERO_PI),
    TableRow((4,), 20, "(3+sqrt5)/8", _K4_ZERO_PI),
    TableRow((4,), 20, "(5-sqrt5)/8", _K4_PI),
    TableRow((4,), 20, "(5+sqrt5)/8", _K4_PI),
    TableRow((4,), 20, "(4-sqrt(10+2*sqrt5))/4", _K4_QUARTERS),
    TableRow((4,), 20, "(4-sqrt(10-2*sqrt5))/4", _K4_QUARTERS),
    TableRow((4,), 22, "(1/2)*(1-cos(2*pi/11))", _ZERO),
    TableRow((4,), 22, "(1/2)*(1-sin(3*pi/22))", _ZERO),
    TableRow((4,), 22, "(1/2)*(1+sin(pi/22))", _ZERO),
    TableRow((4,), 22, "(1/2)*(1+sin(5*pi/22))", _ZERO),
    TableRow((4,), 22, "(1/2)*(1+cos(pi/11))", _ZERO),
    TableRow((4,), 24, "(2-sqrt3)/4", _K4_ZERO_PI),
    TableRow((4,), 24, "(2+sqrt3)/4", _K4_ZERO_PI),
    TableRow((4,), 24, "1/2", _K4_QUARTERS),
    TableRow((4,), 26, "(1/2)*(1-cos(2*pi/13))", _ZERO),
    TableRow((4,), 26, "(1/2)*(1-sin(5*pi/26))", _ZERO),
    TableRow((4,), 26, "(1/2)*(1-sin(pi/26))", _ZERO),
    TableRow((4,), 26, "(1/2)*(1+sin(3*pi/26))", _ZERO),
    TableRow((4,), 26, "(1/2)*(1+cos(3*pi/13))", _ZERO),
    TableRow((4,), 26, "(1/2)*(1+cos(pi/13))", _ZERO),
    TableRow((4,), 28, "(1/2)*(1-cos(pi/7))", _K4_ZERO_PI),
    TableRow((4,), 28, "(1/2)*(1-sin(pi/14))", _K4_ZERO_PI),
    TableRow((4,), 28, "(1/2)*(1+sin(3*pi/14))", _K4_ZERO_PI),
    TableRow((4,), 28, "(1/2)*(1+cos(pi/7))", _K4_PI),
    TableRow((4,), 28, "(1/2)*(1+sin(pi/14))", _K4_PI),
    TableRow((4,), 28, "(1/2)*(1-sin(3*pi/14))", _K4_PI),
    TableRow((4,), 28, "1-sin(pi/7)", _K4_QUARTERS),
    TableRow((4,), 28, "1-cos(pi/14)", _K4_QUARTERS),
    TableRow((4,), 28, "1-cos(3*pi/14)", _K4_QUARTERS),
    TableRow((4,), 30, "(7-sqrt5-sqrt(6*(5-sqrt5)))/16", _ZERO),
    TableRow((4,), 30, "(7+sqrt5-sqrt(6*(5+sqrt5)))/16", _ZERO),
    TableRow((4,), 30, "(7-sqrt5+sqrt(6*(5-sqrt5)))/16", _ZERO),
    TableRow((4,), 30, "(7+sqrt5+sqrt(6*(5+sqrt5)))/16", _ZERO),
)

TABLE5_ROWS: tuple[TableRow, ...] = (
    # k = 5, 10; N = 60 throughout
    TableRow(
        (5, 10), 60, "(5-sqrt5)/10", _ZERO,
        (_fs((1, 12), (5, 12), (7, 12), (11, 12)), _fs((1, 20), (9, 20), (11, 20), (19, 20))),
    ),
    TableRow(
        (5, 10), 60, "(5-sqrt5)/10", (Fraction(1, 5),),
        (_fs((1, 60), (11, 60), (31, 60), (41, 60)), _fs((1, 20), (3, 20), (11, 20), (13, 20))),
    ),
    TableRow(
        (5, 10), 60, "(5-sqrt5)/10", (Fraction(2, 5),),
        (_fs((7, 60), (17, 60), (37, 60), (47, 60)), _fs((3, 20), (1, 4), (13, 20), (3, 4))),
    ),
    TableRow(
        (5, 10), 60, "(5-sqrt5)/10", (Fraction(3, 5),),
        (_fs((13, 60), (23, 60), (43, 60), (53, 60)), _fs((1, 4), (7, 20), (3, 4), (17, 20))),
    ),
    TableRow(
        (5, 10), 60, "(5-sqrt5)/10", (Fraction(4, 5),),
        (_fs((19, 60), (29, 60), (49, 60), (59, 60)), _fs((7, 20), (9, 20), (17, 20), (19, 20))),
    ),
    TableRow(
        (5, 10), 60, "(5+sqrt5)/10", _ZERO,
        (_fs((3, 20), (7, 20), (13, 20), (17, 20)), _fs((1, 12), (5, 12), (7, 12), (11, 12))),
    ),
    TableRow(
        (5, 10), 60, "(5+sqrt5)/10", (Fraction(1, 5),),
        (_fs((1, 4), (9, 20), (3, 4), (19, 20)), _fs((1, 60), (11, 60), (31, 60), (41, 60))),
    ),
    TableRow(
        (5, 10), 60, "(5+sqrt5)/10", (Fraction(2, 5),),
        (_fs((1, 20), (7, 20), (11, 20), (17, 20)), _fs((7, 60), (17, 60), (37, 60), (47, 60))),
    ),
    TableRow(
        (5, 10), 60, "(5+sqrt5)/10", (Fraction(3, 5),),
        (_fs((3, 20), (9, 20), (13, 20), (19, 20)), _fs((13, 60), (23, 60), (43, 60), (53, 60))),
    ),
    TableRow(
        (5, 10), 60, "(5+sqrt5)/10", (Fraction(4, 5),),
        (_fs((1, 20), (1, 4), (11, 20), (3, 4)), _fs((19, 60), (29, 60), (49, 60), (59, 60))),
    ),
    # k = 8; N = 24, rho = 1/2 throughout
    TableRow(
        (8,), 24, "1/2", _ZERO,
        (_fs((1, 12), (5, 12), (7, 12), (11, 12)), _fs((1, 8), (3, 8), (5, 8), (7, 8))),
    ),
    TableRow(
        (8,), 24, "1/2", (Fraction(1, 4),),
        (_fs((1, 24), (5, 24), (13, 24), (17, 24)), _fs((1, 4), (1, 2), (3, 4))),
    ),
    TableRow(
        (8,), 24, "1/2", (Fraction(1, 2),),
        (_fs((1, 6), (1, 3), (2, 3), (5, 6)), _fs((1, 8), (3, 8), (5, 8), (7, 8))),
    ),
    TableRow(
        (8,), 24, "1/2", (Fraction(3, 4),),
        (_fs((7, 24), (11, 24), (19, 24), (23, 24)), _fs((1, 4), (1, 2), (3, 4))),
    ),
)


@dataclass(frozen=True)
class Table6Column:
    """One seed column of the special-state table for k=4, delta=0.

    Phases are stored as fractions of a full turn; block 1 carries the
    negative-phase pair, block 3 the mirrored positive one.
    """

    rho_display: str
    block1: frozenset[Fraction]
    block3: frozenset[Fraction]

    @cached_property
    def rho(self) -> float:
        return parse_value(self.rho_display)


# The published caption writes the last seed as 4/6; the surrounding set is
# {1/5, 2/5, 3/5, ...} and the column values match 4/5, so 4/5 is used here.
TABLE6_COLUMNS: dict[Fraction, Table6Column] = {
    Fraction(1, 5): Table6Column("(5+sqrt5)/8", _fs((4, 5), (7, 10)), _fs((3, 10), (1, 5))),
    Fraction(2, 5): Table6Column("(5-sqrt5)/8", _fs((9, 10), (3, 5)), _fs((1, 10), (2, 5))),
    Fraction(3, 5): Table6Column("(5-sqrt5)/8", _fs((9, 10), (3, 5)), _fs((1, 10), (2, 5))),
    Fraction(4, 5): Table6Column("(5+sqrt5)/8", _fs((4, 5), (7, 10)), _fs((3, 10), (1, 5))),
}

_TABLES = {
    1: TABLE1_ROWS,
    2: TABLE2_ROWS,
    3: TABLE3_ROWS,
    4: TABLE4_ROWS,
    5: TABLE5_ROWS,
}


class TableColumns(NamedTuple):
    """The checks of a published table in order (row, k, delta), as columns: `row` indexes
    `rows`, `delta_two_pi` holds Fractions and `deviation` max |U^N - I| of each check."""

    rows: tuple[TableRow, ...]
    row: np.ndarray
    k: np.ndarray
    delta_two_pi: tuple[Fraction, ...]
    deviation: np.ndarray


def verify_table(table: int) -> TableColumns:
    """Power every (k, rho, delta) of a published table to its row's N, one engine pass per
    cycle length.  Table 3's rows are checked at k=3 and k=6 (equal solution sets), table 5's
    k=5,10 rows at both cycle lengths as well."""
    if table not in _TABLES:
        raise ValueError(f"table must be one of {sorted(_TABLES)}, got {table}")
    rows = _TABLES[table]
    # num/den rounds as float(dtp) does, without the cost of Fraction.__float__
    index, k, turns, num, den = zip(*[
        (i, cycle, dtp, *dtp.as_integer_ratio())
        for i, row in enumerate(rows) for cycle in row.k_values for dtp in row.delta_two_pi
    ])
    index, k, delta = np.array(index), np.array(k), TWO_PI * (np.array(num) / np.array(den))
    rho, n = np.array([row.rho for row in rows])[index], np.array([row.n for row in rows])[index]
    deviation = np.empty(len(index))
    for cycle in dict.fromkeys(k.tolist()):  # np.unique's first call would import numpy.ma
        at = k == cycle
        deviation[at] = power_deviations(cycle, rho[at], delta[at], n[at])
    return TableColumns(rows, index, k, turns, deviation)
