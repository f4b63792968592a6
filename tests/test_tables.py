"""Fixture integrity and full verification of the published tables, read off the columns
that `verify_table` returns."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cyclewalk import CERTIFICATION_TOL, CoinParams, power_deviation, tables, verify_table
from cyclewalk.tables import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    TABLE4_ROWS,
    TABLE5_ROWS,
    TABLE6_COLUMNS,
)

TABLES = (TABLE1_ROWS, TABLE2_ROWS, TABLE3_ROWS, TABLE4_ROWS, TABLE5_ROWS,
          tuple(TABLE6_COLUMNS.values()))
GOLDEN_RHOS = Path(__file__).resolve().parent / "golden" / "table_rhos.json"


def checks(table):
    """(k, row, delta/(2*pi), deviation) of each check of a table, read off its columns."""
    columns = verify_table(table)
    rows = [columns.rows[i] for i in columns.row.tolist()]
    return list(zip(columns.k.tolist(), rows, columns.delta_two_pi, columns.deviation.tolist(),
                    strict=True))


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
def test_table_verifies(table):
    deviation = verify_table(table).deviation
    assert (deviation < CERTIFICATION_TOL).all(), deviation.max()


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
def test_batched_rows_match_the_scalar_deviation(table):
    # the checks come in row order, each (k, delta) of a row in turn
    rows = (TABLE1_ROWS, TABLE2_ROWS, TABLE3_ROWS, TABLE4_ROWS, TABLE5_ROWS)[table - 1]
    found = checks(table)
    assert [(k, row, dtp) for k, row, dtp, _ in found] == [
        (k, row, dtp) for row in rows for k in row.k_values for dtp in row.delta_two_pi
    ]
    for k, row, dtp, deviation in found:
        params = CoinParams.from_delta(row.rho, 2.0 * math.pi * float(dtp))
        alone = power_deviation(k, params, row.n)
        assert abs(deviation - alone) < 1e-13 * max(1, row.n), (k, row, dtp)


@pytest.mark.parametrize("table, cycles", [(1, 6), (2, 1), (3, 2), (4, 1), (5, 3)])
def test_one_engine_pass_per_cycle_length(monkeypatch, table, cycles):
    passes = []
    engine = tables.power_deviations

    def counted(k, rho, delta, n):
        passes.append(k)
        return engine(k, rho, delta, n)

    monkeypatch.setattr(tables, "power_deviations", counted)
    columns = verify_table(table)
    assert sorted(passes) == sorted(set(columns.k.tolist())) and len(passes) == cycles


def test_table3_checks_both_cycle_lengths():
    assert set(verify_table(3).k.tolist()) == {3, 6}


def test_table5_covers_all_phase_choices():
    by_k = {}
    for row in TABLE5_ROWS:
        for k in row.k_values:
            by_k.setdefault(k, set()).update(row.delta_two_pi)
    assert by_k[5] == {Fraction(t, 5) for t in range(5)}
    assert by_k[10] == {Fraction(t, 5) for t in range(5)}
    assert by_k[8] == {Fraction(t, 4) for t in range(4)}


def test_spot_rows_present():
    # specific rows called out for direct verification
    rows = [
        (row, dev) for _, row, dtp, dev in checks(4)
        if row.n == 24 and abs(row.rho - 0.5) < 1e-12 and dtp == Fraction(1, 4)
    ]
    assert rows and rows[0][1] < CERTIFICATION_TOL

    rows = [
        (k, dev) for k, row, dtp, dev in checks(3)
        if row.n == 30 and row.rho_display == "(5-sqrt5)/6" and dtp == Fraction(1, 3)
    ]
    assert {k for k, _ in rows} == {3, 6} and all(dev < CERTIFICATION_TOL for _, dev in rows)

    rows = [
        (k, row, dev) for k, row, dtp, dev in checks(5)
        if dtp == Fraction(4, 5) and row.rho_display == "(5+sqrt5)/10"
    ]
    assert {k for k, _, _ in rows} == {5, 10}
    assert all(dev < CERTIFICATION_TOL and row.n == 60 for _, row, dev in rows)


def test_displays_match_sympy_at_50_digits():
    # every display, trig ones included, against the exact value; 2 ulp of 1
    # is the scale of the terms: cancellation as in 1-cos(pi/14) leaves the
    # value itself up to 6 of its own ulps from the exact one
    sympy = pytest.importorskip("sympy")
    for row in (row for rows in TABLES for row in rows):
        text = re.sub(r"sqrt(\d+)", r"sqrt(\1)", row.rho_display)
        exact = sympy.sympify(text, rational=True).evalf(50)
        assert abs(sympy.Float(row.rho, 50) - exact) <= 2 * math.ulp(1.0), row.rho_display


def test_rhos_match_the_golden_bits():
    # (rho_display, rho.hex()) of every row and Table 6 column, in order
    golden = json.loads(GOLDEN_RHOS.read_text())
    assert sorted(golden) == [str(n) for n in range(1, 7)]
    for n, rows in enumerate(TABLES, 1):
        assert [[row.rho_display, row.rho.hex()] for row in rows] == golden[str(n)], n


def test_table6_column_symmetry():
    # the two weight values split the seed columns into mirrored pairs
    assert TABLE6_COLUMNS[Fraction(1, 5)].rho == TABLE6_COLUMNS[Fraction(4, 5)].rho
    assert TABLE6_COLUMNS[Fraction(2, 5)].rho == TABLE6_COLUMNS[Fraction(3, 5)].rho
    for column in TABLE6_COLUMNS.values():
        assert {(-f) % 1 for f in column.block1} == set(column.block3)


def test_rejects_unknown_table():
    with pytest.raises(ValueError):
        verify_table(6)
