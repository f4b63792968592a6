"""Fixture integrity and full verification of the published tables."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cyclewalk import CoinParams, power_deviation, tables, verify_table
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


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
def test_table_verifies(table):
    report = verify_table(table)
    assert report.all_pass, report.failures


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
def test_batched_rows_match_the_scalar_deviation(table):
    # the checks come in row order, each (k, delta) of a row in turn
    rows = (TABLE1_ROWS, TABLE2_ROWS, TABLE3_ROWS, TABLE4_ROWS, TABLE5_ROWS)[table - 1]
    report = verify_table(table)
    assert [(c.k, c.n, c.rho, c.delta_two_pi) for c in report.checks] == [
        (k, row.n, row.rho, dtp) for row in rows for k in row.k_values for dtp in row.delta_two_pi
    ]
    for check in report.checks:
        params = CoinParams.from_delta(check.rho, 2.0 * math.pi * float(check.delta_two_pi))
        alone = power_deviation(check.k, params, check.n)
        assert abs(check.deviation - alone) < 1e-13 * max(1, check.n), check
        assert check.passed == (check.deviation < report.tolerance)


@pytest.mark.parametrize("table, cycles", [(1, 6), (2, 1), (3, 2), (4, 1), (5, 3)])
def test_one_engine_pass_per_cycle_length(monkeypatch, table, cycles):
    passes = []
    engine = tables.power_deviations

    def counted(k, rho, delta, n):
        passes.append(k)
        return engine(k, rho, delta, n)

    monkeypatch.setattr(tables, "power_deviations", counted)
    report = verify_table(table)
    assert sorted(passes) == sorted({c.k for c in report.checks}) and len(passes) == cycles


def test_table3_checks_both_cycle_lengths():
    report = verify_table(3)
    assert {c.k for c in report.checks} == {3, 6}


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
    report4 = verify_table(4)
    row = [
        c
        for c in report4.checks
        if c.n == 24 and abs(c.rho - 0.5) < 1e-12 and c.delta_two_pi == Fraction(1, 4)
    ]
    assert row and row[0].passed

    report3 = verify_table(3)
    rows = [
        c
        for c in report3.checks
        if c.n == 30
        and c.rho_display == "(5-sqrt5)/6"
        and c.delta_two_pi == Fraction(1, 3)
    ]
    assert {c.k for c in rows} == {3, 6} and all(c.passed for c in rows)

    report5 = verify_table(5)
    rows = [
        c
        for c in report5.checks
        if c.delta_two_pi == Fraction(4, 5) and c.rho_display == "(5+sqrt5)/10"
    ]
    assert {c.k for c in rows} == {5, 10}
    assert all(c.passed and c.n == 60 for c in rows)


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
