"""Fixture integrity and full verification of the published tables."""

import math
from fractions import Fraction

import pytest

from cyclewalk import CoinParams, parse_value, power_deviation, verify_table
from cyclewalk.tables import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    TABLE4_ROWS,
    TABLE5_ROWS,
    TABLE6_COLUMNS,
)


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


def test_surd_displays_parse_to_stored_values():
    rows = TABLE1_ROWS + TABLE2_ROWS + TABLE3_ROWS + TABLE4_ROWS + TABLE5_ROWS
    checked = 0
    for row in rows:
        display = row.rho_display
        if any(tag in display for tag in ("cos", "sin", "pi")):
            continue
        assert parse_value(display) == pytest.approx(row.rho, abs=1e-15), display
        checked += 1
    assert checked > 20


def test_table6_column_symmetry():
    # the two weight values split the seed columns into mirrored pairs
    assert TABLE6_COLUMNS[Fraction(1, 5)].rho == TABLE6_COLUMNS[Fraction(4, 5)].rho
    assert TABLE6_COLUMNS[Fraction(2, 5)].rho == TABLE6_COLUMNS[Fraction(3, 5)].rho
    for column in TABLE6_COLUMNS.values():
        assert {(-f) % 1 for f in column.block1} == set(column.block3)


def test_rejects_unknown_table():
    with pytest.raises(ValueError):
        verify_table(6)
