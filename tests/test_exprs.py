"""The exact-value mini-grammar and fraction flags."""

import math
from fractions import Fraction

import pytest

from cyclewalk import ExpressionError, parse_fraction, parse_value


class TestParseValue:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2/3", 2.0 / 3.0),
            ("0.37", 0.37),
            ("5", 5.0),
            ("-1/2", -0.5),
            ("sqrt5", math.sqrt(5.0)),
            ("sqrt(2)", math.sqrt(2.0)),
            ("(5-sqrt5)/8", (5.0 - math.sqrt(5.0)) / 8.0),
            ("(5+sqrt5)/10", (5.0 + math.sqrt(5.0)) / 10.0),
            ("(2-sqrt3)/3", (2.0 - math.sqrt(3.0)) / 3.0),
            ("(7-sqrt5-sqrt(6*(5-sqrt5)))/12",
             (7.0 - math.sqrt(5.0) - math.sqrt(6.0 * (5.0 - math.sqrt(5.0)))) / 12.0),
            ("(4-sqrt(10+2*sqrt5))/4",
             (4.0 - math.sqrt(10.0 + 2.0 * math.sqrt(5.0))) / 4.0),
            ("(2/3)*(1-0.5)", 1.0 / 3.0),
            ("1 - 1/4", 0.75),
            ("pi", math.pi),
            ("sin(pi/14)", math.sin(math.pi / 14.0)),
            ("(1/2)*(1+cos(pi/7))", 0.5 * (1.0 + math.cos(math.pi / 7.0))),
        ],
    )
    def test_values(self, text, expected):
        assert parse_value(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            "", "2/", "sqrt", "sqrt(-1)", "1/0", "2**3", "five", "(1+2", "1+2)",
            "sin", "cos 1", "sin(1", "2pi", "sin(1" + "0" * 400 + ")",
            "(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1",
        ],
        ids=lambda text: text if len(text) <= 40 else f"{text[:12]}...({len(text)} chars)",
    )
    def test_rejects(self, text):
        with pytest.raises(ExpressionError):
            parse_value(text)


class TestParseFraction:
    def test_plain(self):
        assert parse_fraction("2/3") == Fraction(2, 3)
        assert parse_fraction("0/1") == Fraction(0)
        assert parse_fraction("7") == Fraction(7)

    def test_reduces(self):
        assert parse_fraction("4/6") == Fraction(2, 3)

    @pytest.mark.parametrize(
        "text", ["1/0", "2.5", "a/b", "1/2/3", "1/" + "7" * 5000],
        ids=lambda text: text if len(text) <= 40 else f"{text[:12]}...({len(text)} chars)",
    )
    def test_rejects(self, text):
        with pytest.raises(ExpressionError):
            parse_fraction(text)
