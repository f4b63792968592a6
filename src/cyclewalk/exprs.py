"""Tiny arithmetic grammar for exact parameter values on the command line.

Accepts integers, decimals, fractions, square roots (sqrt5 or sqrt(...)),
pi, sin(...), cos(...), +, -, *, /, and parentheses -- enough to spell every
published table entry exactly, e.g. "(5-sqrt5)/8", "2/3" or
"(1/2)*(1+cos(pi/7))".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = ["ExpressionError", "parse_fraction", "parse_value"]


class ExpressionError(ValueError):
    """Malformed value expression."""


_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|(sqrt|sin|cos|pi)|([()+\-*/]))")
_FUNCTIONS = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos}
_FRACTION = re.compile(r"\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unexpected input at {rest[:10]!r}")
        tokens.append(next(g for g in match.groups() if g is not None))
        pos = match.end()
    return tokens


def parse_value(text: str) -> float:
    """Evaluate the mini-grammar; raises ExpressionError on anything else."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    try:
        value, pos = _parse_expr(tokens, 0)
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    if pos != len(tokens):
        raise ExpressionError(f"trailing input starting at token {tokens[pos]!r}")
    return value


def parse_fraction(text: str) -> Fraction:
    """Strict u/v (or plain integer) form used by --delta-frac and --seed."""
    match = _FRACTION.match(text)
    if match is None:
        raise ExpressionError(f"expected an integer fraction like 2/3, got {text!r}")
    try:
        num = int(match.group(1))
        den = int(match.group(2)) if match.group(2) else 1
    except ValueError:  # more digits than int() converts
        raise ExpressionError(f"too many digits in {text[:20]!r}...") from None
    if den == 0:
        raise ExpressionError("fraction denominator is zero")
    return Fraction(num, den)


def _parse_expr(tokens, pos):
    value, pos = _parse_term(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "+-":
        operator = tokens[pos]
        right, pos = _parse_term(tokens, pos + 1)
        value = value + right if operator == "+" else value - right
    return value, pos


def _parse_term(tokens, pos):
    value, pos = _parse_factor(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "*/":
        operator = tokens[pos]
        right, pos = _parse_factor(tokens, pos + 1)
        if operator == "*":
            value = value * right
        else:
            if right == 0.0:
                raise ExpressionError("division by zero")
            value = value / right
    return value, pos


def _parse_factor(tokens, pos):
    if pos < len(tokens) and tokens[pos] == "-":
        value, pos = _parse_factor(tokens, pos + 1)
        return -value, pos
    return _parse_atom(tokens, pos)


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise ExpressionError("expression ended unexpectedly")
    token = tokens[pos]
    if token in _FUNCTIONS:
        if token == "sqrt" and pos + 1 < len(tokens) and _is_number(tokens[pos + 1]):
            inner, pos = float(tokens[pos + 1]), pos + 2  # the sqrt5 shorthand
        elif pos + 1 < len(tokens) and tokens[pos + 1] == "(":
            inner, pos = _parse_atom(tokens, pos + 1)
        else:
            raise ExpressionError(f"{token} expects a parenthesized expression")
        try:
            return _FUNCTIONS[token](inner), pos
        except ValueError:  # sqrt of a negative value, sin or cos of an infinite one
            raise ExpressionError(f"{token} of {inner!r} is undefined") from None
    if token == "pi":
        return math.pi, pos + 1
    if token == "(":
        value, new_pos = _parse_expr(tokens, pos + 1)
        if new_pos >= len(tokens) or tokens[new_pos] != ")":
            raise ExpressionError("unbalanced parenthesis")
        return value, new_pos + 1
    if _is_number(token):
        return float(token), pos + 1
    raise ExpressionError(f"unexpected token {token!r}")


def _is_number(token: str) -> bool:
    return token[0].isdigit()
