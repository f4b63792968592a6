"""The batched phase reconstruction and the integer rho=1 generators.

`revival_period` reconstructs the whole spectrum with one float continued
fraction and proves each result, with no per-phase fallback; these tests
check every proved entry against `Fraction.limit_denominator`, that a float
p/q with q <= 2**24 proves as p/q at any max_n, the whole path against the
exact per-phase reference in `oracles`, and that large spectra never call
`Fraction.limit_denominator`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import (
    HADAMARD,
    CoinParams,
    RevivalCertificate,
    revival_period,
    solve_rho_edge,
)
from cyclewalk import revival
from cyclewalk.revival import MAX_POWER, _proved_fractions
from oracles import revival_period_per_phase, rho_one_generators

TWO_PI = 2.0 * math.pi

MAX_NS = (1, 2, 1000, 10**6)
#: exact, round-off sized, and either side of PHASE_RECONSTRUCTION_TOL = 1e-9
OFFSETS = (0.0, 1e-15, -1e-15, 9.99e-10, -9.99e-10, 1.001e-9, -1.001e-9)


def farey_midpoint(a: int, b: int, n: int) -> float:
    """Midpoint of a/b and its successor c/d among fractions with denominator <= n.

    limit_denominator(n) ties there between a convergent and a semiconvergent
    (exactly where the float midpoint is exact, nearly elsewhere).
    """
    d = (-pow(a, -1, b)) % b if b > 1 else 1
    d += b * ((n - d) // b)
    c = (1 + a * d) // b
    return float((Fraction(a, b) + Fraction(c, d)) / 2)


def assert_proved_entries_exact(xs, max_n):
    x = np.array(xs, dtype=float)
    p, q, proved = _proved_fractions(x, max_n)
    for xi, pi, qi, ok in zip(x.tolist(), p.tolist(), q.tolist(), proved.tolist()):
        if ok:
            assert math.gcd(int(pi), int(qi)) == 1
            assert Fraction(int(pi), int(qi)) == Fraction(xi).limit_denominator(max_n), xi


@st.composite
def phase_points(draw, max_n):
    """x in [0, 1] as revival_period makes it: (value) % 1.0 near a fraction, or anywhere."""
    kind = draw(st.sampled_from(("near", "tie", "any")))
    if kind == "any":
        return draw(st.floats(min_value=0.0, max_value=1.0))
    f = draw(st.fractions(min_value=0, max_value=1, max_denominator=max(max_n, 2)))
    if kind == "tie" and f.denominator <= max_n and f < 1:
        return farey_midpoint(f.numerator, f.denominator, max_n)
    return (float(f) + draw(st.sampled_from(OFFSETS))) % 1.0


phase_cases = st.sampled_from(MAX_NS).flatmap(
    lambda max_n: st.tuples(st.just(max_n), st.lists(phase_points(max_n), min_size=1, max_size=12))
)


@example(case=(1, [0.0, 0.5, 1.0, (-1e-300) % 1.0]))
@example(case=(2, [0.25, 0.75, farey_midpoint(0, 1, 2), np.nextafter(1.0, 0.0)]))
@example(case=(1000, [farey_midpoint(1, 999, 1000), farey_midpoint(0, 1, 1000), 1 / 3 + 9.99e-10]))
@example(case=(10**6, [np.nextafter(1.0, 0.0), (-1e-17) % 1.0, 0.0, 3 / 7 - 1e-15]))
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=phase_cases)
def test_proved_entries_match_limit_denominator(case):
    max_n, xs = case
    assert_proved_entries_exact(xs, max_n)


@pytest.mark.parametrize("max_n", [1000, 10**6])
def test_exact_small_fractions_are_proved(max_n):
    fractions = [Fraction(p, q) for q in range(1, 61) for p in range(q + 1)]
    p, q, proved = _proved_fractions(np.array([float(f) for f in fractions]), max_n)
    assert proved.all()
    assert [Fraction(int(a), int(b)) for a, b in zip(p, q)] == fractions


float_fractions = st.integers(1, 2**24).flatmap(
    lambda q: st.lists(st.integers(0, q).map(lambda p: Fraction(p, q)), min_size=1, max_size=8)
)


@example(fractions=[Fraction(2**23 - 1, 2**24 - 1), Fraction(1, 2**24), Fraction(1)])
@example(fractions=[Fraction(5592405, 16777213), Fraction(0)])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(fractions=float_fractions)
def test_float_fractions_prove_at_any_max_n(fractions):
    """A float p/q with q <= 2**24 proves as p/q however far max_n reaches past q."""
    x = np.array([float(f) for f in fractions])
    top = max(f.denominator for f in fractions)
    for max_n in (top, 2**24, 10**15, 10**400):
        p, q, proved = _proved_fractions(x, max_n)
        assert proved.all(), max_n
        assert [Fraction(int(a), int(b)) for a, b in zip(p, q)] == fractions, max_n


def test_ties_and_wraps_are_not_proved_wrongly():
    # 0.25 at max_n=2 is equidistant from 0 and 1/2; limit_denominator keeps 0
    p, q, proved = _proved_fractions(np.array([0.25, 0.5, 1.0]), 2)
    assert proved.tolist() == [False, True, True]
    assert (p[1:] / q[1:]).tolist() == [0.5, 1.0]


def same_answer(k, params, max_n):
    cert = revival_period(k, params, max_n=max_n)
    reference = revival_period_per_phase(k, params, max_n)
    if reference is None:
        assert cert is None
    else:
        assert cert is not None
        assert (cert.N, cert.generators, cert.max_deviation) == reference


rational_deltas = st.builds(
    lambda v, u: TWO_PI * (u % v) / v,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=11),
)
deltas = st.one_of(rational_deltas, st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True))
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@example(k=7, rho=0.5, delta=0.0, max_n=500)
@example(k=3, rho=2 / 3, delta=0.0, max_n=100)
@example(k=3, rho=2 / 3, delta=0.0, max_n=10**400)
@example(k=64, rho=1.0, delta=TWO_PI * 3 / 7, max_n=10**6)
@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    k=st.integers(min_value=2, max_value=64),
    rho=weights,
    delta=deltas,
    max_n=st.sampled_from([1000, 10**6]),
)
def test_revival_period_matches_per_phase_loop(k, rho, delta, max_n):
    same_answer(k, CoinParams.from_delta(rho, delta), max_n)


@pytest.mark.parametrize(
    "params",
    [
        CoinParams.from_delta(1.0, TWO_PI * 3 / 7),
        CoinParams.from_delta(0.0, TWO_PI * 5 / 11),
        CoinParams.from_delta(0.37, 1.0),
        HADAMARD,
    ],
    ids=["rho1", "rho0", "random", "hadamard"],
)
def test_revival_period_matches_per_phase_loop_at_k512(params):
    same_answer(512, params, 10**6)
    same_answer(512, params, 1000)


def test_large_spectrum_needs_no_per_phase_fallback(monkeypatch):
    calls = []
    real = Fraction.limit_denominator

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    cert = revival_period(4096, CoinParams.from_delta(1.0, TWO_PI / 3), max_n=10**6)
    assert cert is not None and cert.N == math.lcm(2, 4096, 3 * 4096)
    assert revival_period(512, HADAMARD) is None
    assert calls == []


def test_no_power_past_int64_is_tried(monkeypatch):
    # every phase of this k=3 coin proves at some q <= 2**24, but their LCM is about 2.3e38
    params = CoinParams.from_delta(0.6681574410339702, 5.308289894912453)
    x = np.angle(revival.full_spectrum(3, params)) / TWO_PI % 1.0
    _, q, proved = _proved_fractions(x, 10**400)
    assert proved.all() and math.lcm(*q.astype(int).tolist()) > MAX_POWER
    calls = []
    monkeypatch.setattr(revival, "power_deviation", lambda *args: calls.append(args) or 0.0)
    assert revival_period(3, params, max_n=10**400) is None
    assert calls == []


def test_rho_one_generators_match_fraction_arithmetic():
    turns = [Fraction(u, v) for v in range(2, 13) for u in range(1, v) if math.gcd(u, v) == 1]
    for k in range(2, 65):
        for uv in turns:
            cert = solve_rho_edge(k, uv, 1)
            assert cert.N == math.lcm(2, k, uv.denominator * k)
            reference, got = rho_one_generators(k, uv), cert.generators
            assert len(got) == len(reference) and set(got) == reference, (k, uv)
            assert all(a < b for a, b in zip(got, got[1:])), (k, uv)


def test_certificate_orders_and_dedupes_equal_floats():
    a = Fraction(1, 3)
    b = a + Fraction(1, 10**20)  # float(b) == float(a)
    c = Fraction(1, 2)
    assert float(a) == float(b) and a != b
    cert = RevivalCertificate.from_generators(
        k=2, N=6 * 10**20, rho=0.0, delta=0.0,
        generators=(c, b, a, b, c, a, Fraction(0)), max_deviation=0.0, exact=False,
    )
    assert cert.generators == (Fraction(0), a, b, c)
