"""Certificates hold their generators as integer numerators over N.

Every producer builds its numerators in integers; these tests check each
one against the Fraction generators the producers used to hand to the
certificate and the sort/dedupe/LCM normalisation it applied to them
(`oracles.normalized_generators`), check the JSON round trip, reject
malformed numerators, and count the Fractions each hot path still builds.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import (
    HADAMARD,
    CoinParams,
    RevivalCertificate,
    enumerate_seeded,
    revival_period,
    solve_approximate,
    solve_rho_edge,
)
from cyclewalk.cli import certificate_from_json, certificate_to_json
from oracles import (
    normalized_generators,
    revival_period_per_phase,
    rho_one_generators,
    seeded_candidates,
)
from test_solver import PAPER_SEARCHES

TWO_PI = 2.0 * math.pi
TURNS = [Fraction(u, v) for v in range(2, 13) for u in range(1, v) if math.gcd(u, v) == 1]


def check_certificate(cert: RevivalCertificate, raw) -> None:
    """Generators as the old normalisation left them, and a lossless JSON round trip."""
    expected = normalized_generators(raw, cert.N)
    assert cert.generators == expected
    record = certificate_to_json(cert)
    assert record["generators"] == [{"num": f.numerator, "den": f.denominator} for f in expected]
    line = json.dumps(record)
    again = certificate_from_json(json.loads(line))
    assert again == cert
    assert json.dumps(certificate_to_json(again)) == line


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(PAPER_SEARCHES), st.integers(2, 24))
def test_search_certificates(search, max_den):
    k, dtp = search
    max_n = 2 * max_den if k == 4 else None
    family = enumerate_seeded(k, dtp, max_den, max_n)
    _, candidates = seeded_candidates(k, dtp, max_den, max_n)
    candidates.sort(key=lambda c: (c[1], c[0]))
    assert [(c.N, c.rho) for c in family.solutions] == [(n, rho) for rho, n, _ in candidates]
    for cert, (_, _, raw) in zip(family.solutions, candidates):
        check_certificate(cert, raw)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 64), st.sampled_from(TURNS), st.sampled_from((0, 1)))
@example(2, Fraction(1, 3), 1)  # N=6 < 2kv: each numerator comes from a reduced fraction
def test_edge_certificates(k, uv, edge):
    raw = {uv / 2, uv / 2 + Fraction(1, 2)} if edge == 0 else rho_one_generators(k, uv)
    check_certificate(solve_rho_edge(k, uv, edge), raw)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(2, 64), st.just(512)),
    st.sampled_from(TURNS),
    st.sampled_from((0.0, 1.0, 0.5)),
)
@example(512, Fraction(3, 7), 1.0)
@example(4, Fraction(1, 2), 0.5)
def test_period_certificates(k, uv, rho):
    params = CoinParams.from_delta(rho, TWO_PI * float(uv)) if rho != 0.5 else HADAMARD
    cert = revival_period(k, params, max_n=10**6)
    reference = revival_period_per_phase(k, params, 10**6)
    assert (cert is None) == (reference is None)
    if cert is not None:
        assert cert.N == reference[0]
        check_certificate(cert, reference[1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(2, 12),
    st.floats(0.05, 0.95),
    st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 0.3)),
)
@example(6, 0.37, Fraction(1, 3))
def test_approximate_certificates(k, rho, delta):
    cert = solve_approximate(k, rho, delta, 0.02)
    if cert is not None:
        check_certificate(cert, cert.generators)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.fractions(Fraction(0), Fraction(1), max_denominator=40), max_size=12),
    st.integers(1, 3),
)
def test_from_generators_normalises_as_before(fractions, multiple):
    fractions = [f % 1 for f in fractions]
    n = math.lcm(*(f.denominator for f in fractions)) * multiple
    cert = RevivalCertificate.from_generators(
        fractions, k=2, N=n, rho=0.5, delta=0.0, max_deviation=1.0, exact=False
    )
    assert cert.generators == normalized_generators(fractions, n)


@pytest.mark.parametrize(
    "numerators", [(3, 1), (1, 1), (0, 2, 2, 5), (-1, 2), (0, 8), (0, 9)], ids=str
)
def test_rejects_malformed_numerators(numerators):
    with pytest.raises(ValueError, match="numerators must increase strictly"):
        RevivalCertificate(
            k=2, N=8, rho=0.5, delta=0.0, numerators=numerators, max_deviation=0.0
        )


@pytest.mark.parametrize("generator", [Fraction(-1, 8), Fraction(9, 8), Fraction(1)], ids=str)
def test_rejects_generators_outside_one_turn(generator):
    with pytest.raises(ValueError, match="numerators must increase strictly"):
        RevivalCertificate.from_generators(
            [generator], k=2, N=8, rho=0.5, delta=0.0, max_deviation=0.0
        )


def fractions_made(monkeypatch, call) -> int:
    """How many Fractions call() constructs."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        call()
    return len(made)


def test_hot_paths_build_no_fraction_per_candidate(monkeypatch):
    zero, uv = Fraction(0), Fraction(3, 7)
    small = fractions_made(monkeypatch, lambda: enumerate_seeded(3, zero, 24))
    assert fractions_made(monkeypatch, lambda: enumerate_seeded(3, zero, 48)) == small
    assert small < len(enumerate_seeded(3, zero, 24).solutions)
    edge = fractions_made(monkeypatch, lambda: solve_rho_edge(16, uv, 1))
    assert fractions_made(monkeypatch, lambda: solve_rho_edge(512, uv, 1)) == edge
    params = CoinParams.from_delta(1.0, TWO_PI * float(uv))
    found = []

    def period():
        found.append(revival_period(512, params, 10**6))

    assert fractions_made(monkeypatch, period) == 0
    assert found[0] is not None and len(found[0].numerators) == 1024


@pytest.mark.parametrize(
    "delta, epsilon, ks",
    [(Fraction(1, 3), 0.02, (2, 6, 16)), (2.0 * math.pi / 3.0, 0.02, (2, 6, 16)),
     (1.0, 0.1, (2, 3, 4))],  # the irrational branch: one picked fraction per eigenphase
    ids=str,
)
def test_approximate_builds_fractions_only_to_read_delta(monkeypatch, delta, epsilon, ks):
    # the completion works on (num, den) pairs, so the count is that of reading delta,
    # the same for every k; a None certificate would have completed nothing
    found = []

    def solve(k):
        found.append(solve_approximate(k, 0.37, delta, epsilon))

    counts = {fractions_made(monkeypatch, lambda: solve(k)) for k in ks}
    assert len(counts) == 1 and None not in found


@pytest.mark.parametrize("max_n", [12, 10**6, 10**12])
def test_revival_period_of_a_rho_one_coin(max_n):
    cert = revival_period(4, CoinParams.from_delta(1.0, TWO_PI / 3), max_n=max_n)
    assert cert is not None and cert.N == 12


def test_revival_period_keeps_a_true_revival_at_large_max_n():
    # proofs run at denominators up to 2**24 whatever max_n is, so no phase falls to its
    # float's own dyadic fraction
    for max_n in (10**15, 10**20, 10**400):
        cert = revival_period(4, CoinParams.from_delta(1.0, TWO_PI / 3), max_n=max_n)
        assert cert is not None and cert.N == 12, max_n
