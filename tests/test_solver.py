"""Weight forms, the seed-search dispatch, the rho edges, and the approximate mode."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import (
    CoinParams,
    enumerate_seeded,
    full_spectrum,
    power_deviation,
    revival_period,
    solve_approximate,
    solve_rho_edge,
    solve_seeded,
    weight_forms,
)
from cyclewalk import revival, solver, walk
from cyclewalk.cli import main
from cyclewalk.solver import _companion_pairs, _degenerate_pairs
from cyclewalk.special import principal_phase
from cyclewalk.tables import TABLE2_ROWS, TABLE3_ROWS, TABLE5_ROWS
from oracles import (
    certificate_to_json,
    companion_fractions,
    constant_block_fractions,
    enumerate_seeded_per_candidate,
    reconstruct_fraction,
    reduced_fractions,
    solve_approximate_fractions,
)

RNG = np.random.default_rng(424242)

SQRT5 = math.sqrt(5.0)


def pair_set(nums, dens) -> set[tuple[int, int]]:
    """The (num, den) pairs of the solver's array rules, as a set."""
    return set(zip(np.ravel(nums).tolist(), np.ravel(dens).tolist()))


class TestCompanions:
    def test_worked_example_set(self):
        got = pair_set(*_companion_pairs(2, 5, 2, 3))
        assert got == {(4, 15), (2, 5), (23, 30), (9, 10)}

    def test_members_share_the_class(self):
        for _ in range(50):
            n = int(RNG.integers(2, 40))
            m = int(RNG.integers(1, n))
            v = int(RNG.integers(1, 12))
            u = int(RNG.integers(0, v))
            seed, dtp = Fraction(m, n), Fraction(u, v)
            cls = pair_set(*_companion_pairs(*seed.as_integer_ratio(), *dtp.as_integer_ratio()))
            # reduced (num, den) pairs of the Fraction reference
            assert cls == {f.as_integer_ratio() for f in companion_fractions(seed, dtp)}
            for member in cls:
                assert pair_set(*_companion_pairs(*member, *dtp.as_integer_ratio())) == cls

    def test_undefined_blocks_exact(self):
        def degenerate(k, dtp):
            return weight_forms(k, dtp)[1]

        assert degenerate(3, Fraction(0)) == (0,)
        assert degenerate(3, Fraction(1, 3)) == (1,)
        assert degenerate(3, Fraction(2, 3)) == (2,)
        assert degenerate(4, Fraction(0)) == (0, 2)
        assert degenerate(4, Fraction(1, 2)) == (1, 3)
        assert degenerate(4, Fraction(1, 4)) == ()
        assert degenerate(8, Fraction(1, 4)) == (3, 7)

    def test_constant_fractions(self):
        assert pair_set(*_degenerate_pairs(3, 0)) == {(0, 1), (1, 2)}
        assert pair_set(*_degenerate_pairs(4, 1)) == {(3, 4), (1, 4)}

    def test_degenerate_pairs_match_the_fraction_reference(self):
        for k in range(2, 65):
            for l in range(k):
                expected = {f.as_integer_ratio() for f in constant_block_fractions(k, l)}
                assert pair_set(*_degenerate_pairs(k, l)) == expected, (k, l)


def float_forms(k, dtp):
    """Form count and degenerate blocks from clustering 1 - cos(4*pi*l/k + delta)."""
    dens = 1.0 - np.cos(4.0 * np.pi * np.arange(k) / k + 2.0 * np.pi * float(dtp))
    degenerate = np.abs(dens) < 1e-12
    values = np.sort(dens[~degenerate])
    count = int(values.size > 0) + int(np.count_nonzero(np.diff(values) > 1e-9))
    return count, tuple(int(l) for l in np.flatnonzero(degenerate))


class TestWeightForms:
    def test_matches_float_clustering(self):
        smallest, mismatches = {}, []
        for k in range(2, 41):
            for dtp in [Fraction(0)] + reduced_fractions(2 * k):
                forms, degenerate = weight_forms(k, dtp)
                if (len(forms), degenerate) != float_forms(k, dtp):
                    mismatches.append((k, dtp))
                smallest[k] = min(smallest.get(k, k), len(forms))
        assert mismatches == []
        assert smallest[2] == 0
        assert [k for k, n in smallest.items() if n == 1] == [3, 4, 6]
        assert [k for k, n in smallest.items() if n == 2] == [5, 8, 10]
        assert [k for k, n in smallest.items() if n == 3] == [7, 12, 14]
        assert smallest[9] == smallest[16] == 4
        assert all(smallest[k] >= 5 for k in range(11, 41, 2))

    def test_forms_partition_the_blocks(self):
        for k, dtp in ((3, Fraction(0)), (8, Fraction(1, 4)), (10, Fraction(3, 7))):
            forms, degenerate = weight_forms(k, dtp)
            blocks = sorted(degenerate + sum(forms.values(), ()))
            assert blocks == list(range(k))
            assert list(forms) == sorted(forms)
            assert all(0 < x <= Fraction(1, 2) for x in forms)

    def test_k2_has_one_form_off_zero(self):
        assert weight_forms(2, Fraction(0)) == ({}, (0, 1))
        for dtp in reduced_fractions(12):
            assert len(weight_forms(2, dtp)[0]) == 1


class TestRhoEdge:
    def test_rho0_k5(self):
        (cert,) = solve_rho_edge(5, Fraction(1, 3), 0).solutions
        assert cert.N == 6 and cert.case_tag == "rho0"

    def test_rho1_k3(self):
        (cert,) = solve_rho_edge(3, Fraction(1, 2), 1).solutions
        assert cert.N == 6 and cert.case_tag == "rho1"

    def test_rho0_k2_direct_powering(self):
        (cert,) = solve_rho_edge(2, Fraction(1, 2), 0).solutions
        assert cert.N == 4
        assert power_deviation(2, cert.params, 4) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="ROADMAP item 1: the deviation grows like N*eps, so this true revival at "
        "N = 3e11 misses the fixed 1e-9 tolerance (deviation 8.5e-05)",
    )
    def test_true_rho1_revival_at_large_n_certifies(self):
        (cert,) = solve_rho_edge(3, Fraction(1, 10**11), 1).solutions
        assert cert.N == 3 * 10**11

    def test_delta_zero_edges(self):
        # the edge formulas at u/v = 0/1: rho=0 gives N=2 with generators {0, 1/2}, rho=1
        # gives N=lcm(2, k); the true period divides each, and Table 2 lists N=2 for k=2
        published = {row.rho: row.n for row in TABLE2_ROWS if row.delta_two_pi == (Fraction(0),)}
        for k in range(2, 33):
            for edge in (0, 1):
                (cert,) = solve_rho_edge(k, Fraction(0), edge).solutions
                assert cert.N == (2 if edge == 0 else math.lcm(2, k)), (k, edge)
                assert cert.case_tag == f"rho{edge}" and cert.max_deviation < 1e-9
                if edge == 0:
                    assert cert.generators == (Fraction(0), Fraction(1, 2))
                if k == 2:
                    assert cert.N == published[float(edge)] == 2
                period = revival_period(k, CoinParams(float(edge)))
                assert period is not None and cert.N % period.N == 0, (k, edge)

    def test_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            solve_rho_edge(3, Fraction(1, 2), 2)
        with pytest.raises(ValueError):
            solve_rho_edge(3, Fraction(3, 2), 0)


def k2_seed_window(seed):
    """Open delta/(2*pi) interval in which a k=2 seed's weight is below 1:
    an oracle, apart from the weight formula, for the dispatch's (0, 1) check."""
    lo = Fraction(2 * seed.numerator % seed.denominator, 2 * seed.denominator)
    return lo, lo + Fraction(1, 2)


def accepts(k, uv, seed):
    try:
        solve_seeded(k, uv, seed)
    except ValueError:
        return False
    return True


class TestK2:
    def test_window(self):
        # the weight check accepts exactly the window's interior, less the
        # zero of the weight at u/v = 2m/n
        for seed, (lo, hi) in (
            (Fraction(2, 5), (Fraction(2, 5), Fraction(9, 10))),
            (Fraction(1, 6), (Fraction(1, 6), Fraction(2, 3))),
        ):
            assert k2_seed_window(seed) == (lo, hi)
            for v in range(2, 31):
                for u in range(1, v):
                    uv = Fraction(u, v)
                    inside = lo < uv < hi and uv != (2 * seed) % 1
                    assert accepts(2, uv, seed) == inside, (seed, uv)

    def test_worked_example(self):
        (cert,) = solve_seeded(2, Fraction(2, 3), Fraction(2, 5)).solutions
        assert cert.N == 30 and cert.case_tag == "k2_seeded"
        assert cert.rho == pytest.approx(
            2.0 / 3.0 * (1.0 - math.sin(7.0 * math.pi / 30.0)), abs=1e-14
        )
        assert set(cert.generators) == {
            Fraction(4, 15),
            Fraction(2, 5),
            Fraction(23, 30),
            Fraction(9, 10),
        }
        assert cert.max_deviation < 1e-9

    def test_generators_match_spectrum(self):
        (cert,) = solve_seeded(2, Fraction(2, 3), Fraction(2, 5)).solutions
        phases = sorted(principal_phase(full_spectrum(2, cert.params)) / (2.0 * math.pi))
        expected = sorted(float(f) for f in cert.generators)
        assert np.max(np.abs(np.array(phases) - expected)) < 1e-12

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            solve_seeded(2, Fraction(1, 5), Fraction(2, 5))
        with pytest.raises(ValueError):
            solve_seeded(2, Fraction(9, 10), Fraction(2, 5))

    def test_window_property_random(self):
        # inside the open window the weight is in (0, 1), except the single
        # interior zero at u/v = 2m/n (mod 1); boundaries give 0 or 1.
        # seed 1/2 is degenerate (weight identically 1) and excluded.
        # Outside the window the weight check rejects every seed.
        count = 0
        while count < 100:
            n = int(RNG.integers(2, 30))
            m = int(RNG.integers(1, n))
            seed = Fraction(m, n)
            if seed == Fraction(1, 2):
                assert not accepts(2, Fraction(1, 3), seed)
                continue
            lo, hi = k2_seed_window(seed)
            v = int(RNG.integers(2, 40))
            for uv in (Fraction(u, v) for u in range(1, v)):
                if not lo < uv < hi:
                    assert not accepts(2, uv, seed), (seed, uv)
            candidates = [
                Fraction(u, v) for u in range(1, v) if lo < Fraction(u, v) < hi
            ]
            if not candidates:
                continue
            uv = candidates[int(RNG.integers(0, len(candidates)))]
            delta = 2.0 * math.pi * float(uv)
            rho = (1.0 - math.cos(4.0 * math.pi * float(seed) - delta)) / (
                1.0 - math.cos(delta)
            )
            if uv == (2 * seed) % 1:
                assert abs(rho) < 1e-9
                assert not accepts(2, uv, seed)
            else:
                assert 0.0 < rho < 1.0
                assert solve_seeded(2, uv, seed).solutions[0].rho == pytest.approx(rho, abs=1e-12)
            count += 1

    def test_window_boundary_gives_edge_weight(self):
        for seed in (Fraction(2, 5), Fraction(1, 6), Fraction(3, 7)):
            for uv in k2_seed_window(seed):
                delta = 2.0 * math.pi * float(uv)
                rho = (1.0 - math.cos(4.0 * math.pi * float(seed) - delta)) / (
                    1.0 - math.cos(delta)
                )
                assert min(abs(rho), abs(rho - 1.0)) < 1e-9
                assert not accepts(2, uv, seed)


class TestK3:
    def test_table_entry_n8(self):
        (cert,) = solve_seeded(3, Fraction(0), Fraction(1, 8)).solutions
        assert cert.N == 8 and cert.rho == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_table_entry_n10(self):
        (cert,) = solve_seeded(3, Fraction(0), Fraction(1, 10)).solutions
        assert cert.N == 10
        assert cert.rho == pytest.approx((5.0 - SQRT5) / 6.0, abs=1e-14)

    def test_nonzero_delta_family(self):
        (cert,) = solve_seeded(3, Fraction(1, 3), Fraction(7, 24)).solutions
        assert cert.N == 24 and cert.rho == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_verifies_for_k6_too(self):
        (cert,) = solve_seeded(3, Fraction(0), Fraction(1, 8)).solutions
        assert cert.case_tag == "k3_family"
        assert power_deviation(6, cert.params, cert.N) < 1e-9

    def test_rejects_weight_outside_unit_interval(self):
        with pytest.raises(ValueError):
            solve_seeded(3, Fraction(0), Fraction(1, 4))  # rho = 4/3
        with pytest.raises(ValueError):
            solve_seeded(3, Fraction(0), Fraction(1, 2))  # rho = 0

    def test_rejects_bad_delta(self):
        # three weight forms at this delta: no seed search applies
        with pytest.raises(ValueError, match="3 weight forms"):
            solve_seeded(3, Fraction(1, 5), Fraction(1, 8))
        # two forms: one seed cannot fill both
        with pytest.raises(ValueError, match="two weight forms"):
            solve_seeded(3, Fraction(1, 2), Fraction(1, 8))


class TestK4:
    def test_table_entry_n6(self):
        (cert,) = solve_seeded(4, Fraction(0), Fraction(1, 6)).solutions
        assert cert.N == 6 and cert.rho == pytest.approx(0.75, abs=1e-14)

    def test_table_entry_n8(self):
        (cert,) = solve_seeded(4, Fraction(0), Fraction(1, 8)).solutions
        assert cert.N == 8 and cert.rho == pytest.approx(0.5, abs=1e-14)

    def test_quarter_turn_delta(self):
        (cert,) = solve_seeded(4, Fraction(1, 4), Fraction(1, 12)).solutions
        assert cert.N == 12
        assert cert.rho == pytest.approx((2.0 - math.sqrt(3.0)) / 2.0, abs=1e-14)

    def test_delta_pi_uses_shifted_numerator(self):
        (cert,) = solve_seeded(4, Fraction(1, 2), Fraction(1, 8)).solutions
        assert cert.N == 8 and cert.rho == pytest.approx(0.5, abs=1e-14)


class TestEnumerate:
    def test_table3_delta0_completeness(self):
        # scanning all companion classes with denominators <= 30 and keeping
        # N <= 30 reproduces the published k=3 delta=0 rows exactly
        family = enumerate_seeded(3, Fraction(0), max_den=30, max_n=30)
        scan = sorted((c.N, round(c.rho, 10)) for c in family.solutions)
        table = sorted(
            (row.n, round(row.rho, 10))
            for row in TABLE3_ROWS
            if Fraction(0) in row.delta_two_pi
        )
        assert scan == table

    def test_canonical_ordering(self):
        family = enumerate_seeded(3, Fraction(0), max_den=16, max_n=30)
        keys = [(c.N, c.rho) for c in family.solutions]
        assert keys == sorted(keys)

    def test_k4_small_scan(self):
        family = enumerate_seeded(4, Fraction(0), max_den=8, max_n=30)
        found = {(c.N, round(c.rho, 10)) for c in family.solutions}
        assert (6, round(0.75, 10)) in found
        assert (8, round(0.5, 10)) in found

    def test_k6_is_a_k3_family(self):
        k3 = enumerate_seeded(3, Fraction(1, 3), max_den=16)
        k6 = enumerate_seeded(6, Fraction(1, 3), max_den=16)
        assert k6.case_tag == "k3_family" and k6.solutions
        assert [(c.N, c.generators) for c in k6.solutions] == [
            (c.N, c.generators) for c in k3.solutions
        ]

    def test_max_n_applies_to_two_forms(self):
        assert enumerate_seeded(5, Fraction(0), max_den=20, max_n=10).solutions == ()
        assert len(enumerate_seeded(5, Fraction(0), max_den=20, max_n=60).solutions) == 2


# the (k, delta/(2*pi)) searches of the paper_search benchmark workload
PAPER_SEARCHES = [
    *((k, Fraction(d)) for k in (3, 6) for d in ("0", "1/3", "2/3")),
    *((4, Fraction(d)) for d in ("0", "1/2", "1/4", "3/4")),
    *((2, Fraction(d)) for d in ("1/3", "2/3", "1/4", "3/4", "2/5", "3/5")),
    *((k, Fraction(t, 5)) for k in (5, 10) for t in range(5)),
    *((8, Fraction(t, 4)) for t in range(4)),
]


@pytest.mark.parametrize("max_den", [24, 60])
@pytest.mark.parametrize("k, dtp", PAPER_SEARCHES, ids=str)
def test_integer_scan_matches_the_fraction_search(k, dtp, max_den):
    max_n = 2 * max_den if k == 4 else None
    new = enumerate_seeded(k, dtp, max_den, max_n)
    old_tag, old = enumerate_seeded_per_candidate(k, dtp, max_den, max_n)
    assert new.case_tag == old_tag
    assert [(c.N, c.generators, c.case_tag) for c in new.solutions] == [
        (c.N, c.generators, c.case_tag) for c in old
    ]
    for a, b in zip(new.solutions, old):
        assert a.rho == b.rho
        assert abs(a.max_deviation - b.max_deviation) < 1e-13 * a.N


def test_search_certifies_in_one_pass_per_cycle(monkeypatch):
    built, passes = [], []
    post_init = walk.WalkOperator.__post_init__
    su2_form = revival.su2_form

    def counted_post_init(op):
        built.append(op.k)
        post_init(op)

    def counted_su2_form(k, rho, alpha, delta):
        passes.append((k, len(rho)))
        return su2_form(k, rho, alpha, delta)

    monkeypatch.setattr(walk.WalkOperator, "__post_init__", counted_post_init)
    monkeypatch.setattr(revival, "su2_form", counted_su2_form)
    family = enumerate_seeded(3, Fraction(0), 48)
    assert built == []
    # each certificate is measured once, on its own cycle
    assert passes == [(3, len(family.solutions))]


def test_search_rows_are_built_when_read(monkeypatch, capsys):
    built = []
    post_init = revival.RevivalCertificate.__post_init__

    def counted_post_init(cert):
        built.append(cert.N)
        post_init(cert)

    monkeypatch.setattr(revival.RevivalCertificate, "__post_init__", counted_post_init)
    family = enumerate_seeded(3, Fraction(0), 48)
    assert built == []
    solutions = family.solutions
    assert len(built) == len(solutions) > 0
    assert family.solutions is solutions
    assert main(["solve", "--case", "k3", "--delta-frac", "0/1"]) == 0
    assert capsys.readouterr().out and len(built) == len(solutions)


def test_every_seeded_and_edge_period_is_even(monkeypatch):
    # with the block identity of TestDoublingProperty in test_revival.py, an even N makes
    # U_k^N = I equivalent to U_2k^N = I for odd k, so one pass on k certifies both cycles:
    # a seeded N is even because s and s + 1/2 are both generators
    periods = []
    certify = solver.certify

    def counted_certify(k, delta, rho, n, *columns, **fields):
        periods.extend(n.tolist())
        return certify(k, delta, rho, n, *columns, **fields)

    monkeypatch.setattr(solver, "certify", counted_certify)
    for k, dtp in PAPER_SEARCHES:
        enumerate_seeded(k, dtp, max_den=96)
    seeded = len(periods)
    turns = {Fraction(u, v) for v in range(2, 13) for u in range(1, v)} | {Fraction(0)}
    for k in range(2, 33):
        for uv in turns:
            solve_rho_edge(k, uv, 0)
            solve_rho_edge(k, uv, 1)
    assert seeded > 3000 and len(periods) == seeded + 2 * 31 * len(turns)
    assert [n for n in periods if n % 2] == []


def test_search_memory_holds_one_chunk_of_candidates():
    # the per-candidate Fraction search peaks at 25.6 MB here; holding every
    # candidate's generators at once before the batch took it to 30.4 MB
    tracemalloc.start()
    try:
        family = enumerate_seeded(6, Fraction(1, 3), max_den=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family.solutions) == 20194
    assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("dtp", [Fraction(1), Fraction(-1, 3)], ids=str)
def test_searches_reject_delta_outside_one_turn(dtp):
    with pytest.raises(ValueError):
        enumerate_seeded(3, dtp, max_den=8)
    with pytest.raises(ValueError):
        solve_seeded(3, dtp, Fraction(1, 5))


# two-form cases of k=3, 4, 6 and 8 without a solution at denominators <= 30
BOUNDED_NEGATIVES = [
    (k, Fraction(*d)) for k in (3, 6) for d in ((1, 6), (1, 2), (5, 6))
] + [(4, Fraction(1, 3)), (4, Fraction(1, 8)), (8, Fraction(1, 8)), (8, Fraction(3, 8))]


@pytest.mark.parametrize("k, dtp", BOUNDED_NEGATIVES, ids=str)
def test_bounded_negative(k, dtp):
    assert len(weight_forms(k, dtp)[0]) == 2
    family = enumerate_seeded(k, dtp, max_den=30)
    assert family.case_tag == "two_form" and family.solutions == ()


class TestTwoForm:
    def test_k8_delta0(self):
        certs = enumerate_seeded(8, Fraction(0), max_den=24).solutions
        assert len(certs) == 1
        cert = certs[0]
        assert cert.N == 24 and cert.rho == pytest.approx(0.5, abs=1e-10)
        gens = set(cert.generators)
        primary = {Fraction(1, 12), Fraction(5, 12), Fraction(7, 12), Fraction(11, 12)}
        secondary = {Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)}
        assert primary <= gens and secondary <= gens

    def test_k8_delta0_exhaustive_at_den24(self):
        # the published generators are the only solution at denominators <= 24
        certs = enumerate_seeded(8, Fraction(0), max_den=24).solutions
        assert {round(c.rho, 9) for c in certs} == {0.5}

    def test_k5_delta0_both_families(self):
        certs = enumerate_seeded(5, Fraction(0), max_den=20).solutions
        assert [c.N for c in certs] == [60, 60]
        rhos = sorted(round(c.rho, 10) for c in certs)
        assert rhos == [
            round((5.0 - SQRT5) / 10.0, 10),
            round((5.0 + SQRT5) / 10.0, 10),
        ]
        minus = next(c for c in certs if abs(c.rho - (5.0 - SQRT5) / 10.0) < 1e-9)
        assert {
            Fraction(1, 20),
            Fraction(9, 20),
            Fraction(11, 20),
            Fraction(19, 20),
        } <= set(minus.generators)

    def test_k10_matches_k5(self):
        certs5 = enumerate_seeded(5, Fraction(0), max_den=20).solutions
        certs10 = enumerate_seeded(10, Fraction(0), max_den=20).solutions
        assert [(c.N, round(c.rho, 10)) for c in certs5] == [
            (c.N, round(c.rho, 10)) for c in certs10
        ]

    def test_all_published_generator_sets_found(self):
        for row in TABLE5_ROWS:
            k = row.k_values[0]
            dtp = row.delta_two_pi[0]
            certs = enumerate_seeded(k, dtp, max_den=60).solutions
            match = [c for c in certs if abs(c.rho - row.rho) < 1e-9]
            assert match, (k, dtp, row.rho_display)
            gens = set(match[0].generators)
            primary, secondary = row.generator_sets
            assert primary <= gens and secondary <= gens
            assert match[0].N == row.n

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            enumerate_seeded(7, Fraction(0), 24)
        with pytest.raises(ValueError):
            enumerate_seeded(8, Fraction(1, 5), 24)
        with pytest.raises(ValueError):  # every block degenerate
            enumerate_seeded(2, Fraction(0), 24)


class TestApproximate:
    def test_recovers_exact_solution(self):
        (cert,) = solve_approximate(3, 2.0 / 3.0, 0.0, 1e-12).solutions
        assert cert is not None and cert.N == 8
        assert cert.exact and cert.max_deviation < 1e-9

    def test_k7_regression(self):
        (cert,) = solve_approximate(7, 0.5, 0.0, 1e-2).solutions
        assert cert is not None
        assert cert.N == 2700
        assert cert.max_deviation == pytest.approx(0.4567393294769493, abs=1e-9)
        assert not cert.exact

    def test_k7_monotone_in_epsilon(self):
        periods = []
        for eps in (1e-1, 1e-2):
            (cert,) = solve_approximate(7, 0.5, 0.0, eps).solutions
            periods.append(cert.N)
        assert periods == [440, 2700]
        assert periods[0] <= periods[1]

    def test_period_cap_returns_none(self):
        # the honest LCM at this epsilon is 1356410 > 10**6
        assert solve_approximate(7, 0.5, 0.0, 1e-3) is None

    def test_irrational_delta_path(self):
        # no power of U is I at an irrational turn, so there is no near-revival to offer
        with pytest.raises(ValueError, match=r"0\.15915494309189535 \(mod 1\) is not a turn u/v"):
            solve_approximate(5, 0.3, 1.0, 0.1)

    def test_radians_name_no_turn_past_the_bound(self):
        # 2*pi/1001 is a rational turn, but only a Fraction carries it exactly
        with pytest.raises(ValueError, match="v <= 1000 within 1e-12; pass --delta-frac"):
            solve_approximate(2, 0.5, 2.0 * math.pi / 1001, 0.02)
        assert solve_approximate(2, 0.5, Fraction(1, 1001), 0.02).delta_two_pi == Fraction(1, 1001)

    @pytest.mark.parametrize("delta", [1e15, 1e300, -1e15, -1.0, 7.0, 100.0])
    def test_large_delta_is_read_modulo_one_turn(self, delta):
        turn = delta % (2.0 * math.pi) / (2.0 * math.pi) % 1.0
        with pytest.raises(ValueError) as refused:
            solve_approximate(3, 0.5, delta, 0.02)
        assert f"delta/(2*pi) = {turn!r} (mod 1)" in str(refused.value)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            solve_approximate(3, 0.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            solve_approximate(3, 0.5, 0.0, 0.0)


rational_turns = st.integers(1, 12).flatmap(
    lambda v: st.integers(0, v - 1).map(lambda u: Fraction(u, v))
)
approximate_deltas = st.one_of(
    rational_turns,  # exact companion completion
    rational_turns.map(lambda d: 2.0 * math.pi * float(d)),  # radians read back as a turn
    # refused: radians that are no turn u/v with v <= 1000
    st.floats(0.01, 6.28).filter(lambda d: reconstruct_fraction(d, 1000, 1e-12) is None),
)


@example(k=7, rho=0.5, delta=Fraction(0), epsilon=0.02)
@example(k=3, rho=2.0 / 3.0, delta=0.0, epsilon=1e-5)
@example(k=5, rho=0.3, delta=1.0, epsilon=0.02)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 16),
    rho=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    delta=approximate_deltas,
    epsilon=st.sampled_from([0.02, 1e-3, 1e-5]),
)
def test_approximate_matches_the_fraction_reference(k, rho, delta, epsilon):
    if not isinstance(delta, Fraction) and reconstruct_fraction(delta, 1000, 1e-12) is None:
        for solve in (solve_approximate, solve_approximate_fractions):  # both refuse
            with pytest.raises(ValueError):
                solve(k, rho, delta, epsilon)
        return
    new = solve_approximate(k, rho, delta, epsilon)
    old = solve_approximate_fractions(k, rho, delta, epsilon)
    assert (new is None) == (old is None)
    if new is not None:
        (new,) = new.solutions
        assert certificate_to_json(new) == certificate_to_json(old)
        assert new.exact == old.exact
