"""Fraction reconstruction, the block de-Moivre weight formula, and period detection."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from cyclewalk import (
    CoinParams,
    build_walk_operator,
    enumerate_seeded,
    power_deviation,
    revival_period,
    solve_rho_edge,
    solve_seeded,
    weight,
    weight_forms,
)
from cyclewalk.revival import _proved_fraction
from oracles import (
    constant_block_fractions,
    eigenvalues_closed_form,
    from_generators,
    reconstruct_fraction,
    walk_matrix,
)

RNG = np.random.default_rng(8675309)

TWO_PI = 2.0 * math.pi


def rho_for(k, l, seed, dtp):
    """Weight that puts eigenphase 2*pi*seed on block l; None on a degenerate block."""
    forms, degenerate = weight_forms(k, dtp)
    if l in degenerate:
        return None
    (x,) = (x for x, blocks in forms.items() if l in blocks)
    return weight(seed, dtp, x)


class TestRhoFor:
    def test_k3_table_entry(self):
        assert rho_for(3, 1, Fraction(1, 8), Fraction(0)) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_k2_worked_example(self):
        # exact value is (2/3)*(1 - sin(7*pi/30)) ~= 0.2205796
        got = rho_for(2, 0, Fraction(2, 5), Fraction(2, 3))
        assert got == pytest.approx(2.0 / 3.0 * (1.0 - math.sin(7.0 * math.pi / 30.0)), abs=1e-14)

    def test_half_gives_zero(self):
        for k, l in ((3, 1), (5, 2), (8, 3)):
            assert rho_for(k, l, Fraction(1, 2), Fraction(0)) == pytest.approx(0.0, abs=1e-14)

    def test_undefined_returns_none(self):
        assert rho_for(3, 0, Fraction(1, 8), Fraction(0)) is None
        assert rho_for(4, 1, Fraction(1, 8), Fraction(1, 2)) is None

    def test_rejects_bad_block(self):
        # the forms and the degenerate blocks partition exactly range(k)
        forms, degenerate = weight_forms(3, Fraction(0))
        assert sorted(degenerate + sum(forms.values(), ())) == [0, 1, 2]
        with pytest.raises(ValueError):
            weight_forms(1, Fraction(0))


class TestUndefinedRhoEigenvalues:
    """A degenerate block's eigenphases are {-l/k, -l/k + 1/2} at every weight."""

    @staticmethod
    def phases(k, l, dtp, rho=0.5):
        pair = eigenvalues_closed_form(k, l, CoinParams.from_delta(rho, TWO_PI * float(dtp)))
        return sorted(round((cmath.phase(z) / TWO_PI) % 1.0, 12) % 1.0 for z in pair)

    def test_k4_l1_delta_pi(self):
        assert 1 in weight_forms(4, Fraction(1, 2))[1]
        assert constant_block_fractions(4, 1) == {Fraction(1, 4), Fraction(3, 4)}
        assert self.phases(4, 1, Fraction(1, 2)) == [0.25, 0.75]

    def test_k3_l0_delta0(self):
        assert 0 in weight_forms(3, Fraction(0))[1]
        assert constant_block_fractions(3, 0) == {Fraction(0), Fraction(1, 2)}
        assert self.phases(3, 0, Fraction(0)) == [0.0, 0.5]

    def test_k2_l1_delta0(self):
        assert 1 in weight_forms(2, Fraction(0))[1]
        assert constant_block_fractions(2, 1) == {Fraction(1, 2), Fraction(0)}
        assert self.phases(2, 1, Fraction(0)) == [0.0, 0.5]

    def test_rejects_defined_block(self):
        assert 1 not in weight_forms(3, Fraction(0))[1]

    def test_independent_of_rho(self):
        # the same pair appears in the actual spectrum for any weight
        expected = sorted(float(f) for f in constant_block_fractions(3, 0))
        for rho in (0.0, 0.3, 0.8, 1.0):
            assert self.phases(3, 0, Fraction(0), rho) == expected


def proved_fraction(phase: float, max_den: int) -> Fraction | None:
    """One phase through `revival_period`'s scalar proof, in the reference's 1e-9 window."""
    x = phase / TWO_PI % 1.0
    fraction = _proved_fraction(x, max_den)
    if fraction is None or not abs(x - fraction[0] / fraction[1]) < 1e-9:
        return None
    return Fraction(*fraction) % 1


def both_readings(phase: float, max_den: int) -> set[Fraction | None]:
    """The exact per-phase reading and the scalar proof's, as a set (one element if they agree)."""
    return {reconstruct_fraction(phase, max_den=max_den), proved_fraction(phase, max_den)}


class TestReconstructFraction:
    """The exact per-phase reference, and the scalar proof on the same inputs."""

    def test_pi_is_one_half(self):
        assert both_readings(math.pi, 10) == {Fraction(1, 2)}

    def test_near_rational(self):
        assert both_readings(TWO_PI * 7 / 60 + 1e-13, 100) == {Fraction(7, 60)}

    def test_irrational_returns_none(self):
        assert both_readings(1.0, 1000) == {None}

    def test_irrational_oracle_scan(self):
        # exhaustive check that no q <= 1000 approximates 1/(2*pi) to 1e-9
        x = 1.0 / TWO_PI
        best = min(abs(x - round(x * q) / q) for q in range(1, 1001))
        assert best > 1e-9

    def test_negative_phase_wraps(self):
        assert both_readings(-math.pi / 2.0, 10) == {Fraction(3, 4)}

    def test_round_trip_property(self):
        for _ in range(200):
            q = int(RNG.integers(1, 1000))
            p = int(RNG.integers(0, q))
            fraction = Fraction(p, q)
            got = reconstruct_fraction(TWO_PI * float(fraction), max_den=1000)
            assert got == fraction
            assert proved_fraction(TWO_PI * float(fraction), 1000) == fraction
            assert abs(cmath.exp(2j * math.pi * float(got)) - cmath.exp(2j * math.pi * p / q)) < 1e-12


def _pick_rational_weight_case(rng):
    """Random (k, l, m/n, delta) with a defined weight in (0, 1)."""
    while True:
        k = int(rng.integers(2, 9))
        l = int(rng.integers(0, k))
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, n))
        fraction = Fraction(m, n)
        v = int(rng.integers(1, 13))
        u = int(rng.integers(0, v))
        delta = TWO_PI * u / v
        rho = rho_for(k, l, fraction, Fraction(u, v))
        if rho is not None and 1e-6 < rho < 1.0 - 1e-6:
            return k, l, fraction, delta, rho


class TestWeightFormulaConsistency:
    def test_block_contains_plus_or_minus_value(self):
        # substituting rho_l back in puts lambda = +-exp(2*pi*i*m/n) in block l
        for _ in range(200):
            k, l, fraction, delta, rho = _pick_rational_weight_case(RNG)
            target = cmath.exp(2j * math.pi * float(fraction))
            pair = eigenvalues_closed_form(k, l, CoinParams.from_delta(rho, delta))
            gap = min(min(abs(z - target), abs(z + target)) for z in pair)
            assert gap < 1e-9, (k, l, fraction, delta, rho, pair)

    def test_sign_rule_selects_the_branch(self):
        # sin(2*pi*m/n - delta/2) and sin(2*pi*l/k + delta/2) of opposite sign
        # puts exactly exp(+2*pi*i*m/n) in the block
        checked = 0
        for _ in range(400):
            k, l, fraction, delta, rho = _pick_rational_weight_case(RNG)
            seed_sin = math.sin(2.0 * math.pi * float(fraction) - 0.5 * delta)
            block_sin = math.sin(2.0 * math.pi * l / k + 0.5 * delta)
            if abs(seed_sin) < 1e-6 or abs(block_sin) < 1e-6:
                continue
            pair = eigenvalues_closed_form(k, l, CoinParams.from_delta(rho, delta))
            target = cmath.exp(2j * math.pi * float(fraction))
            contains_plus = min(abs(z - target) for z in pair) < 1e-9
            assert contains_plus == (seed_sin * block_sin < 0.0)
            checked += 1
        assert checked > 100


class TestRevivalPeriod:
    def test_k3_known_period(self):
        cert = revival_period(3, CoinParams(2.0 / 3.0), max_n=100)
        assert cert is not None and cert.N == 8
        assert cert.max_deviation < 1e-9

    def test_k2_delta0_any_rho(self):
        cert = revival_period(2, CoinParams(0.37))
        assert cert is not None and cert.N == 2

    def test_k7_returns_none(self):
        assert revival_period(7, CoinParams(0.5), max_n=500) is None

    def test_k7_direct_powering_confirms(self):
        matrix = walk_matrix(build_walk_operator(7, CoinParams(0.5)))
        eye = np.eye(14)
        power = np.array(eye)
        smallest = np.inf
        for _ in range(500):
            power = matrix @ power
            smallest = min(smallest, float(np.max(np.abs(power - eye))))
        # measured minimum is ~0.063 (at N=322); well clear of a revival
        assert smallest > 0.05

    def test_generators_reproduce_spectrum(self):
        cert = revival_period(3, CoinParams(2.0 / 3.0))
        assert set(cert.generators) == {
            Fraction(0, 1),
            Fraction(1, 2),
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(5, 8),
            Fraction(7, 8),
        }


class TestPeriodMinimality:
    def test_no_smaller_period_divides(self):
        cases = [
            revival_period(3, CoinParams(2.0 / 3.0)),
            revival_period(4, CoinParams(0.5)),
            revival_period(2, CoinParams(0.61)),
        ]
        for cert in cases:
            assert cert is not None
            for p in {p for p in (2, 3, 5, 7, 11, 13) if cert.N % p == 0}:
                shorter = power_deviation(cert.k, cert.params, cert.N // p)
                assert shorter > 1e-3


class TestDoublingProperty:
    """For odd k every block of the 2k-cycle is +-a block of the k-cycle, each used twice,
    so U_k^N = I iff U_2k^N = I at every even N: the paper's k=3 solutions are k=6 ones,
    and its k=5 and k=10 solutions are each other's, with no second certification pass."""

    @pytest.mark.parametrize("k", range(3, 32, 2))
    def test_double_cycle_symbols_are_signed_cycle_symbols(self, k):
        rng = np.random.default_rng(k)
        params = CoinParams(rng.uniform(0.0, 1.0), *rng.uniform(0.0, math.pi, 2))
        symbols = build_walk_operator(k, params).power(1)
        doubled = build_walk_operator(2 * k, params).power(1)
        l = np.arange(2 * k)
        # exp(i*pi*l/k) is w_k^(l/2) for even l and -w_k^((l+k)/2) for odd l
        partner = np.where(l % 2 == 0, l // 2, (l + k) // 2 % k)
        sign = np.where(l % 2 == 0, 1.0, -1.0)[:, None, None]
        assert np.abs(doubled - sign * symbols[partner]).max() < 1e-14
        assert np.bincount(partner).tolist() == [2] * k

    def test_odd_cycles_share_solutions_with_doubles(self):
        certificates = [
            solve_seeded(3, Fraction(0), Fraction(1, 8)).solutions[0],
            solve_seeded(3, Fraction(1, 3), Fraction(7, 24)).solutions[0],
            enumerate_seeded(5, Fraction(0), max_den=20).solutions[0],
            solve_rho_edge(7, Fraction(1, 3), 0).solutions[0],
            solve_rho_edge(7, Fraction(1, 3), 1).solutions[0],
            solve_rho_edge(9, Fraction(2, 5), 0).solutions[0],
            solve_rho_edge(9, Fraction(2, 5), 1).solutions[0],
            # and halving: the k=10 two-form solutions revive on k=5
            *(c for t in range(5) for c in enumerate_seeded(10, Fraction(t, 5), 96).solutions),
        ]
        assert len(certificates) == 17
        for cert in certificates:
            assert cert.k in (3, 5, 7, 9, 10)
            partner = cert.k // 2 if cert.k % 2 == 0 else 2 * cert.k
            deviation = power_deviation(partner, cert.params, cert.N)
            assert deviation < 1e-9, (cert.k, cert.N, deviation)


class TestRevivalCertificate:
    def test_rejects_unverified_exact(self):
        with pytest.raises(ValueError):
            from_generators(
                k=3, N=8, rho=0.5, delta=0.0, generators=(), max_deviation=1e-3
            )

    def test_rejects_inconsistent_period(self):
        with pytest.raises(ValueError):
            from_generators(
                k=3,
                N=7,
                rho=2.0 / 3.0,
                delta=0.0,
                generators=(Fraction(1, 8),),
                max_deviation=0.0,
            )

    def test_approximate_mode_permits_large_deviation(self):
        cert = from_generators(
            k=7,
            N=2700,
            rho=0.5,
            delta=0.0,
            generators=(),
            max_deviation=0.45,
            case_tag="approximate",
            exact=False,
        )
        assert cert.max_deviation == 0.45
