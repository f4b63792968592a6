"""Coin/shift/step construction and state evolution."""

import math

import numpy as np
import pytest

from cyclewalk import (
    HADAMARD,
    CoinParams,
    WalkerState,
    build_walk_operator,
    evolve,
)
from cyclewalk.walk import build_coin, line_steps
from oracles import build_shift_cycle, reference_line_history, walk_matrix

RNG = np.random.default_rng(20141104)


def random_params(rng=RNG):
    return CoinParams.from_delta(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))


class TestCoinParams:
    def test_rho_range_enforced(self):
        with pytest.raises(ValueError):
            CoinParams(-0.1)
        with pytest.raises(ValueError):
            CoinParams(1.1)

    def test_two_angle_range(self):
        CoinParams(0.5, math.pi, math.pi)
        with pytest.raises(ValueError):
            CoinParams(0.5, 1.0, 3.5)

    def test_from_delta_full_turn(self):
        p = CoinParams.from_delta(0.5, 4.0 * math.pi / 3.0)
        assert p.alpha == pytest.approx(4.0 * math.pi / 3.0)
        assert p.beta == 0.0
        assert p.delta == pytest.approx(4.0 * math.pi / 3.0)
        with pytest.raises(ValueError):
            CoinParams.from_delta(0.5, 2.0 * math.pi)
        with pytest.raises(ValueError):
            CoinParams.from_delta(0.5, -0.1)


class TestBuildCoin:
    def test_hadamard(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(build_coin(HADAMARD), expected, atol=1e-15)

    def test_rho_one_is_diagonal(self):
        assert np.allclose(build_coin(CoinParams(1.0)), np.diag([1.0, -1.0]), atol=0)

    def test_rho_two_thirds(self):
        c = build_coin(CoinParams(2.0 / 3.0))
        expected = np.array(
            [
                [math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)],
                [math.sqrt(1.0 / 3.0), -math.sqrt(2.0 / 3.0)],
            ]
        )
        assert np.allclose(c, expected, atol=1e-15)

    def test_unitary(self):
        for _ in range(50):
            c = build_coin(random_params())
            assert np.max(np.abs(c @ c.conj().T - np.eye(2))) < 1e-14


class TestShift:
    def test_k2_wraps(self):
        s = build_shift_cycle(2)
        # |0,up> -> |1,up> since -1 mod 2 = 1
        v = np.zeros(4)
        v[0] = 1.0
        out = s @ v
        assert out[2] == 1.0 and np.sum(np.abs(out)) == 1.0

    def test_k3_mappings(self):
        s = build_shift_cycle(3)
        up0 = np.zeros(6)
        up0[0] = 1.0
        assert (s @ up0)[4] == 1.0  # |0,up> -> |2,up>
        down0 = np.zeros(6)
        down0[1] = 1.0
        assert (s @ down0)[3] == 1.0  # |0,down> -> |1,down>

    def test_permutation(self):
        for k in range(2, 10):
            s = build_shift_cycle(k)
            assert np.array_equal(np.unique(s), [0.0, 1.0])
            assert np.allclose(s @ s.T, np.eye(2 * k), atol=0)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_shift_cycle(1)


class TestWalkOperator:
    def test_matches_displayed_k3_layout(self):
        # entrywise check against the published 6x6 layout of the k=3 step
        rho, a, b = 0.42, 0.6, 1.1
        r, q = math.sqrt(rho), math.sqrt(1.0 - rho)
        ea, eb, ed = np.exp(1j * a), np.exp(1j * b), np.exp(1j * (a + b))
        expected = np.array(
            [
                [0, 0, r, q * ea, 0, 0],
                [0, 0, 0, 0, q * eb, -r * ed],
                [0, 0, 0, 0, r, q * ea],
                [q * eb, -r * ed, 0, 0, 0, 0],
                [r, q * ea, 0, 0, 0, 0],
                [0, 0, q * eb, -r * ed, 0, 0],
            ]
        )
        matrix = walk_matrix(build_walk_operator(3, CoinParams(rho, a, b)))
        assert np.max(np.abs(matrix - expected)) < 1e-15

    def test_k2_rho1_signed_permutation(self):
        matrix = walk_matrix(build_walk_operator(2, CoinParams(1.0)))
        entries = np.round(matrix.real, 12)
        assert np.all(np.isin(entries, [-1.0, 0.0, 1.0]))
        assert np.allclose(np.abs(matrix) @ np.ones(4), np.ones(4))

    def test_unitarity_sweep(self):
        for k in range(2, 17):
            for _ in range(100):
                matrix = walk_matrix(build_walk_operator(k, random_params()))
                dev = np.max(np.abs(matrix @ matrix.conj().T - np.eye(2 * k)))
                assert dev < 1e-12

    def test_two_nonzeros_per_row_and_column(self):
        for k in range(3, 10):
            rho = RNG.uniform(0.05, 0.95)
            matrix = walk_matrix(build_walk_operator(k, random_params_with_rho(rho)))
            nonzero = np.abs(matrix) > 1e-14
            assert np.all(nonzero.sum(axis=0) == 2)
            assert np.all(nonzero.sum(axis=1) == 2)


def random_params_with_rho(rho):
    return CoinParams.from_delta(rho, RNG.uniform(0.0, 2.0 * math.pi))


class TestEvolve:
    def test_zero_steps_identity(self):
        state = WalkerState.basis_state(3, 1, 0)
        op = build_walk_operator(3, HADAMARD)
        out = evolve(state, op, 0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_dimension_mismatch(self):
        state = WalkerState.basis_state(3, 0, 0)
        op = build_walk_operator(4, HADAMARD)
        with pytest.raises(ValueError):
            evolve(state, op, 1)

    def test_k3_eight_step_revival(self):
        state = WalkerState.basis_state(3, 0, 0)
        op = build_walk_operator(3, CoinParams(2.0 / 3.0))
        out = evolve(state, op, 8)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-9

    def test_k4_eight_step_revival_random_state(self):
        raw = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        state = WalkerState(4, raw / np.linalg.norm(raw))
        op = build_walk_operator(4, CoinParams(0.5))
        out = evolve(state, op, 8)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-9

    @pytest.mark.parametrize(
        "steps, message",
        [(-1, "power must be nonnegative"), (2**63, f"N={2**63} exceeds"), (2**70, f"N={2**70} exceeds")],
    )
    def test_negative_or_past_int64_power_is_refused(self, steps, message):
        # 2**70 is a multiple of the period 8: a float power would miss the start by 1.45 in norm
        state = WalkerState.basis_state(3, 0, 0)
        op = build_walk_operator(3, CoinParams(2.0 / 3.0))
        with pytest.raises(ValueError, match=message):
            evolve(state, op, steps)

    def test_largest_power_is_taken(self):
        state = WalkerState.basis_state(3, 0, 0)
        out = evolve(state, build_walk_operator(3, CoinParams(2.0 / 3.0)), 2**63 - 1)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12

    def test_norm_conserved_over_thousand_steps(self):
        matrix = walk_matrix(build_walk_operator(5, random_params()))
        amps = np.zeros(10, complex)
        amps[3] = 1.0
        for _ in range(1000):
            amps = matrix @ amps
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-10

    def test_eigenphase_path_matches_direct(self):
        for _ in range(10):
            k = int(RNG.integers(2, 9))
            steps = int(RNG.integers(65, 1000))
            op = build_walk_operator(k, random_params())
            raw = RNG.normal(size=2 * k) + 1j * RNG.normal(size=2 * k)
            state = WalkerState(k, raw / np.linalg.norm(raw))
            fast = evolve(state, op, steps)
            matrix = walk_matrix(op)
            amps = np.array(state.amplitudes)
            for _ in range(steps):
                amps = matrix @ amps
            assert np.max(np.abs(fast.amplitudes - amps)) < 1e-9


class TestWalkerState:
    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            WalkerState(2, np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        # a NaN norm compares false both ways, so it must fail the check, not pass it
        with pytest.raises(ValueError):
            WalkerState(3, np.array([1.0, 0.0, 0.0, 0.0, 0.0, bad]))


def reference_line_walk(initial, params, steps):
    """Independent dict-based stepping oracle for the line walk."""
    coin = build_coin(params)
    amps = {pos: np.asarray(pair, dtype=complex) for pos, pair in initial.items()}
    for _ in range(steps):
        rotated = {pos: coin @ pair for pos, pair in amps.items()}
        new = {}
        for pos, (up, down) in rotated.items():
            new.setdefault(pos - 1, np.zeros(2, complex))[0] += up
            new.setdefault(pos + 1, np.zeros(2, complex))[1] += down
        amps = new
    return amps


def line_history(initial, params, steps):
    """The window of `line_steps` and its tables stacked into a (steps+1, window, 2) history."""
    positions, tables = line_steps(initial, params, steps)
    return positions, np.stack(list(tables))


def probabilities(table):
    """Per-position probabilities of one (window, 2) amplitude table."""
    return np.sum(np.abs(table) ** 2, axis=1)


class TestLineWalk:
    def test_single_hadamard_step(self):
        positions, history = line_history({0: (1.0, 0.0)}, HADAMARD, 1)
        table = {int(p): history[-1][i] for i, p in enumerate(positions)}
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert table[-1][0] == pytest.approx(inv_sqrt2)
        assert table[1][1] == pytest.approx(inv_sqrt2)
        assert abs(table[-1][1]) == 0.0 and abs(table[1][0]) == 0.0

    def test_matches_reference_oracle(self):
        initial = {0: (0.6, 0.8j)}
        steps = 7
        positions, history = line_history(initial, CoinParams(0.37, 0.9, 0.2), steps)
        reference = reference_line_walk(initial, CoinParams(0.37, 0.9, 0.2), steps)
        for i, pos in enumerate(positions):
            expected = reference.get(int(pos), np.zeros(2))
            assert np.max(np.abs(history[-1][i] - expected)) < 1e-12
        # every table is its own array, so the stacked stream is the preallocated history
        window, preallocated = reference_line_history(initial, CoinParams(0.37, 0.9, 0.2), steps)
        assert positions.tolist() == window and np.array_equal(history, preallocated)

    def test_left_skew_after_three_steps(self):
        positions, history = line_history({0: (1.0, 0.0)}, HADAMARD, 3)
        probs = probabilities(history[-1])
        left = probs[positions < 0].sum()
        right = probs[positions > 0].sum()
        assert left > right

    def test_symmetric_initial_state(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        _, history = line_history({0: (inv_sqrt2, 1j * inv_sqrt2)}, HADAMARD, 10)
        probs = probabilities(history[-1])
        assert np.max(np.abs(probs - probs[::-1])) < 1e-12

    def test_probability_conserved(self):
        _, tables = line_steps({0: (1.0, 0.0)}, HADAMARD, 100)
        drifts = [abs(probabilities(table).sum() - 1.0) for table in tables]
        assert len(drifts) == 101 and max(drifts) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            line_steps({0: (1.0, 1.0)}, HADAMARD, 2)

    @pytest.mark.parametrize("pair", [(math.nan, 0.0), (1.0, complex(math.nan, 0.0))])
    def test_rejects_non_finite_amplitudes(self, pair):
        with pytest.raises(ValueError):
            line_steps({0: pair}, HADAMARD, 2)
