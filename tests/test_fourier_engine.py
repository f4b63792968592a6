"""The Fourier-block engine against the dense 2k x 2k oracle.

Certification and evolution run on the k 2x2 Fourier symbols of the step
operator; the dense matrix is built here only to check them.  A batch of
coins of one cycle goes through the engine in one pass, which must agree
with each coin's batch of one.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import (
    CoinParams,
    WalkerState,
    build_walk_operator,
    eigenbasis,
    evolve,
    power_deviation,
)
from cyclewalk.revival import certify, power_deviations
from cyclewalk.walk import cycle_steps, line_steps
from oracles import (
    eigenvector_matrix,
    fourier_symbols,
    reference_cycle_history,
    reference_line_history,
    walk_matrix,
)

TWO_PI = 2.0 * math.pi

cycle_lengths = st.integers(min_value=2, max_value=24)
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
deltas = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi]),
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
)
powers = st.one_of(
    st.integers(min_value=0, max_value=200), st.integers(min_value=1001, max_value=3000)
)


def dense_deviation(k, params, n):
    powered = np.linalg.matrix_power(walk_matrix(build_walk_operator(k, params)), n)
    return float(np.max(np.abs(powered - np.eye(2 * k))))


# rho=1, delta=0 gives scalar blocks (a repeated eigenvalue) at k = 8 and 12
@example(k=8, rho=1.0, delta=0.0, n=0)
@example(k=8, rho=1.0, delta=0.0, n=1)
@example(k=8, rho=1.0, delta=0.0, n=24)
@example(k=12, rho=1.0, delta=0.0, n=0)
@example(k=12, rho=1.0, delta=0.0, n=1)
@example(k=12, rho=1.0, delta=0.0, n=7)
@example(k=5, rho=0.0, delta=1.0, n=0)
@example(k=5, rho=0.0, delta=1.0, n=1)
@example(k=3, rho=2.0 / 3.0, delta=0.0, n=8)
@example(k=7, rho=0.5, delta=0.0, n=2700)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=cycle_lengths, rho=weights, delta=deltas, n=powers)
def test_deviation_matches_dense_power(k, rho, delta, n):
    params = CoinParams.from_delta(rho, delta)
    fast = power_deviation(k, params, n)
    assert abs(fast - dense_deviation(k, params, n)) < 1e-13 * max(1, n)


@example(k=8, rho=1.0, delta=0.0, steps=0)
@example(k=8, rho=1.0, delta=0.0, steps=1)
@example(k=12, rho=1.0, delta=0.0, steps=5)
@example(k=4, rho=0.0, delta=2.0, steps=1)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=cycle_lengths, rho=weights, delta=deltas, steps=st.integers(min_value=0, max_value=200))
def test_evolve_matches_dense_steps(k, rho, delta, steps):
    params = CoinParams.from_delta(rho, delta)
    op = build_walk_operator(k, params)
    rng = np.random.default_rng(k * 1000 + steps)
    raw = rng.normal(size=2 * k) + 1j * rng.normal(size=2 * k)
    state = WalkerState(k, raw / np.linalg.norm(raw))
    matrix = walk_matrix(op)
    amps = np.array(state.amplitudes)
    for _ in range(steps):
        amps = matrix @ amps
    out = evolve(state, op, steps)
    assert np.max(np.abs(out.amplitudes - amps)) < 1e-13 * max(1, steps)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-13


def second_table(state, params):
    """The flat amplitudes after one `cycle_steps` step."""
    return list(cycle_steps(state, params, 1))[1].reshape(-1)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(k=cycle_lengths, rho=weights, delta=deltas)
def test_single_step_matches_dense_matrix(k, rho, delta):
    params = CoinParams.from_delta(rho, delta)
    op = build_walk_operator(k, params)
    raw = np.random.default_rng(k).normal(size=(2 * k, 2)) @ np.array([1.0, 1j])
    state = WalkerState(k, raw / (norm := np.linalg.norm(raw)))
    error = np.max(np.abs(second_table(state, params) - walk_matrix(op) @ state.amplitudes))
    assert error * norm < 1e-15  # at the scale of raw, not only of the unit vector
    # from |0, up> one step reaches only |k-1, up> and |1, down>
    assert np.count_nonzero(second_table(WalkerState.basis_state(k, 0, 0), params)) <= 2


def signed_bits(tables):
    """The float64 words of stacked amplitude tables: equal only if every bit is, np.signbit
    of each zero included."""
    return np.stack(tables).view(np.uint64)


#: amplitudes with exact and signed zeros, which a step must carry bit for bit
cells = st.sampled_from([0.0, -0.0, 0.6, -0.8, 1.0, 0.3])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    k=cycle_lengths, rho=weights, delta=deltas, steps=st.integers(0, 30),
    cycle=st.lists(st.tuples(cells, cells), min_size=4, max_size=48),
    pair=st.tuples(cells, cells, cells, cells), start=st.integers(-3, 3),
)
def test_step_tables_match_the_oracle_histories_bit_for_bit(
    k, rho, delta, steps, cycle, pair, start
):
    params = CoinParams.from_delta(rho, delta)
    raw = np.array([complex(*cell) for cell in (cycle * k)[: 2 * k]])
    if not np.abs(raw).max():
        raw[0] = 1.0
    state = WalkerState(k, raw / np.linalg.norm(raw))
    expected = signed_bits(reference_cycle_history(state, params, steps))
    got = signed_bits([table.reshape(-1) for table in cycle_steps(state, params, steps)])
    assert np.array_equal(got, expected)
    pair = np.array([complex(*pair[:2]), complex(*pair[2:])])
    initial = {start: tuple(pair / np.linalg.norm(pair)) if np.abs(pair).max() else (1.0, -0.0)}
    positions, tables = line_steps(initial, params, steps)
    window, history = reference_line_history(initial, params, steps)
    assert positions.tolist() == window
    assert np.array_equal(signed_bits(list(tables)), signed_bits(history))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(k=cycle_lengths, rho=weights, delta=deltas)
def test_powers_reproduce_symbols(k, rho, delta):
    params = CoinParams.from_delta(rho, delta)
    op = build_walk_operator(k, params)
    assert np.max(np.abs(op.power(1) - fourier_symbols(k, params))) < 1e-15
    assert np.max(np.abs(op.power(0) - np.eye(2))) < 1e-15


def test_symbols_block_diagonalize_the_dense_step():
    k = 6
    op = build_walk_operator(k, CoinParams(0.3, 0.4, 0.9))
    positions = np.exp(-2j * math.pi / k * np.outer(np.arange(k), np.arange(k)))
    fourier = np.kron(positions, np.eye(2))  # psi^_l = sum_i exp(-2*pi*i*i*l/k) psi_i
    blocks = fourier @ walk_matrix(op) @ np.linalg.inv(fourier)
    symbols = op.power(1)
    for l in range(k):
        assert np.max(np.abs(blocks[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] - symbols[l])) < 1e-13


@pytest.mark.parametrize("k", [8, 12])
def test_scalar_blocks_get_an_orthonormal_eigenbasis(k):
    # rho=1, delta=0: the blocks with exp(4*pi*i*l/k) = -1 are scalars
    params = CoinParams(1.0)
    basis = eigenbasis(k, params)
    repeated = np.abs(basis.values[0::2] - basis.values[1::2]) < 1e-10
    assert set(basis.blocks[0::2][repeated].tolist()) == {k // 4, 3 * k // 4}
    vectors = eigenvector_matrix(basis)
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(2 * k))) < 1e-12
    dense = walk_matrix(build_walk_operator(k, params))
    assert np.max(np.abs(dense @ vectors - vectors * basis.values)) < 1e-12


@pytest.mark.parametrize("n", [-1, -24])
def test_rejects_negative_power(n):
    with pytest.raises(ValueError):
        build_walk_operator(3, CoinParams(0.5)).power(n)


def test_large_power_stays_exact():
    # rho=1 revives at N = lcm(2, k, v*k); a multiple near 10**6 must still certify
    k, v = 512, 3
    period = math.lcm(2, k, v * k)
    params = CoinParams.from_delta(1.0, TWO_PI / v)
    assert power_deviation(k, params, period * (10**6 // period)) < 1e-9
    assert power_deviation(k, params, period + 1) > 0.5


def test_no_dense_matrix_on_the_certification_path():
    # a dense 8192 x 8192 complex matrix alone would take 1 GB
    params = CoinParams.from_delta(1.0, TWO_PI / 3)
    tracemalloc.start()
    try:
        deviation = power_deviation(4096, params, math.lcm(2, 4096, 3 * 4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deviation < 1e-9
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


batch_rows = st.lists(
    st.tuples(weights, st.one_of(st.sampled_from([0, 1]), st.integers(2, 3000))),
    min_size=1,
    max_size=16,
)


@example(k=8, delta=0.0, rows=[(1.0, 0), (1.0, 24), (0.0, 1), (0.5, 7)])
@example(k=12, delta=0.0, rows=[(1.0, 12), (0.0, 2), (1.0, 7)])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=cycle_lengths, delta=deltas, rows=batch_rows)
def test_batch_matches_each_row_alone(k, delta, rows):
    rhos, ns = zip(*rows)
    batched = power_deviations(k, rhos, delta, ns)
    assert batched.shape == (len(rows),)
    for (rho, n), deviation in zip(rows, batched):
        alone = power_deviation(k, CoinParams.from_delta(rho, delta), n)
        assert abs(deviation - alone) < 1e-13 * max(1, n)


coins = st.lists(
    st.tuples(weights, deltas, st.one_of(st.sampled_from([0, 1]), st.integers(2, 10**6))),
    min_size=1,
    max_size=8,
)


@example(k=6, coins=[(1 / 3, 0.0, 12), (1 / 3, TWO_PI / 3, 12), (2 / 3, TWO_PI * 2 / 3, 24)])
@example(k=2, coins=[(1.0, math.pi, 0), (0.0, 0.0, 10**6)])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(2, 64), coins=coins)
def test_per_coin_deltas_match_each_coin_alone_bit_for_bit(k, coins):
    # the tables batch every coin of one cycle, whatever its delta, in one pass
    rhos, deltas_, ns = zip(*coins)
    batched = power_deviations(k, rhos, deltas_, ns)
    assert batched.shape == (len(coins),)
    for (rho, delta, n), deviation in zip(coins, batched.tolist()):
        assert deviation == power_deviation(k, CoinParams.from_delta(rho, delta), n)


def test_per_coin_deltas_need_one_per_coin():
    with pytest.raises(ValueError):
        power_deviations(5, [0.5, 0.25, 0.75], [0.0, 1.0], [3, 4, 5])


@pytest.mark.parametrize(
    "k, rows, false_row",
    [
        # rho=0 revives at N=2v, rho=1 at lcm(2, k, v*k); v=3 here, so N=3 is odd
        (7, [(0.0, 6), (1.0, 42), (0.0, 3), (0.0, 12), (1.0, 84)], 2),
        # delta=0: v=1; the Hadamard coin does not revive at k=512
        (512, [(0.0, 2), (1.0, 512), (0.5, 1000), (0.0, 4)], 2),
    ],
)
def test_batch_flags_only_the_false_row(k, rows, false_row):
    delta = TWO_PI / 3 if k == 7 else 0.0
    rhos, ns = zip(*rows)
    deviations = power_deviations(k, rhos, delta, ns)
    assert deviations[false_row] >= 1e-9
    assert (np.delete(deviations, false_row) < 1e-9).all()


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf, -math.inf])
def test_batch_rejects_weights_outside_the_unit_interval(bad):
    with pytest.raises(ValueError):
        power_deviations(5, [0.5, bad, 0.25], 0.0, [3, 4, 5])


def test_batch_rejects_a_negative_power():
    with pytest.raises(ValueError):
        power_deviations(5, [0.5, 0.5], 0.0, [3, -4])
    with pytest.raises(ValueError):
        power_deviation(5, CoinParams(0.5), -4)


def test_batch_rejects_a_power_past_int64():
    with pytest.raises(ValueError, match=r"N=100000000000000000000 exceeds"):
        power_deviations(3, [0.5], 1.0, [10**20])
    with pytest.raises(ValueError, match=f"N={2**63} exceeds"):
        power_deviations(3, [0.5, 0.5], 1.0, [8, 2**63])
    # one coin is refused too: a float power would read a false fail (2**70 is a multiple of 8)
    with pytest.raises(ValueError, match=f"N={2**70} exceeds"):
        power_deviation(3, CoinParams(2 / 3), 2**70)


def test_batch_memory_is_bounded_in_its_size():
    # certify feeds the engine a chunk at a time: one pass over all 20000 coins
    # peaks at 15.7 MB
    rng = np.random.default_rng(6)
    rhos, ns = rng.uniform(0.0, 1.0, 20000), rng.integers(1, 3000, 20000)
    numerators = np.zeros((20000, 0), dtype=np.int64)
    turn = Fraction(1, 6)
    delta = 2.0 * math.pi * float(turn)
    tracemalloc.start()
    try:
        columns = certify(6, delta, rhos, ns, numerators, numerators == 0, delta_two_pi=turn,
                          exact=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns.N) == 20000
    deviations = columns.max_deviation[-3:]
    assert np.allclose(deviations, power_deviations(6, rhos[-3:], delta, ns[-3:]), rtol=0,
                       atol=1e-12)
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"
