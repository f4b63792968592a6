"""Eigenbasis construction and states that revive without a full revival."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclewalk import (
    CoinParams,
    build_special_state,
    build_walk_operator,
    demoivre_subspace,
    eigenbasis,
    evolve,
    power_deviation,
)
from cyclewalk.special import DeMoivreSubspace
from cyclewalk.tables import TABLE6_COLUMNS
from oracles import eigenvector_matrix, walk_matrix

RNG = np.random.default_rng(271828)

SPECIAL_RHO = (5.0 - math.sqrt(5.0)) / 8.0


def random_params():
    return CoinParams.from_delta(RNG.uniform(0.0, 1.0), RNG.uniform(0.0, 2 * math.pi))


class TestEigenbasis:
    def test_residuals_random(self):
        for _ in range(20):
            k = int(RNG.integers(2, 9))
            params = random_params()
            basis = eigenbasis(k, params)
            matrix = walk_matrix(build_walk_operator(k, params))
            assert basis.values.shape == (2 * k,)
            vectors = eigenvector_matrix(basis)
            residuals = np.linalg.norm(matrix @ vectors - vectors * basis.values, axis=0)
            assert residuals.max() < 1e-10

    def test_spans_full_space(self):
        for _ in range(10):
            k = int(RNG.integers(2, 9))
            basis = eigenbasis(k, random_params())
            singular = np.linalg.svd(eigenvector_matrix(basis), compute_uv=False)
            assert singular.min() > 1e-10

    def test_rho_one_vectors_are_coin_aligned(self):
        # the step operator is a signed permutation there; each eigenvector
        # lives entirely in one coin sector
        vectors = eigenvector_matrix(eigenbasis(5, CoinParams(1.0)))
        up_mass = np.linalg.norm(vectors[0::2], axis=0)
        down_mass = np.linalg.norm(vectors[1::2], axis=0)
        assert np.minimum(up_mass, down_mass).max() < 1e-12

    def test_degenerate_blocks_flagged_orthonormal(self):
        # k=2, delta=0: both blocks are scalar +-1 on conjugation patterns,
        # giving repeated eigenvalues somewhere in the rho sweep
        basis = eigenbasis(2, CoinParams(1.0))
        repeated = np.abs(basis.values[0::2] - basis.values[1::2]) < 1e-10
        degenerate = eigenvector_matrix(basis)[:, np.repeat(repeated, 2)]
        for vector in degenerate.T:
            assert abs(np.linalg.norm(vector) - 1.0) < 1e-12

    def test_table6_phases_at_blocks_1_and_3(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        column = TABLE6_COLUMNS[Fraction(2, 5)]
        for block, expected in ((1, column.block1), (3, column.block3)):
            got = sorted(
                (cmath.phase(value) / (2 * math.pi)) % 1.0
                for value in basis.values[basis.blocks == block].tolist()
            )
            want = sorted(float(f) for f in expected)
            assert np.max(np.abs(np.array(got) - want)) < 1e-10


class TestDeMoivreSubspace:
    def test_period5_selects_four_pairs(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        assert subspace is not None and len(subspace.values) == 4
        # one unit eigenvalue from each degenerate block, plus the two
        # fifth roots exp(-4*pi*i/5) (block 1) and exp(+4*pi*i/5) (block 3)
        by_block = {}
        for block, value in zip(subspace.blocks.tolist(), subspace.values.tolist()):
            by_block.setdefault(block, []).append(value)
        assert set(by_block) == {0, 1, 2, 3}
        assert abs(by_block[0][0] - 1.0) < 1e-12
        assert abs(by_block[2][0] - 1.0) < 1e-12
        assert abs(by_block[1][0] - cmath.exp(-4j * math.pi / 5.0)) < 1e-10
        assert abs(by_block[3][0] - cmath.exp(4j * math.pi / 5.0)) < 1e-10

    def test_full_revival_keeps_everything(self):
        basis = eigenbasis(3, CoinParams(2.0 / 3.0))
        subspace = demoivre_subspace(basis, 8)
        assert subspace is not None and len(subspace.values) == 6

    def test_generic_period_one_is_empty(self):
        for _ in range(100):
            k = int(RNG.integers(2, 7))
            basis = eigenbasis(k, random_params())
            assert demoivre_subspace(basis, 1) is None


class TestBuildSpecialState:
    def _two_vector_subset(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        kept = np.isin(subspace.blocks, (1, 3))
        return type(subspace)(
            k=subspace.k,
            params=subspace.params,
            blocks=subspace.blocks[kept],
            values=subspace.values[kept],
            coins=subspace.coins[kept],
            n_target=subspace.n_target,
            tol=subspace.tol,
        )

    def test_five_periodic_without_full_revival(self):
        subset = self._two_vector_subset()
        state = build_special_state(subset, [1.0, 1.0])
        op = build_walk_operator(4, subset.params)
        after5 = evolve(state, op, 5)
        assert np.linalg.norm(after5.amplitudes - state.amplitudes) < 1e-9
        assert power_deviation(4, subset.params, 5) > 0.5

    def test_genuine_period_is_five(self):
        subset = self._two_vector_subset()
        state = build_special_state(subset, [1.0, 1.0])
        op = build_walk_operator(4, subset.params)
        after4 = evolve(state, op, 4)
        assert np.linalg.norm(after4.amplitudes - state.amplitudes) > 0.1

    def test_single_eigenvector_period(self):
        basis = eigenbasis(3, CoinParams(2.0 / 3.0))
        j = int(np.flatnonzero(np.abs(basis.values - cmath.exp(2j * math.pi / 8.0)) < 1e-10)[0])
        pair = slice(j, j + 1)
        subspace = demoivre_subspace(basis, 8)
        solo = type(subspace)(
            k=3,
            params=basis.params,
            blocks=basis.blocks[pair],
            values=basis.values[pair],
            coins=basis.coins[pair],
            n_target=8,
            tol=1e-9,
        )
        state = build_special_state(solo, [1.0])
        op = build_walk_operator(3, basis.params)
        current = state
        for t in range(1, 8):
            current = evolve(current, op, 1)
            fidelity = abs(np.vdot(state.amplitudes, current.amplitudes))
            assert fidelity == pytest.approx(1.0, abs=1e-12)  # eigenstate
        # the amplitude itself returns only after the full 8 steps
        assert np.linalg.norm(current.amplitudes - state.amplitudes) > 0.1
        assert (
            np.linalg.norm(evolve(state, op, 8).amplitudes - state.amplitudes) < 1e-9
        )

    @pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 1.0), math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        coefficients = [bad] + [1.0] * (len(subspace.values) - 1)
        with pytest.raises(ValueError):
            build_special_state(subspace, coefficients)

    def test_fidelity_bound(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        state = build_special_state(subspace, [1.0] * len(subspace.values))
        op = build_walk_operator(4, subspace.params)
        after = evolve(state, op, 5)
        assert abs(np.vdot(state.amplitudes, after.amplitudes)) > 1.0 - 1e-9

    def test_zero_vector_rejected(self):
        subset = self._two_vector_subset()
        with pytest.raises(ValueError):
            build_special_state(subset, [0.0, 0.0])

    def test_wrong_coefficient_count(self):
        subset = self._two_vector_subset()
        with pytest.raises(ValueError):
            build_special_state(subset, [1.0])


@st.composite
def subsets_with_coefficients(draw):
    """A random coin's eigenbasis on a k-cycle, a nonempty subset of it and complex weights."""
    k = draw(st.integers(2, 64))
    rho = draw(st.floats(0.0, 1.0))
    alpha, beta = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, math.pi))
    basis = eigenbasis(k, CoinParams(rho, alpha, beta))
    mask = np.array(draw(st.lists(st.booleans(), min_size=2 * k, max_size=2 * k)))
    mask[draw(st.integers(0, 2 * k - 1))] = True
    weights = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)
    coeffs = draw(st.lists(weights, min_size=int(mask.sum()), max_size=int(mask.sum())))
    # tol=2 bounds the gap of any unit vector, so the revival re-check passes for every subset
    subset = DeMoivreSubspace(
        k, basis.params, basis.blocks[mask], basis.values[mask], basis.coins[mask], 1, 2.0
    )
    return subset, np.array(coeffs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=subsets_with_coefficients())
def test_special_state_matches_the_dense_eigenvectors(case):
    subset, coeffs = case
    dense = eigenvector_matrix(subset) @ coeffs
    state = build_special_state(subset, coeffs)
    assert np.max(np.abs(state.amplitudes - dense / np.linalg.norm(dense))) < 1e-13


def test_eigenbasis_arrays_are_read_only():
    subspace = demoivre_subspace(eigenbasis(4, CoinParams(SPECIAL_RHO)), 5)
    for array in (subspace.blocks, subspace.values, subspace.coins):
        with pytest.raises(ValueError):
            array[0] = 0


def test_special_state_memory_is_linear_in_k():
    # the 4096 x 4096 complex eigenvector matrix of k=2048 alone would take 268 MB
    eigenbasis(8, CoinParams(SPECIAL_RHO))  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        subspace = demoivre_subspace(eigenbasis(2048, CoinParams(SPECIAL_RHO)), 5)
        state = build_special_state(subspace, np.ones(len(subspace.values)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.amplitudes.shape == (4096,)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
