"""Eigenbasis construction and states that revive without a full revival."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from cyclewalk import (
    CoinParams,
    build_special_state,
    build_walk_operator,
    demoivre_subspace,
    eigenbasis,
    evolve,
    power_deviation,
)
from cyclewalk.tables import TABLE6_COLUMNS
from oracles import walk_matrix

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
            assert len(basis.pairs) == 2 * k
            for pair in basis.pairs:
                residual = np.linalg.norm(matrix @ pair.vector - pair.value * pair.vector)
                assert residual < 1e-10

    def test_spans_full_space(self):
        for _ in range(10):
            k = int(RNG.integers(2, 9))
            basis = eigenbasis(k, random_params())
            singular = np.linalg.svd(basis.vectors(), compute_uv=False)
            assert singular.min() > 1e-10

    def test_rho_one_vectors_are_coin_aligned(self):
        # the step operator is a signed permutation there; each eigenvector
        # lives entirely in one coin sector
        basis = eigenbasis(5, CoinParams(1.0))
        for pair in basis.pairs:
            up_mass = np.linalg.norm(pair.vector[0::2])
            down_mass = np.linalg.norm(pair.vector[1::2])
            assert min(up_mass, down_mass) < 1e-12

    def test_degenerate_blocks_flagged_orthonormal(self):
        # k=2, delta=0: both blocks are scalar +-1 on conjugation patterns,
        # giving repeated eigenvalues somewhere in the rho sweep
        basis = eigenbasis(2, CoinParams(1.0))
        degenerate = [p for p in basis.pairs if p.degenerate]
        for pair in degenerate:
            assert abs(np.linalg.norm(pair.vector) - 1.0) < 1e-12

    def test_table6_phases_at_blocks_1_and_3(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        column = TABLE6_COLUMNS[Fraction(2, 5)]
        for block, expected in ((1, column.block1), (3, column.block3)):
            got = sorted(
                (cmath.phase(p.value) / (2 * math.pi)) % 1.0
                for p in basis.pairs
                if p.block == block
            )
            want = sorted(float(f) for f in expected)
            assert np.max(np.abs(np.array(got) - want)) < 1e-10


class TestDeMoivreSubspace:
    def test_period5_selects_four_pairs(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        assert subspace is not None and len(subspace.pairs) == 4
        # one unit eigenvalue from each degenerate block, plus the two
        # fifth roots exp(-4*pi*i/5) (block 1) and exp(+4*pi*i/5) (block 3)
        by_block = {}
        for pair in subspace.pairs:
            by_block.setdefault(pair.block, []).append(pair.value)
        assert set(by_block) == {0, 1, 2, 3}
        assert abs(by_block[0][0] - 1.0) < 1e-12
        assert abs(by_block[2][0] - 1.0) < 1e-12
        assert abs(by_block[1][0] - cmath.exp(-4j * math.pi / 5.0)) < 1e-10
        assert abs(by_block[3][0] - cmath.exp(4j * math.pi / 5.0)) < 1e-10

    def test_full_revival_keeps_everything(self):
        basis = eigenbasis(3, CoinParams(2.0 / 3.0))
        subspace = demoivre_subspace(basis, 8)
        assert subspace is not None and len(subspace.pairs) == 6

    def test_generic_period_one_is_empty(self):
        for _ in range(100):
            k = int(RNG.integers(2, 7))
            basis = eigenbasis(k, random_params())
            assert demoivre_subspace(basis, 1) is None


class TestBuildSpecialState:
    def _two_vector_subset(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        kept = tuple(p for p in subspace.pairs if p.block in (1, 3))
        return type(subspace)(
            k=subspace.k,
            params=subspace.params,
            pairs=kept,
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
        pair = next(
            p
            for p in basis.pairs
            if abs(p.value - cmath.exp(2j * math.pi / 8.0)) < 1e-10
        )
        subspace = demoivre_subspace(basis, 8)
        solo = type(subspace)(
            k=3, params=basis.params, pairs=(pair,), n_target=8, tol=1e-9
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

    def test_fidelity_bound(self):
        basis = eigenbasis(4, CoinParams(SPECIAL_RHO))
        subspace = demoivre_subspace(basis, 5)
        state = build_special_state(subspace, [1.0] * len(subspace.pairs))
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
