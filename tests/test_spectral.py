"""Fourier diagonalization, closed-form blocks, and the closed-form spectrum."""

import cmath
import math

import numpy as np
import pytest

from cyclewalk import (
    CoinParams,
    block_diagonalize,
    block_formula,
    build_walk_operator,
    eigenvalues_closed_form,
    fourier_matrix,
    full_spectrum,
    phase_multiset_distance,
    principal_phase,
)

RNG = np.random.default_rng(314159)


def random_params(rng=RNG):
    return CoinParams.from_delta(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))


def first_column(op, n):
    """Blocks <j|U^n|0> of the Fourier engine: the block-circulant defining vector."""
    return np.fft.ifft(op.power(n), axis=0)


def dense_power(op, n):
    """U^n assembled from its first block column: block (i, j) is column[i - j]."""
    k = op.k
    offsets = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    return first_column(op, n)[offsets].transpose(0, 2, 1, 3).reshape(2 * k, 2 * k)


class TestFourierMatrix:
    def test_m1(self):
        assert np.array_equal(fourier_matrix(1), [[1.0]])

    def test_m2(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        assert np.allclose(fourier_matrix(2), expected, atol=1e-15)

    def test_m4_second_row(self):
        f = fourier_matrix(4)
        assert np.allclose(f[1], 0.5 * np.array([1.0, 1j, -1.0, -1j]), atol=1e-15)

    def test_delta_vector_dft(self):
        f = fourier_matrix(8)
        delta = np.zeros(8)
        delta[1] = 1.0
        assert np.allclose(f @ delta, f[:, 1])

    def test_unitarity_up_to_64(self):
        for m in range(1, 65):
            f = fourier_matrix(m)
            assert np.max(np.abs(f @ f.conj().T - np.eye(m))) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fourier_matrix(0)


class TestCirculantVector:
    def test_only_two_nonzero_blocks(self):
        for k in (3, 5, 8):
            params = random_params()
            column = first_column(build_walk_operator(k, params), 1)
            for j, block in enumerate(column):
                if j in (1, k - 1):
                    assert np.max(np.abs(block)) > 0.1
                else:
                    assert np.max(np.abs(block)) < 1e-15

    def test_block_values_are_coin_rows(self):
        rho, a, b = 0.3, 0.4, 0.9
        op = build_walk_operator(5, CoinParams(rho, a, b))
        column = first_column(op, 1)
        r, q = math.sqrt(rho), math.sqrt(1.0 - rho)
        top = np.array([[r, q * np.exp(1j * a)], [0.0, 0.0]])
        bottom = np.array([[0.0, 0.0], [q * np.exp(1j * b), -r * np.exp(1j * (a + b))]])
        # up moves left: |1, up> reaches |0, up> through the top coin row
        assert np.max(np.abs(column[4] - top)) < 1e-15
        assert np.max(np.abs(column[1] - bottom)) < 1e-15
        assert np.max(np.abs(op.matrix[0:2, 2:4] - top)) == 0.0
        assert np.max(np.abs(op.matrix[2:4, 0:2] - bottom)) == 0.0


class TestBlockDiagonalize:
    def test_residual_sweep(self):
        for k in range(2, 17):
            for _ in range(50):
                bd = block_diagonalize(build_walk_operator(k, random_params()))
                for l in range(k):
                    block = bd.blocks[l]
                    assert np.max(np.abs(block @ block.conj().T - np.eye(2))) < 1e-12
                    assert np.max(np.abs(np.abs(bd.eigenvalues[l]) - 1.0)) < 1e-12

    def test_spectra_match_dense(self):
        for _ in range(25):
            k = int(RNG.integers(2, 13))
            op = build_walk_operator(k, random_params())
            bd = block_diagonalize(op)
            union = bd.eigenvalues.reshape(-1)
            dense = np.linalg.eigvals(op.matrix)
            assert phase_multiset_distance(union, dense) < 1e-10

    def test_k3_delta0_l0_block(self):
        rho = 2.0 / 3.0
        bd = block_diagonalize(build_walk_operator(3, CoinParams(rho)))
        q, r = math.sqrt(1.0 - rho), math.sqrt(rho)
        expected = np.array([[q, r], [r, -q]])
        assert np.max(np.abs(bd.blocks[0] - expected)) < 1e-12

    def test_k4_half_delta0_l0_eigenvalues(self):
        bd = block_diagonalize(build_walk_operator(4, CoinParams(0.5)))
        values = set(np.round(bd.eigenvalues[0], 9))
        assert values == {1.0 + 0.0j, -1.0 + 0.0j}


class TestBlockFormula:
    def test_matches_numeric_blocks(self):
        for _ in range(30):
            k = int(RNG.integers(2, 13))
            params = random_params()
            bd = block_diagonalize(build_walk_operator(k, params))
            for l in range(k):
                assert np.max(np.abs(block_formula(k, l, params) - bd.blocks[l])) < 1e-10

    def test_k3_l0_example(self):
        block = block_formula(3, 0, CoinParams(2.0 / 3.0))
        expected = np.array(
            [
                [math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)],
                [math.sqrt(2.0 / 3.0), -math.sqrt(1.0 / 3.0)],
            ]
        )
        assert np.max(np.abs(block - expected)) < 1e-14

    def test_rho_zero_has_no_weight_part(self):
        k, l = 5, 2
        params = CoinParams.from_delta(0.0, 1.1)
        w, wc = cmath.exp(-2j * math.pi * l / k), cmath.exp(2j * math.pi * l / k)
        ea, eb = cmath.exp(1j * params.alpha), cmath.exp(1j * params.beta)
        phases_only = 0.5 * np.array(
            [
                [w * ea + wc * eb, -w * ea + wc * eb],
                [w * ea - wc * eb, -w * ea - wc * eb],
            ]
        )
        assert np.max(np.abs(block_formula(k, l, params) - phases_only)) < 1e-15

    def test_k4_l2_is_negated_l0_at_delta0(self):
        params = CoinParams(0.42)
        assert np.max(
            np.abs(block_formula(4, 2, params) + block_formula(4, 0, params))
        ) < 1e-14

    def test_rejects_bad_block_index(self):
        with pytest.raises(ValueError):
            block_formula(4, 4, CoinParams(0.5))


class TestEigenvaluesClosedForm:
    def test_rho_zero(self):
        for _ in range(20):
            k = int(RNG.integers(2, 11))
            l = int(RNG.integers(0, k))
            delta = RNG.uniform(0.0, 2.0 * math.pi)
            pair = eigenvalues_closed_form(k, l, CoinParams.from_delta(0.0, delta))
            half = cmath.exp(0.5j * delta)
            assert phase_multiset_distance(pair, [half, -half]) < 1e-12

    def test_rho_one_delta_zero(self):
        for k in (3, 4, 7):
            for l in range(k):
                pair = eigenvalues_closed_form(k, l, CoinParams(1.0))
                expected = [
                    cmath.exp(-2j * math.pi * l / k),
                    -cmath.exp(2j * math.pi * l / k),
                ]
                assert phase_multiset_distance(pair, expected) < 1e-12

    def test_rho_one_general_delta(self):
        # exponent read as -exp(i*(2*pi*l/k + delta))
        for _ in range(20):
            k = int(RNG.integers(2, 9))
            l = int(RNG.integers(0, k))
            delta = RNG.uniform(0.0, 2.0 * math.pi)
            pair = eigenvalues_closed_form(k, l, CoinParams.from_delta(1.0, delta))
            expected = [
                cmath.exp(-2j * math.pi * l / k),
                -cmath.exp(1j * (2.0 * math.pi * l / k + delta)),
            ]
            assert phase_multiset_distance(pair, expected) < 1e-12

    def test_k2_delta0_block0(self):
        for rho in (0.1, 0.5, 0.93):
            pair = eigenvalues_closed_form(2, 0, CoinParams(rho))
            assert phase_multiset_distance(pair, [1.0, -1.0]) < 1e-12

    def test_matches_numeric_block_eigenvalues(self):
        for _ in range(40):
            k = int(RNG.integers(2, 13))
            params = random_params()
            bd = block_diagonalize(build_walk_operator(k, params))
            for l in range(k):
                pair = eigenvalues_closed_form(k, l, params)
                assert phase_multiset_distance(pair, bd.eigenvalues[l]) < 1e-10

    def test_det_trace_identities(self):
        for _ in range(40):
            k = int(RNG.integers(2, 13))
            l = int(RNG.integers(0, k))
            params = random_params()
            lam1, lam2 = eigenvalues_closed_form(k, l, params)
            block = block_formula(k, l, params)
            assert abs(lam1 * lam2 - np.linalg.det(block)) < 1e-10
            assert abs(lam1 + lam2 - np.trace(block)) < 1e-10

    def test_unit_modulus(self):
        for _ in range(40):
            k = int(RNG.integers(2, 13))
            l = int(RNG.integers(0, k))
            pair = eigenvalues_closed_form(k, l, random_params())
            assert all(abs(abs(z) - 1.0) < 1e-12 for z in pair)


class TestFullSpectrum:
    def test_depends_only_on_delta(self):
        a = full_spectrum(5, CoinParams(0.4, 0.3, 0.5))
        b = full_spectrum(5, CoinParams(0.4, 0.8, 0.0))
        assert phase_multiset_distance(a, b) < 1e-10

    def test_shift_invariance_of_delta(self):
        for _ in range(10):
            k = int(RNG.integers(2, 9))
            rho = RNG.uniform(0.0, 1.0)
            alpha = RNG.uniform(0.0, math.pi)
            beta = RNG.uniform(0.0, math.pi)
            t = RNG.uniform(0.0, min(alpha, math.pi - beta))
            a = full_spectrum(k, CoinParams(rho, alpha, beta))
            b = full_spectrum(k, CoinParams(rho, alpha - t, beta + t))
            assert phase_multiset_distance(a, b) < 1e-10

    def test_k3_delta0_eighth_roots(self):
        spectrum = full_spectrum(3, CoinParams(2.0 / 3.0))
        phases = principal_phase(spectrum) / (2.0 * math.pi)
        assert np.max(np.abs(phases * 8.0 - np.round(phases * 8.0))) < 1e-10

    def test_rho0_delta_pi(self):
        spectrum = full_spectrum(6, CoinParams.from_delta(0.0, math.pi))
        expected = [1j] * 6 + [-1j] * 6
        assert phase_multiset_distance(spectrum, expected) < 1e-12

    def test_matches_dense_eigensolver(self):
        for _ in range(50):
            k = int(RNG.integers(2, 13))
            params = random_params()
            dense = np.linalg.eigvals(build_walk_operator(k, params).matrix)
            assert phase_multiset_distance(full_spectrum(k, params), dense) < 1e-10


class TestEigenphasePower:
    def test_matches_matrix_power(self):
        for _ in range(15):
            k = int(RNG.integers(2, 9))
            n = int(RNG.integers(0, 1001))
            op = build_walk_operator(k, random_params())
            fast = dense_power(op, n)
            direct = np.linalg.matrix_power(op.matrix, n)
            assert np.max(np.abs(fast - direct)) < 1e-9
