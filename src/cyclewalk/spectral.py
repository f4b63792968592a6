"""Fourier block-diagonalization of the cycle walk and its closed-form spectrum.

The one-step operator of a k-cycle walk is block circulant with 2x2 blocks,
so conjugating with kron(F_k, F_2) collapses it into k independent 2x2
unitaries.  Their eigenvalues come in closed form from the block angles
(`walk.block_phases`), O(k) for all of them, with no eigenvectors; special-state
construction adds each block's coin eigenvectors (see `walk.WalkOperator`).
The dense conjugation is a test oracle, in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np

from .walk import CoinParams, WalkOperator, block_phases, su2_form

__all__ = [
    "BLOCK_RESIDUAL_TOL",
    "DEGENERACY_TOL",
    "BlockStructureError",
    "block_eigenpairs",
    "full_spectrum",
    "principal_phase",
]

TWO_PI = 2.0 * math.pi

BLOCK_RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10


class BlockStructureError(RuntimeError):
    """The operator did not reduce to the expected block structure.

    This signals a construction bug somewhere upstream, not bad user input.
    """


def principal_phase(values) -> np.ndarray:
    """Phases folded into [0, 2*pi)."""
    return np.mod(np.angle(values), TWO_PI)


def _block_values(k: int, theta, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (k, 2) of the blocks of F U F^dagger, row l the symbol A_{-l mod k}, each
    row sorted by principal phase, and the order that sorted it, from the `su2_form` angles."""
    values = np.exp(1j * block_phases(theta, delta))[-np.arange(k) % k]
    order = np.argsort(principal_phase(values), axis=1, kind="stable")
    return np.take_along_axis(values, order, axis=1), order


def block_eigenpairs(op: WalkOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of every block in closed form: values (k, 2) and coin vectors (k, 2, 2).

    Row l is block l of F U F^dagger, the symbol A_{-l mod k}, with eigenvalues
    exp(i*phi) exp(+-i*theta) sorted by principal phase; vectors[l][:, j] belongs
    to values[l, j].  A block within DEGENERACY_TOL of a scalar gets the coin basis.
    """
    m = -np.arange(op.k) % op.k
    x, y, sin_t, _ = (part[m] for part in op.su2)
    values, order = _block_values(op.k, op.su2[3], op.params.delta)
    # V v = exp(i*theta) v, from whichever row of V - exp(i*theta) I is better conditioned
    a = x.imag
    top = a >= 0.0
    v = np.stack([np.where(top, -1j * (a + sin_t), y), np.where(top, y.conj(), 1j * (sin_t - a))])
    norm = np.sqrt(2.0 * sin_t * (sin_t + np.abs(a)))
    v = np.divide(v, norm, out=np.zeros_like(v), where=norm > 0.0)
    w = np.stack([-v[1].conj(), v[0].conj()])  # the orthogonal eigenvector, for exp(-i*theta)
    vectors = np.take_along_axis(np.stack([v.T, w.T], axis=-1), order[:, None, :], axis=2)
    vectors[2.0 * sin_t < DEGENERACY_TOL] = np.eye(2)
    residual = np.max(np.abs(op.power(1)[m] @ vectors - vectors * values[:, None, :]))
    if residual > BLOCK_RESIDUAL_TOL:
        raise BlockStructureError(f"block eigenvector residual {residual:.3e}")
    return values, vectors


def full_spectrum(k: int, params: CoinParams) -> np.ndarray:
    """All 2k eigenvalues of the step operator, block-major, in closed form (no eigenvectors).

    Entries [2l, 2l+1] are block l's phase-sorted pair, see `block_eigenpairs`.
    """
    theta = su2_form(k, params.rho, params.alpha, params.delta)[3]
    return _block_values(k, theta, params.delta)[0].reshape(-1)
