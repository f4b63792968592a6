"""States that revive without a full revival, built in Fourier-block space.

When only a subset of the eigenvalues are N-th roots of unity, any state in
the span of their eigenvectors returns after N steps even though U^N != I.
Each full-space eigenvector is a plane wave over positions times a 2-vector
coin eigenvector of one Fourier block, so eigenpairs are held as (block,
value, coin) arrays and a combination of them is one FFT over the blocks.
The dense eigenvectors are a test oracle, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import block_eigenpairs
from .walk import CoinParams, WalkerState, build_walk_operator, evolve

__all__ = [
    "DeMoivreSubspace",
    "EigenBasis",
    "build_special_state",
    "demoivre_subspace",
    "eigenbasis",
]


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of a cycle walk in block space; a full basis has all 2k of them.

    Pair j has eigenvalue values[j] and the eigenvector that is
    coins[j] * exp(-2*pi*i*blocks[j]*x/k)/sqrt(k) at position x.  The arrays,
    of shapes (m,), (m,) and (m, 2), are held as read-only views.
    """

    k: int
    params: CoinParams
    blocks: np.ndarray
    values: np.ndarray
    coins: np.ndarray

    def __post_init__(self):
        for name in ("blocks", "values", "coins"):
            view = np.asarray(getattr(self, name)).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)


@dataclass(frozen=True)
class DeMoivreSubspace(EigenBasis):
    """Eigenpairs whose eigenvalues are n_target-th roots of unity within tol."""

    n_target: int = 1
    tol: float = 1e-9


def eigenbasis(k: int, params: CoinParams) -> EigenBasis:
    """All 2k eigenpairs, block-major, each block's in principal-phase order.

    A block with a repeated eigenvalue is a scalar, and its coin vectors are
    the computational basis (see `spectral.block_eigenpairs`).
    """
    values, vectors = block_eigenpairs(build_walk_operator(k, params))
    coins = vectors.transpose(0, 2, 1).reshape(-1, 2)  # coins[2l + j] = vectors[l, :, j]
    return EigenBasis(k, params, np.repeat(np.arange(k), 2), values.reshape(-1), coins)


def demoivre_subspace(
    basis: EigenBasis, n_target: int, tol: float = 1e-9
) -> DeMoivreSubspace | None:
    """Eigenpairs with value**n_target == 1 within tol; None when none qualify."""
    n_target = int(n_target)
    if n_target < 1:
        raise ValueError(f"target period must be positive, got {n_target}")
    kept = np.abs(np.exp(1j * n_target * np.angle(basis.values)) - 1.0) < tol
    if not kept.any():
        return None
    pairs = (basis.blocks[kept], basis.values[kept], basis.coins[kept])
    return DeMoivreSubspace(basis.k, basis.params, *pairs, n_target, tol)


def build_special_state(subset: DeMoivreSubspace, coefficients) -> WalkerState:
    """Normalized combination of the subset's eigenvectors, in one FFT over blocks.

    The result returns to itself after subset.n_target steps; that bound is
    re-checked against the operator and a violation raises, since it would
    mean the subset was assembled with an inconsistent tolerance.
    """
    coeffs = np.ascontiguousarray(coefficients, dtype=np.complex128).reshape(-1)
    if coeffs.shape != subset.values.shape:
        raise ValueError(f"expected {subset.values.size} coefficients, got {coeffs.size}")
    if not np.isfinite(coeffs).all():
        raise ValueError(f"coefficients must be finite, got {coeffs.tolist()}")
    # only their ratios matter: scale their parts to at most 1, exactly, by a power of two
    parts = coeffs.view(np.float64)
    coeffs = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(np.complex128)
    spectrum = np.zeros((subset.k, 2), dtype=np.complex128)
    np.add.at(spectrum, subset.blocks, coeffs[:, None] * subset.coins)
    combo = np.fft.fft(spectrum, axis=0).reshape(-1) / np.sqrt(subset.k)
    norm = float(np.linalg.norm(combo))
    if not norm >= 1e-12:  # so that NaN fails
        raise ValueError(f"coefficients combine to a vector of norm {norm!r}")
    state = WalkerState(subset.k, combo / norm)

    op = build_walk_operator(subset.k, subset.params)
    revived = evolve(state, op, subset.n_target)
    gap = float(np.linalg.norm(revived.amplitudes - state.amplitudes))
    if not gap < subset.tol + 1e-12:
        raise RuntimeError(f"constructed state misses its revival: |U^N psi - psi| = {gap:.3e}")
    return state
