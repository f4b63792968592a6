"""Eigenvector machinery for states that revive without a full revival.

When only a subset of the eigenvalues are N-th roots of unity, any state in
the span of their eigenvectors returns after N steps even though U^N != I.
Full-space eigenvectors are the closed-form 2x2 block eigenvectors times a
plane wave over positions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .spectral import DEGENERACY_TOL, block_eigenpairs
from .walk import CoinParams, WalkerState, build_walk_operator, evolve

__all__ = [
    "DeMoivreSubspace",
    "EigenBasis",
    "EigenPair",
    "build_special_state",
    "demoivre_subspace",
    "eigenbasis",
]


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue of the walk with its full-space eigenvector.

    `branch` indexes the eigenvalue within its block in principal-phase
    order (the closed form's +/- labels are not stable and are not used).
    `degenerate` flags blocks with a repeated eigenvalue, where the vectors
    are merely one orthonormal choice.
    """

    value: complex
    vector: np.ndarray
    block: int
    branch: int
    degenerate: bool


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs of a cycle walk; a full basis has all 2k of them."""

    k: int
    params: CoinParams
    pairs: tuple[EigenPair, ...]

    def vectors(self) -> np.ndarray:
        """(2k, n_pairs) matrix with one eigenvector per column."""
        return np.column_stack([p.vector for p in self.pairs])


@dataclass(frozen=True)
class DeMoivreSubspace(EigenBasis):
    """Eigenpairs whose eigenvalues are n_target-th roots of unity within tol."""

    n_target: int = 1
    tol: float = 1e-9


def eigenbasis(k: int, params: CoinParams) -> EigenBasis:
    """All 2k eigenpairs: block l's coin eigenvectors times exp(-2*pi*i*j*l/k)/sqrt(k)
    at position j.  A block with a repeated eigenvalue is a scalar, so the coin's
    computational basis is the eigenvector choice and the pair is flagged degenerate.
    """
    values, vectors = block_eigenpairs(build_walk_operator(k, params))
    pairs = []
    for l in range(k):
        wave = np.exp(-2j * np.pi * l / k * np.arange(k)) / np.sqrt(k)
        degenerate = bool(abs(values[l, 0] - values[l, 1]) < DEGENERACY_TOL)
        for j in range(2):
            vector = np.outer(wave, vectors[l, :, j]).reshape(-1)
            vector.setflags(write=False)
            pairs.append(EigenPair(complex(values[l, j]), vector, l, j, degenerate))
    return EigenBasis(k=k, params=params, pairs=tuple(pairs))


def demoivre_subspace(
    basis: EigenBasis, n_target: int, tol: float = 1e-9
) -> DeMoivreSubspace | None:
    """Eigenpairs with value**n_target == 1 within tol; None when none qualify."""
    n_target = int(n_target)
    if n_target < 1:
        raise ValueError(f"target period must be positive, got {n_target}")
    kept = tuple(
        p
        for p in basis.pairs
        if abs(cmath.exp(1j * n_target * cmath.phase(p.value)) - 1.0) < tol
    )
    if not kept:
        return None
    return DeMoivreSubspace(
        k=basis.k, params=basis.params, pairs=kept, n_target=n_target, tol=tol
    )


def build_special_state(subset: DeMoivreSubspace, coefficients) -> WalkerState:
    """Normalized combination of the subset's eigenvectors.

    The result returns to itself after subset.n_target steps; that bound is
    re-checked against the operator and a violation raises, since it would
    mean the subset was assembled with an inconsistent tolerance.
    """
    coeffs = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if coeffs.shape[0] != len(subset.pairs):
        raise ValueError(
            f"expected {len(subset.pairs)} coefficients, got {coeffs.shape[0]}"
        )
    combo = subset.vectors() @ coeffs
    norm = float(np.linalg.norm(combo))
    if norm < 1e-12:
        raise ValueError("coefficients combine to the zero vector")
    state = WalkerState(subset.k, combo / norm)

    op = build_walk_operator(subset.k, subset.params)
    revived = evolve(state, op, subset.n_target)
    gap = float(np.linalg.norm(revived.amplitudes - state.amplitudes))
    if gap >= subset.tol + 1e-12:
        raise RuntimeError(
            f"constructed state misses its revival: |U^N psi - psi| = {gap:.3e}"
        )
    return state
