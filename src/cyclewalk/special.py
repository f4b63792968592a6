"""States that revive without a full revival, built in Fourier-block space.

When only a subset of the eigenvalues are N-th roots of unity, any state in
the span of their eigenvectors returns after N steps even though U^N != I.
Each full-space eigenvector is a plane wave over positions times a 2-vector
coin eigenvector of one Fourier block, so eigenpairs are held as (block,
value, coin) arrays, built in closed form from the blocks' SU(2) angles
(`walk.WalkOperator`), and a combination of them is one FFT over the blocks.
The dense eigenvectors are a test oracle, in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import CoinParams, WalkerState, block_phases, build_walk_operator, evolve

__all__ = [
    "BLOCK_RESIDUAL_TOL",
    "DEGENERACY_TOL",
    "BlockStructureError",
    "DeMoivreSubspace",
    "EigenBasis",
    "build_special_state",
    "demoivre_subspace",
    "eigenbasis",
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
    """All 2k eigenpairs in closed form, block-major, each block's in principal-phase order.

    Block l is that of F U F^dagger, the symbol A_{-l mod k}, with eigenvalues
    exp(i*phi) exp(+-i*theta).  A block within DEGENERACY_TOL of a scalar gets
    the computational basis as its coin vectors.  The pairs are checked
    against the symbols, and a residual past BLOCK_RESIDUAL_TOL raises.
    """
    op = build_walk_operator(k, params)
    m = -np.arange(k) % k
    x, y, sin_t, theta = (part[m] for part in op.su2)
    values = np.exp(1j * block_phases(theta, params.delta))
    order = np.argsort(principal_phase(values), axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    # V v = exp(i*theta) v, from whichever row of V - exp(i*theta) I is better conditioned
    a = x.imag
    top = a >= 0.0
    v = np.stack([np.where(top, -1j * (a + sin_t), y), np.where(top, y.conj(), 1j * (sin_t - a))],
                 axis=-1)
    norm = np.sqrt(2.0 * sin_t * (sin_t + np.abs(a)))[:, None]
    v = np.divide(v, norm, out=np.zeros_like(v), where=norm > 0.0)
    w = np.stack([-v[:, 1].conj(), v[:, 0].conj()], axis=-1)  # the one for exp(-i*theta)
    coins = np.take_along_axis(np.stack([v, w], axis=1), order[:, :, None], axis=1)
    coins[2.0 * sin_t < DEGENERACY_TOL] = np.eye(2)  # coins[l, j] belongs to values[l, j]
    # row j of coins @ A^T is (A coins[l, j])^T
    residual = np.max(np.abs(coins @ op.power(1)[m].transpose(0, 2, 1) - coins * values[..., None]))
    if residual > BLOCK_RESIDUAL_TOL:
        raise BlockStructureError(f"block eigenvector residual {residual:.3e}")
    return EigenBasis(k, params, np.repeat(np.arange(k), 2), values.reshape(-1),
                      coins.reshape(-1, 2))


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
