"""Fourier block-diagonalization of the cycle walk and its closed-form spectrum.

The one-step operator of a k-cycle walk is block circulant with 2x2 blocks,
so conjugating with kron(F_k, F_2) collapses it into k independent 2x2
unitaries.  Revival detection and special-state construction read the
spectrum off those blocks in closed form, O(k) for all of them, from the
operator's Fourier symbols (see `walk.WalkOperator`).  The dense
conjugation `block_diagonalize` is kept as a test oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .walk import CoinParams, WalkOperator, build_walk_operator

__all__ = [
    "BLOCK_RESIDUAL_TOL",
    "DEGENERACY_TOL",
    "BlockDiagonalForm",
    "BlockStructureError",
    "block_diagonalize",
    "block_eigenpairs",
    "block_formula",
    "eigenvalues_closed_form",
    "fourier_matrix",
    "full_spectrum",
    "phase_multiset_distance",
    "principal_phase",
    "walk_fourier",
]

TWO_PI = 2.0 * math.pi

BLOCK_RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-10


class BlockStructureError(RuntimeError):
    """The operator did not reduce to the expected block structure.

    This signals a construction bug somewhere upstream, not bad user input.
    """


def fourier_matrix(m: int) -> np.ndarray:
    """Unitary Fourier matrix with entries exp(2*pi*i*j*l/m)/sqrt(m)."""
    if m < 1:
        raise ValueError(f"size must be positive, got {m}")
    idx = np.arange(m)
    return np.exp(2j * math.pi / m * np.outer(idx, idx)) / math.sqrt(m)


def walk_fourier(k: int) -> np.ndarray:
    """kron(position Fourier, coin Fourier): block-diagonalizes a k-cycle step."""
    return np.kron(fourier_matrix(k), fourier_matrix(2))


def principal_phase(values) -> np.ndarray:
    """Phases folded into [0, 2*pi)."""
    return np.mod(np.angle(values), TWO_PI)


@dataclass(frozen=True)
class BlockDiagonalForm:
    """The k 2x2 diagonal blocks of F U F^dagger plus each block's eigenpairs.

    Eigenvalues are sorted by principal phase within each block;
    eigenvectors[l][:, j] belongs to eigenvalues[l, j].
    """

    k: int
    blocks: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _sorted_block_eig(block: np.ndarray):
    values, vectors = np.linalg.eig(block)
    order = np.argsort(principal_phase(values))
    return values[order], vectors[:, order]


def block_diagonalize(op: WalkOperator) -> BlockDiagonalForm:
    """Conjugate the step operator with kron(F_k, F_2) and collect the 2x2 blocks.

    Dense and O(k^3): a test oracle for the closed forms, not used in production.
    Raises BlockStructureError when the off-block residual exceeds
    BLOCK_RESIDUAL_TOL, which can only happen if the operator was built
    inconsistently with the circulant layout.
    """
    k = op.k
    f = walk_fourier(k)
    d = f @ op.matrix @ f.conj().T
    mask = np.ones(d.shape, dtype=bool)
    for l in range(k):
        mask[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] = False
    residual = float(np.max(np.abs(d[mask]))) if k > 1 else 0.0
    if residual > BLOCK_RESIDUAL_TOL:
        raise BlockStructureError(
            f"off-block residual {residual:.3e} exceeds {BLOCK_RESIDUAL_TOL:.1e}"
        )
    blocks = np.stack([d[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] for l in range(k)])
    eigenvalues = np.empty((k, 2), dtype=np.complex128)
    eigenvectors = np.empty((k, 2, 2), dtype=np.complex128)
    for l in range(k):
        eigenvalues[l], eigenvectors[l] = _sorted_block_eig(blocks[l])
    for arr in (blocks, eigenvalues, eigenvectors):
        arr.setflags(write=False)
    return BlockDiagonalForm(
        k=k, blocks=blocks, eigenvalues=eigenvalues, eigenvectors=eigenvectors
    )


def block_formula(k: int, l: int, params: CoinParams) -> np.ndarray:
    """Closed form of the l-th 2x2 diagonal block of F U F^dagger."""
    if not 0 <= l < k:
        raise ValueError(f"block index {l} out of range for k={k}")
    w = cmath.exp(-2j * math.pi * l / k)
    wc = cmath.exp(2j * math.pi * l / k)
    ea = cmath.exp(1j * params.alpha)
    eb = cmath.exp(1j * params.beta)
    ed = cmath.exp(1j * (params.alpha + params.beta))
    q = math.sqrt(1.0 - params.rho)
    r = math.sqrt(params.rho)
    return 0.5 * np.array(
        [
            [
                (w * ea + wc * eb) * q + (w - wc * ed) * r,
                (-w * ea + wc * eb) * q + (w + wc * ed) * r,
            ],
            [
                (w * ea - wc * eb) * q + (w + wc * ed) * r,
                (-w * ea - wc * eb) * q + (w - wc * ed) * r,
            ],
        ],
        dtype=np.complex128,
    )


def eigenvalues_closed_form(
    k: int, l: int, params: CoinParams
) -> tuple[complex, complex]:
    """Eigenvalue pair of block l, sorted by principal phase.

    The unordered pair is insensitive to the branch of the square root
    (flipping the root's sign swaps the two values), so the principal
    branch is used throughout; the det/trace identities pin the pair.
    """
    if not 0 <= l < k:
        raise ValueError(f"block index {l} out of range for k={k}")
    delta = params.delta
    w = cmath.exp(-2j * math.pi * l / k)
    wide = cmath.exp(1j * (4.0 * math.pi * l / k + delta))
    half_angle = 2.0 * math.pi * l / k + 0.5 * delta
    root = cmath.sqrt(wide * (1.0 - params.rho * math.sin(half_angle) ** 2))
    trace_part = (1.0 - wide) * math.sqrt(params.rho)
    pair = (0.5 * w * (trace_part + 2.0 * root), 0.5 * w * (trace_part - 2.0 * root))
    return tuple(sorted(pair, key=lambda z: cmath.phase(z) % TWO_PI))


def block_eigenpairs(op: WalkOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of every block in closed form: values (k, 2) and coin vectors (k, 2, 2).

    Row l is block l of F U F^dagger, the symbol A_{-l mod k}, with eigenvalues
    exp(i*phi) exp(+-i*theta) sorted by principal phase; vectors[l][:, j] belongs
    to values[l, j].  A block within DEGENERACY_TOL of a scalar gets the coin basis.
    """
    m = -np.arange(op.k) % op.k
    x, y, sin_t, theta = (part[m] for part in op.su2)
    values = np.exp(1j * (0.5 * (op.params.delta + math.pi) + np.stack([theta, -theta], axis=1)))
    # V v = exp(i*theta) v, from whichever row of V - exp(i*theta) I is better conditioned
    a = x.imag
    top = a >= 0.0
    v = np.stack([np.where(top, -1j * (a + sin_t), y), np.where(top, y.conj(), 1j * (sin_t - a))])
    norm = np.sqrt(2.0 * sin_t * (sin_t + np.abs(a)))
    v = np.divide(v, norm, out=np.zeros_like(v), where=norm > 0.0)
    w = np.stack([-v[1].conj(), v[0].conj()])  # the orthogonal eigenvector, for exp(-i*theta)
    order = np.argsort(principal_phase(values), axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(np.stack([v.T, w.T], axis=-1), order[:, None, :], axis=2)
    vectors[2.0 * sin_t < DEGENERACY_TOL] = np.eye(2)
    residual = np.max(np.abs(op.symbols[m] @ vectors - vectors * values[:, None, :]))
    if residual > BLOCK_RESIDUAL_TOL:
        raise BlockStructureError(f"block eigenvector residual {residual:.3e}")
    return values, vectors


def full_spectrum(k: int, params: CoinParams) -> np.ndarray:
    """All 2k eigenvalues of the step operator, block-major.

    Entries [2l, 2l+1] are block l's phase-sorted pair, see `block_eigenpairs`.
    """
    return block_eigenpairs(build_walk_operator(k, params))[0].reshape(-1)


def phase_multiset_distance(a, b) -> float:
    """Largest gap in a greedy circular matching of two unit-modulus multisets.

    Both inputs must have equal length; each element of `a` is matched to
    (and consumes) its nearest remaining element of `b`, with distance
    measured along the unit circle.
    """
    a = list(np.asarray(a, dtype=np.complex128))
    b = list(np.asarray(b, dtype=np.complex128))
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")
    worst = 0.0
    for z in a:
        gaps = [abs(cmath.phase(z * w.conjugate())) for w in b]
        best = int(np.argmin(gaps))
        worst = max(worst, gaps[best])
        b.pop(best)
    return worst
