"""Coin, shift, and single-step operators for discrete-time quantum walks.

A walker on a k-cycle lives in the 2k-dimensional position (tensor) coin
space.  Vectors are flattened position-major with the coin index fastest:
basis state |i, s> sits at flat index 2*i + s.  Coin value s=0 ("up")
steps from i to i-1 (mod k); s=1 ("down") steps to i+1 (mod k).

The step operator is block circulant, so it is held as its k 2x2 Fourier
symbols and powered block by block in closed form: evolving a state by any
number of steps costs one FFT, k 2x2 products and one inverse FFT.  A
single step can also be taken in position space in O(k).  The dense
2k x 2k matrix is built only when asked for, as a test oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "CoinParams",
    "HADAMARD",
    "LineWalkResult",
    "WalkOperator",
    "WalkerState",
    "build_coin",
    "build_shift_cycle",
    "build_walk_operator",
    "evolve",
    "line_walk",
]

TWO_PI = 2.0 * math.pi

NORM_TOL = 1e-12
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class CoinParams:
    """Coin parameters: amplitude weight rho in [0, 1] and phases alpha, beta.

    The walk spectrum depends on the phases only through delta = alpha + beta,
    so `from_delta` builds the canonical representative (alpha=delta, beta=0)
    for a given delta.  Two-angle construction keeps each phase in [0, pi];
    the beta=0 form doubles as the delta form and admits alpha in [0, 2*pi).
    """

    rho: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("rho", "alpha", "beta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if self.beta == 0.0:
            if not 0.0 <= self.alpha < TWO_PI:
                raise ValueError(f"alpha must lie in [0, 2*pi), got {self.alpha}")
        elif not (0.0 <= self.alpha <= math.pi and 0.0 <= self.beta <= math.pi):
            raise ValueError(
                f"alpha and beta must lie in [0, pi], got ({self.alpha}, {self.beta})"
            )

    @classmethod
    def from_delta(cls, rho: float, delta: float) -> "CoinParams":
        """Coin with total phase delta = alpha + beta, stored as (alpha=delta, beta=0)."""
        delta = float(delta)
        if not 0.0 <= delta < TWO_PI:
            raise ValueError(f"delta must lie in [0, 2*pi), got {delta}")
        return cls(rho, delta, 0.0)

    @property
    def delta(self) -> float:
        return self.alpha + self.beta


#: the standard balanced coin: rho=1/2, no phases
HADAMARD = CoinParams(0.5)


def build_coin(params: CoinParams) -> np.ndarray:
    """Dense 2x2 coin matrix for the given parameters."""
    r = math.sqrt(params.rho)
    q = math.sqrt(1.0 - params.rho)
    a, b = params.alpha, params.beta
    return np.array(
        [
            [r, q * np.exp(1j * a)],
            [q * np.exp(1j * b), -r * np.exp(1j * (a + b))],
        ],
        dtype=np.complex128,
    )


def build_shift_cycle(k: int) -> np.ndarray:
    """Coin-conditioned cyclic shift: |i,0> -> |i-1 mod k, 0>, |i,1> -> |i+1 mod k, 1>."""
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    shift = np.zeros((2 * k, 2 * k), dtype=np.complex128)
    for i in range(k):
        shift[2 * ((i - 1) % k), 2 * i] = 1.0
        shift[2 * ((i + 1) % k) + 1, 2 * i + 1] = 1.0
    return shift


@dataclass(frozen=True)
class WalkOperator:
    """One step of the cycle walk, held as its k Fourier symbols.

    Under numpy's DFT over positions the step acts on each l separately,
    (U psi)^_l = A_l psi^_l with A_l = diag(w^l, w^-l) C, w = exp(2*pi*i/k).
    Every A_l = exp(i*phi) V_l with phi = (delta + pi)/2 and
    V_l = [[x_l, y_l], [-conj(y_l), conj(x_l)]] in SU(2), whose powers are
    V_l^n = cos(n*theta_l) I + sin(n*theta_l) (V_l - cos(theta_l) I) / sin(theta_l).
    `coin` is C; `su2` holds (x, y, sin_theta, theta).  sin(theta_l) is read
    off the traceless part, not the trace, so theta stays accurate near V_l = +-I.
    """

    k: int
    params: CoinParams

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"cycle length must be at least 2, got {self.k}")
        coin = build_coin(self.params)
        # row 0 of V_l is w^l (C_00, C_01) exp(-i*phi); row 1 follows from the SU(2) form
        w = np.exp(2j * math.pi / self.k * np.arange(self.k) - 0.5j * (self.params.delta + math.pi))
        x, y = w * coin[0, 0], w * coin[0, 1]
        sin_t = np.hypot(x.imag, np.abs(y))
        deviation = np.abs(np.hypot(x.real, sin_t) - 1.0).max()
        if deviation > UNITARY_TOL:
            raise ValueError(f"blocks are not unitary (max deviation {deviation:.3e})")
        coin.setflags(write=False)
        object.__setattr__(self, "coin", coin)
        object.__setattr__(self, "su2", (x, y, sin_t, np.arctan2(sin_t, x.real)))

    @cached_property
    def symbols(self) -> np.ndarray:
        """The (k, 2, 2) array of A_l = diag(w^l, w^-l) C, in one vectorised pass."""
        w = np.exp(2j * math.pi / self.k * np.arange(self.k))
        symbols = np.stack([w, w.conj()], axis=1)[:, :, None] * self.coin
        symbols.setflags(write=False)
        return symbols

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense 2k x 2k step matrix: shift_cycle(k) . (I_k kron coin).  Oracle only."""
        step = build_shift_cycle(self.k) @ np.kron(np.eye(self.k), self.coin)
        step.setflags(write=False)
        return step

    def power(self, n: int) -> np.ndarray:
        """Symbols of U^n, (k, 2, 2), in O(k) for any n and on the unit circle for large n."""
        n = int(n)
        if n < 0:
            raise ValueError(f"power must be nonnegative, got {n}")
        x, y, sin_t, theta = self.su2
        g = np.divide(np.sin(n * theta), sin_t, out=np.zeros(self.k), where=sin_t > 0)
        diag = np.cos(n * theta) + 1j * (g * x.imag)
        off = g * y
        blocks = np.empty((self.k, 2, 2), dtype=np.complex128)
        blocks[:, 0, 0] = diag
        blocks[:, 0, 1] = off
        blocks[:, 1, 0] = -off.conj()
        blocks[:, 1, 1] = diag.conj()
        # exp(i*n*phi) = i^n exp(i*n*delta/2), with i^n exact
        blocks *= (1, 1j, -1, -1j)[n % 4] * cmath.exp(0.5j * self.params.delta * n)
        return blocks

    @cached_property
    def _sources(self) -> np.ndarray:
        """Flat index each amplitude comes from in the shift: up from site i+1, down from i-1."""
        i = np.arange(self.k)
        return np.stack([2 * ((i + 1) % self.k), 2 * ((i - 1) % self.k) + 1], 1).reshape(-1)

    def step(self, amplitudes) -> np.ndarray:
        """Coin then shift in O(k); exact zeros stay exact, which an FFT round trip breaks."""
        return (np.reshape(amplitudes, (self.k, 2)) @ self.coin.T).reshape(-1)[self._sources]


def build_walk_operator(k: int, params: CoinParams) -> WalkOperator:
    """Single-step operator on the k-cycle for the given coin."""
    return WalkOperator(k=k, params=params)


@dataclass(frozen=True)
class WalkerState:
    """Normalized amplitude vector over the position (tensor) coin space of a k-cycle."""

    k: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"cycle length must be at least 2, got {self.k}")
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (2 * self.k,):
            raise ValueError(
                f"expected {2 * self.k} amplitudes for k={self.k}, got {amps.shape[0]}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, k: int, position: int, coin: int) -> "WalkerState":
        """The computational basis state |position, coin>."""
        if not 0 <= position < k:
            raise ValueError(f"position {position} out of range for k={k}")
        if coin not in (0, 1):
            raise ValueError(f"coin index must be 0 or 1, got {coin}")
        amps = np.zeros(2 * k, dtype=np.complex128)
        amps[2 * position + coin] = 1.0
        return cls(k, amps)

    def position_probabilities(self) -> np.ndarray:
        """Length-k marginal probabilities over positions."""
        p = np.abs(self.amplitudes) ** 2
        return p[0::2] + p[1::2]


def evolve(state: WalkerState, op: WalkOperator, steps: int) -> WalkerState:
    """Apply `steps` walk steps in O(k log k): FFT, the powered symbols, inverse FFT."""
    if state.k != op.k:
        raise ValueError(
            f"state lives on a {state.k}-cycle but the operator acts on {op.k}"
        )
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if steps == 0:
        return state
    psi = np.fft.fft(np.reshape(state.amplitudes, (op.k, 2)), axis=0)
    moved = (op.power(steps) @ psi[:, :, None])[:, :, 0]
    return WalkerState(state.k, np.fft.ifft(moved, axis=0).reshape(-1))


@dataclass(frozen=True)
class LineWalkResult:
    """Amplitude history of a line walk over a fixed window of positions.

    `history[t]` is the (window, 2) amplitude table after t steps; column 0
    is the "up" (left-moving) coin component, column 1 the "down" one.
    """

    positions: np.ndarray
    history: np.ndarray

    @property
    def steps(self) -> int:
        return self.history.shape[0] - 1

    @property
    def amplitudes(self) -> np.ndarray:
        """Final (window, 2) amplitude table."""
        return self.history[-1]

    def probabilities(self, step: int = -1) -> np.ndarray:
        """Per-position probabilities after `step` steps (default: final)."""
        return np.sum(np.abs(self.history[step]) ** 2, axis=1)


def line_walk(
    initial: Mapping[int, Sequence[complex]],
    params: CoinParams,
    steps: int,
) -> LineWalkResult:
    """Run `steps` coin-then-shift applications on the infinite line.

    `initial` maps positions to (up, down) amplitude pairs and must be
    normalized.  The window [min-steps, max+steps] is preallocated; it
    provably contains all support since one step moves amplitude by one
    site.  Total probability is conserved to machine precision.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if not initial:
        raise ValueError("initial state has no support")
    lo = min(initial) - steps
    hi = max(initial) + steps
    width = hi - lo + 1
    amps = np.zeros((width, 2), dtype=np.complex128)
    for pos, pair in initial.items():
        pair = np.asarray(pair, dtype=np.complex128).reshape(-1)
        if pair.shape != (2,):
            raise ValueError(f"position {pos}: expected an (up, down) pair")
        amps[pos - lo] = pair
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"initial state is not normalized: sum |a|^2 = {norm_sq!r}")

    coin_t = build_coin(params).T.copy()
    history = np.zeros((steps + 1, width, 2), dtype=np.complex128)
    history[0] = amps
    for t in range(1, steps + 1):
        amps = amps @ coin_t
        shifted = np.zeros_like(amps)
        shifted[:-1, 0] = amps[1:, 0]  # up moves left
        shifted[1:, 1] = amps[:-1, 1]  # down moves right
        amps = shifted
        history[t] = amps
    history.setflags(write=False)
    positions = np.arange(lo, hi + 1)
    positions.setflags(write=False)
    return LineWalkResult(positions=positions, history=history)
