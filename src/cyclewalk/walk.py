"""Coin, shift, and single-step operators for discrete-time quantum walks.

A walker on a k-cycle lives in the 2k-dimensional position (tensor) coin
space.  Vectors are flattened position-major with the coin index fastest:
basis state |i, s> sits at flat index 2*i + s.  Coin value s=0 ("up")
steps from i to i-1 (mod k); s=1 ("down") steps to i+1 (mod k).

The step operator is block circulant, so it is held as its k 2x2 Fourier
symbols and powered block by block in closed form: evolving a state by any
number of steps costs one FFT, k 2x2 products and one inverse FFT.  The
dense 2k x 2k matrix is a test oracle, in tests/oracles.py.

Step by step, the walk is one coin-then-shift generator of (n, 2) tables
whose shift is a gather the caller passes in: `cycle_steps` wraps round the
k-cycle, and `line_steps` reads a zero row past each end of a line window.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "CoinParams",
    "HADAMARD",
    "WalkOperator",
    "WalkerState",
    "build_coin",
    "build_walk_operator",
    "cycle_steps",
    "evolve",
    "line_steps",
]

TWO_PI = 2.0 * math.pi

NORM_TOL = 1e-12
UNITARY_TOL = 1e-12
MAX_POWER = 2**63 - 1  # powers are int64 in the engine, never rounded floats; none longer certifies
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


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


@dataclass(frozen=True)
class WalkOperator:
    """One step of the cycle walk, held as its k Fourier symbols.

    Under numpy's DFT over positions the step acts on each l separately,
    (U psi)^_l = A_l psi^_l with A_l = diag(w^l, w^-l) C, w = exp(2*pi*i/k).
    Every A_l = exp(i*phi) V_l with phi = (delta + pi)/2 and
    V_l = [[x_l, y_l], [-conj(y_l), conj(x_l)]] in SU(2), whose powers are
    V_l^n = cos(n*theta_l) I + sin(n*theta_l) (V_l - cos(theta_l) I) / sin(theta_l).
    `su2` holds (x, y, sin_theta, theta); `power(1)` is A_l.  sin(theta_l) is read
    off the traceless part, not the trace, so theta stays accurate near V_l = +-I.
    """

    k: int
    params: CoinParams

    def __post_init__(self):
        params = self.params
        object.__setattr__(self, "su2", su2_form(self.k, params.rho, params.alpha, params.delta))

    def power(self, n: int) -> np.ndarray:
        """Symbols of U^n, (k, 2, 2), in O(k) for n <= MAX_POWER, on the unit circle at large n."""
        diag, off, phase = su2_power(self.su2, self.params.delta, int(n))
        blocks = np.empty((self.k, 2, 2), dtype=np.complex128)
        blocks[:, 0, 0], blocks[:, 0, 1] = diag, off
        blocks[:, 1, 0], blocks[:, 1, 1] = -off.conj(), diag.conj()
        blocks *= phase
        return blocks


@lru_cache(maxsize=16)
def _roots(k: int) -> np.ndarray:
    """w^l = exp(2*pi*i*l/k) for l = 0..k-1, shared per k, so read only."""
    return np.exp(2j * math.pi / k * np.arange(k))


def su2_form(k: int, rho, alpha, delta):
    """(x, y, sin_theta, theta), each rho.shape + (k,), of the blocks V_l (see `WalkOperator`)
    for weights rho, () or (batch, 1), and alpha, delta: floats or like rho; UNITARY_TOL-checked."""
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    exp = np.exp if isinstance(delta, np.ndarray) else cmath.exp  # cmath is faster on one coin
    # row 0 of V_l is w^l (C_00, C_01) exp(-i*phi); row 1 follows from the SU(2) form
    w = _roots(k) * exp(-0.5j * (delta + math.pi))
    q = np.sqrt(1.0 - rho)
    x, y = w * np.sqrt(rho), w * (q * exp(1j * alpha))
    sin_t = np.hypot(x.imag, q)
    deviation = np.abs(np.hypot(x.real, sin_t) - 1.0).max()
    if deviation > UNITARY_TOL:
        raise ValueError(f"blocks are not unitary (max deviation {deviation:.3e})")
    return x, y, sin_t, np.arctan2(sin_t, x.real)


def block_phases(theta, delta: float) -> np.ndarray:
    """Eigenphases phi +- theta_l of the blocks A_l = exp(i*phi) V_l, on a new last axis of 2."""
    return 0.5 * (delta + math.pi) + np.stack([theta, -theta], axis=-1)


def su2_power(su2, delta, n):
    """(diag, off, phase) of A_l^n = phase * [[diag, off], [-conj(off), conj(diag)]] from
    `su2_form` parts and powers 0 <= n <= MAX_POWER, shaped like its weights, phase exp(i*n*phi)."""
    x, y, sin_t, theta = su2
    n = np.asarray(n)
    if n.min() < 0:
        raise ValueError(f"power must be nonnegative, got {n.min()}")
    if n.dtype.kind != "i" and (top := n.max()) > MAX_POWER:  # past int64: object or uint64
        raise ValueError(f"N={top} exceeds 2**63 - 1, the largest power the engine takes")
    n = n.astype(np.int64, copy=False)
    angle = n * theta
    g = np.divide(np.sin(angle), sin_t, out=np.zeros(angle.shape), where=sin_t > 0)
    # exp(i*n*phi) = i^n exp(i*n*delta/2), with i^n exact
    phase = _QUARTER_TURNS[n % 4] * np.exp(0.5j * delta * n)
    return np.cos(angle) + 1j * (g * x.imag), g * y, phase


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
        _check_normalized(amps, "state")
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


def _check_normalized(amps: np.ndarray, what: str) -> None:
    with np.errstate(over="ignore"):  # an overflow gives inf, which fails below
        norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # so that NaN fails
        raise ValueError(f"{what} is not normalized: sum |a|^2 = {norm_sq!r}")


def evolve(state: WalkerState, op: WalkOperator, steps: int) -> WalkerState:
    """Apply `steps` walk steps in O(k log k): FFT, the powered symbols, inverse FFT."""
    if state.k != op.k:
        raise ValueError(
            f"state lives on a {state.k}-cycle but the operator acts on {op.k}"
        )
    if int(steps) == 0:  # su2_power refuses a negative count or one past MAX_POWER
        return state
    psi = np.fft.fft(np.reshape(state.amplitudes, (op.k, 2)), axis=0)
    moved = (op.power(steps) @ psi[:, :, None])[:, :, 0]
    return WalkerState(state.k, np.fft.ifft(moved, axis=0).reshape(-1))


def _tables(table: np.ndarray, params: CoinParams, sources: np.ndarray, steps: int):
    """`table`, then the table after each of `steps` coin-then-shift steps: the shift gathers
    the flat indices `sources`, shaped like the table, from the coined table with a zero row
    appended.  Every table is a new array; exact zeros stay exact, which an FFT would break."""
    coin_t = build_coin(params).T.copy()
    coined = np.zeros((len(table) + 1, 2), dtype=np.complex128)  # the last row stays zero
    yield table
    for _ in range(steps):
        np.matmul(table, coin_t, out=coined[:-1])
        table = coined.reshape(-1)[sources]
        yield table


def cycle_steps(state: WalkerState, params: CoinParams, steps: int) -> Iterator[np.ndarray]:
    """The (k, 2) amplitude table of `state` after each of 0..steps steps on its cycle."""
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    i = np.arange(state.k)  # up comes from site i+1, down from i-1, round the cycle
    sources = np.stack([2 * ((i + 1) % state.k), 2 * ((i - 1) % state.k) + 1], axis=1)
    return _tables(state.amplitudes.reshape(-1, 2), params, sources, int(steps))


def line_steps(
    initial: Mapping[int, Sequence[complex]], params: CoinParams, steps: int
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The window of positions and a generator of its (window, 2) amplitude table
    after each of 0..steps coin-then-shift applications on the infinite line;
    column 0 is the "up" (left-moving) coin component, column 1 the "down" one.

    `initial` maps positions to (up, down) amplitude pairs and must be
    normalized.  The window [min-steps, max+steps] provably contains all support,
    since one step moves amplitude by one site; probability is conserved to
    machine precision.  One table is held at a time, so memory is O(steps).
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if not initial:
        raise ValueError("initial state has no support")
    lo = min(initial) - steps
    hi = max(initial) + steps
    amps = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
    for pos, pair in initial.items():
        pair = np.asarray(pair, dtype=np.complex128).reshape(-1)
        if pair.shape != (2,):
            raise ValueError(f"position {pos}: expected an (up, down) pair")
        amps[pos - lo] = pair
    _check_normalized(amps, "initial state")
    positions = np.arange(lo, hi + 1)
    positions.setflags(write=False)
    # past the ends, up reads the zero row at flat 2n and down at flat -1
    i = np.arange(len(amps))
    return positions, _tables(amps, params, np.stack([2 * i + 2, 2 * i - 1], axis=1), steps)
