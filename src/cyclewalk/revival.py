"""Root-of-unity detection for walk spectra and revival certification.

A full revival after N steps means every eigenvalue of the step operator is an N-th root of
unity.  This module turns the eigenphases into reduced fractions in one proved
continued-fraction pass, takes N as the LCM of their denominators, and certifies candidate
periods by Fourier-block powering: every 2x2 symbol is raised to the N-th power through its
eigenphases and one inverse FFT gives the first block column of U^N, O(k log k) for any N.
`certify` turns the candidates of every seed search and rho edge into certificates on their
own k-cycle, a bounded chunk per pass.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import full_spectrum
from .walk import CoinParams, su2_form, su2_power

__all__ = [
    "CERTIFICATION_TOL",
    "DEFAULT_MAX_DENOMINATOR",
    "PHASE_RECONSTRUCTION_TOL",
    "UNDEFINED_DENOMINATOR_TOL",
    "RevivalCertificate",
    "certify",
    "power_deviation",
    "power_deviations",
    "revival_period",
]

TWO_PI = 2.0 * math.pi

CERTIFICATION_TOL = 1e-9
PHASE_RECONSTRUCTION_TOL = 1e-9
UNDEFINED_DENOMINATOR_TOL = 1e-12
DEFAULT_MAX_DENOMINATOR = 1000
MAX_POWER = 2**63 - 1  # powers are int64 in the engine; no revival that long certifies

#: Fourier blocks per engine pass in `certify`; bounds its memory
_CHUNK_BLOCKS = 2048

#: float-error allowance of the proof test in `_proved_fractions`: q, max_n <= 2**24 and
#: |x - p/q| < 1/2, so p, q and q*max_n are exact and each of its three roundings errs by
#: at most 1.5 * 2**-53
_PROOF_MARGIN = 1e-15

#: denominator bound of the proofs: for every q <= 2**24 the window 1/(2*q*2**24) - _PROOF_MARGIN
#: stays above 7.7e-16; no period past about 3.5e6 certifies at CERTIFICATION_TOL, so none is lost
_PROVABLE_DEN = 2**24


def _proved_fractions(x: np.ndarray, max_n: int):
    """Last float continued-fraction convergent p/q of each x in [0, 1] with q <= max_n,
    where max_n is first capped at 2**24 (`_PROVABLE_DEN`).

    `proved` marks |x - p/q| < 1/(2*q*max_n): any other r/s with s <= max_n lies at least
    1/(q*s) from p/q, so p/q is Fraction(x).limit_denominator(min(max_n, 2**24)), a convergent
    (Legendre: no semiconvergent step needed), and reduced, its float recurrence exact.
    """
    max_n = min(max_n, _PROVABLE_DEN)
    p0, q0, p, q = (np.full_like(x, v) for v in (0.0, 1.0, 1.0, 0.0))
    rest, live = x, np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live.any():
            a = np.floor(rest)
            q_next = q0 + a * q
            live &= q_next <= max_n
            p0, p = np.where(live, p, p0), np.where(live, p0 + a * p, p)
            q0, q = np.where(live, q, q0), np.where(live, q_next, q)
            live &= rest > a
            rest = 1.0 / (rest - a)
        proved = np.abs(x - p / q) < 0.5 / (q * max_n) - _PROOF_MARGIN
    return p, q, proved


def power_deviations(k: int, rho, delta: float, n) -> np.ndarray:
    """Max-entry deviation from I of U^n[i] for the coins rho[i], delta (any alpha + beta),
    in one engine pass whose memory grows with the number of coins."""
    if (top := max(n, default=0)) > MAX_POWER:  # before numpy turns n into floats or objects
        raise ValueError(f"N={top} exceeds 2**63 - 1, the largest power the engine takes")
    rho, n = np.asarray(rho, dtype=float).reshape(-1, 1), np.asarray(n).reshape(-1, 1)
    if rho.size and not 0.0 <= rho.min() <= rho.max() <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got values in [{rho.min()}, {rho.max()}]")
    return _deviation(k, rho, delta, n)


def _deviation(k: int, rho, delta: float, n):
    """One engine pass over weights and powers of one shape, () or (batch, 1).

    U^n - I is block circulant: its entries are those of its first block column, the inverse
    FFT of the powered symbols minus I at offset 0.  In the block form of `su2_power` those
    are, up to unit factors and the order of offsets, the entries of ifft(diag - conj(phase)),
    ifft(diag - phase) and ifft(off): O(k log k) per coin."""
    diag, off, phase = su2_power(su2_form(k, rho, delta, delta), delta, n)
    column = np.fft.ifft(np.array([diag - phase.conj(), diag - phase, off]))
    return np.abs(column).max(axis=(0, -1))


def power_deviation(k: int, params: CoinParams, n: int) -> float:
    """Max-entry deviation of U^n from the identity, in O(k log k): one coin, no batch axis."""
    return float(_deviation(k, params.rho, params.delta, n))


@dataclass(frozen=True)
class RevivalCertificate:
    """A verified revival: U_k^N = I within max_deviation.

    The eigenphase fractions that produced N, `generators`, are held as j/N for
    the strictly increasing integers j in [0, N) of `numerators`; their period
    N / gcd(N, j_1, ..., j_m) divides N (equality can fail only for the rho=1
    family, whose published period is a multiple of the true one for some
    delta).  Exact certificates must verify below CERTIFICATION_TOL;
    approximate ones (exact=False) record their deviation as achieved.
    """

    k: int
    N: int
    rho: float
    delta: float
    numerators: tuple[int, ...]
    max_deviation: float
    case_tag: str = "reconstructed"
    delta_two_pi: Fraction | None = None
    rho_display: str | None = None
    exact: bool = True

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.exact and not self.max_deviation < CERTIFICATION_TOL:
            raise ValueError(
                f"certificate failed verification: k={self.k}, N={self.N}, "
                f"deviation {self.max_deviation:.3e}"
            )
        j = self.numerators
        if j and not (0 <= j[0] and j[-1] < self.N and all(map(operator.lt, j, j[1:]))):
            raise ValueError(f"numerators must increase strictly within [0, N={self.N})")

    @classmethod
    def from_generators(cls, generators, **fields) -> RevivalCertificate:
        """The certificate of these fractions in [0, 1), in any order and with repeats."""
        n, pairs = fields["N"], [f.as_integer_ratio() for f in generators]
        period = math.lcm(*(den for _, den in pairs))
        if n % period != 0:
            raise ValueError(f"N={n} is not a multiple of the generator period {period}")
        return cls(numerators=tuple(sorted({a * (n // b) for a, b in pairs})), **fields)

    @property
    def generators(self) -> tuple[Fraction, ...]:
        """The eigenphase fractions j/N, reduced and ascending."""
        return tuple(Fraction(j, self.N) for j in self.numerators)

    @property
    def params(self) -> CoinParams:
        return CoinParams.from_delta(self.rho, self.delta % TWO_PI)


def certify(k: int, delta: float, candidates, **fields) -> list[RevivalCertificate]:
    """Certificates of (rho, N, numerators over N) candidates, read lazily and measured on the
    k-cycle, one engine pass per chunk, with `fields` on each; an exact one that misses I raises."""
    rows = max(1, _CHUNK_BLOCKS // k)
    candidates, out = iter(candidates), []
    while chunk := list(itertools.islice(candidates, rows)):
        rho, n, _ = zip(*chunk)
        deviations = power_deviations(k, rho, delta, n)
        out += [
            RevivalCertificate(k=k, N=n, rho=rho, delta=delta, numerators=numerators,
                               max_deviation=deviation, **fields)
            for (rho, n, numerators), deviation in zip(chunk, deviations.tolist())
        ]
    return out


def revival_period(
    k: int,
    params: CoinParams,
    max_n: int = DEFAULT_MAX_DENOMINATOR,
) -> RevivalCertificate | None:
    """Detect the revival period from the closed-form spectrum.

    Every eigenphase must be proved (`_proved_fractions`) as a fraction within
    PHASE_RECONSTRUCTION_TOL with denominator at most min(max_n, 2**24); the candidate period
    is the LCM of those denominators.  Returns None when any phase fails, the LCM exceeds
    max_n or MAX_POWER, or the powered operator misses I by CERTIFICATION_TOL or more.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    x = np.angle(full_spectrum(k, params)) / TWO_PI % 1.0
    p, q, proved = _proved_fractions(x, max_n)
    if not (proved.all() and (np.abs(x - p / q) < PHASE_RECONSTRUCTION_TOL).all()):
        return None
    p, q = p.astype(np.int64), q.astype(np.int64)
    n = math.lcm(*np.unique(q).tolist())
    if n > min(max_n, MAX_POWER):
        return None

    deviation = power_deviation(k, params, n)
    if not deviation < CERTIFICATION_TOL:
        return None
    numerators = np.unique(p % q * (n // q)).tolist()
    return RevivalCertificate(k=k, N=n, rho=params.rho, delta=params.delta,
                              numerators=tuple(numerators), max_deviation=deviation)
