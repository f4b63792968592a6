"""Root-of-unity detection for walk spectra and revival certification.

A full revival after N steps means every eigenvalue of the step operator, exp(i*(phi +- theta_l)),
is an N-th root of unity.  This module reads those phases off the block angles, proves them
reduced fractions in one continued-fraction pass that stops at the first that fails, takes N as
their denominators' LCM, and certifies candidate periods by Fourier-block powering: each 2x2
symbol is raised to the N-th power and one inverse FFT gives U^N's first block column, O(k log k).
`certify` measures the candidate columns of every seed search, rho edge and approximate run
on their own k-cycle, a bounded chunk per pass, as `CertificateColumns`, the one certificate
set every solver returns; a row is built into a `RevivalCertificate` when read, the form in
which `revival_period` returns its one certificate.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .walk import MAX_POWER, CoinParams, block_phases, su2_form, su2_power

__all__ = [
    "CERTIFICATION_TOL",
    "CertificateColumns",
    "DEFAULT_MAX_DENOMINATOR",
    "RevivalCertificate",
    "certify",
    "power_deviation",
    "power_deviations",
    "revival_period",
]

TWO_PI = 2.0 * math.pi

CERTIFICATION_TOL = 1e-9
DEFAULT_MAX_DENOMINATOR = 1000

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
    where max_n is first capped at 2**24 (`_PROVABLE_DEN`), until one x fails its proof.

    `proved` marks |x - p/q| < 1/(2*q*max_n): any other r/s with s <= max_n lies at least
    1/(q*s) from p/q, so p/q is Fraction(x).limit_denominator(min(max_n, 2**24)), a convergent
    (Legendre: no semiconvergent step needed), and reduced, its float recurrence exact.

    That test proves any p/q with q <= max_n, so each x is tested as its convergent settles
    (leaves the loop).  The loop stops at the first settled x that fails: its p/q is final, so
    not every x can prove; the x still unsettled read proved=False, the rest as without a stop.
    """
    max_n = min(max_n, _PROVABLE_DEN)
    p0, q0, p, q = (np.full_like(x, v) for v in (0.0, 1.0, 1.0, 0.0))
    rest, live, proved = x, np.ones(x.shape, dtype=bool), np.zeros(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live.any():
            a = np.floor(rest)
            q_next = q0 + a * q
            live &= q_next <= max_n
            # a settled entry keeps its p/q; its p0/q0 go unused from then on
            p0, p = p, np.where(live, p0 + a * p, p)
            q0, q = q, np.where(live, q_next, q)
            live &= rest > a
            rest = 1.0 / (rest - a)
            proved = np.abs(x - p / q) < 0.5 / (q * max_n) - _PROOF_MARGIN
            if not (proved | live).all():
                break
    return p, q, proved & ~live


def power_deviations(k: int, rho, delta, n) -> np.ndarray:
    """Max-entry deviation from I of U^n[i] for the coins rho[i], delta[i] (any alpha + beta; or
    one float delta for all), in one engine pass whose memory grows with the number of coins."""
    # a list is read as Python ints, which numpy could round to floats; su2_power refuses big ones
    n = (n if isinstance(n, np.ndarray) else np.array(n, dtype=object)).reshape(-1, 1)
    rho = np.asarray(rho, dtype=float).reshape(-1, 1)
    if rho.size and not 0.0 <= rho.min() <= rho.max() <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got values in [{rho.min()}, {rho.max()}]")
    delta = np.reshape(delta, rho.shape) if np.ndim(delta) else delta  # one per coin, or raise
    return _deviation(k, rho, delta, n)


def _deviation(k: int, rho, delta, n):
    """One engine pass over weights, phases and powers of one shape, () or (batch, 1).

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
    exact: bool = True

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.exact and not self.max_deviation < CERTIFICATION_TOL:
            raise _unverified(self.k, self.N, self.max_deviation)
        j = self.numerators
        if j and not (0 <= j[0] and j[-1] < self.N and all(map(operator.lt, j, j[1:]))):
            raise ValueError(f"numerators must increase strictly within [0, N={self.N})")

    @property
    def generators(self) -> tuple[Fraction, ...]:
        """The eigenphase fractions j/N, reduced and ascending."""
        return tuple(Fraction(j, self.N) for j in self.numerators)

    @property
    def params(self) -> CoinParams:
        return CoinParams.from_delta(self.rho, self.delta % TWO_PI)


def _unverified(k: int, n: int, deviation: float) -> ValueError:
    return ValueError(f"certificate failed verification: k={k}, N={n}, deviation {deviation:.3e}")


@dataclass
class CertificateColumns:
    """Certificates of one k-cycle, delta, case tag and delta fraction, as columns with one row
    each: N, rho, max_deviation, and the ascending numerators over N in a padded matrix whose
    `distinct` mask marks the first of each run of equal entries.  N and the numerators are
    int64, or Python ints (dtype=object) where a search's int64 bound does not hold."""

    k: int
    delta: float
    N: np.ndarray
    rho: np.ndarray
    numerators: np.ndarray
    distinct: np.ndarray
    max_deviation: np.ndarray
    case_tag: str
    delta_two_pi: Fraction

    def take(self, rows) -> CertificateColumns:
        """These rows, in this order."""
        return replace(self, **{name: getattr(self, name)[rows] for name in
                                ("N", "rho", "numerators", "distinct", "max_deviation")})

    @cached_property
    def solutions(self) -> tuple[RevivalCertificate, ...]:
        """One `RevivalCertificate` per row, built on first read; exact below the tolerance."""
        rows = zip(self.N.tolist(), self.rho.tolist(), self.numerators.tolist(),
                   self.distinct.tolist(), self.max_deviation.tolist())
        return tuple(
            RevivalCertificate(self.k, n, rho, self.delta, tuple(itertools.compress(j, new)),
                               deviation, self.case_tag, self.delta_two_pi,
                               deviation < CERTIFICATION_TOL)
            for n, rho, j, new, deviation in rows
        )


def certify(k: int, delta: float, rho, n, numerators, distinct, *, delta_two_pi: Fraction,
            case_tag: str = "reconstructed", exact: bool = True) -> CertificateColumns:
    """The candidate columns (see `CertificateColumns`) measured on the k-cycle, one engine pass
    per chunk of rows in order; with `exact`, the first row to miss I by CERTIFICATION_TOL
    raises."""
    deviations, rows = np.empty(len(n)), max(1, _CHUNK_BLOCKS // k)
    for start in range(0, len(n), rows):
        part = slice(start, start + rows)
        deviations[part] = chunk = power_deviations(k, rho[part], delta, n[part])
        if exact and not chunk.max() < CERTIFICATION_TOL:
            row = start + int(np.argmin(chunk < CERTIFICATION_TOL))
            raise _unverified(k, n[row], deviations[row])
    return CertificateColumns(k, delta, n, np.asarray(rho, dtype=float), numerators, distinct,
                              deviations, case_tag, delta_two_pi)


def revival_period(
    k: int,
    params: CoinParams,
    max_n: int = DEFAULT_MAX_DENOMINATOR,
) -> RevivalCertificate | None:
    """Detect the revival period from the closed-form spectrum, the block angles of `su2_form`.

    Every eigenphase must be proved (`_proved_fractions`) as a fraction with denominator at
    most min(max_n, 2**24); the candidate period is the LCM of those denominators.  Returns
    None when any phase is unproved, the LCM exceeds min(max_n, MAX_POWER), or the powered
    operator misses I by CERTIFICATION_TOL or more.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    theta = su2_form(k, params.rho, params.alpha, params.delta)[3]
    x = block_phases(theta, params.delta) / TWO_PI % 1.0  # the 2k eigenphases, in turns
    p, q, proved = _proved_fractions(x, max_n)
    if not proved.all():
        return None
    p, q = p.astype(np.int64), q.astype(np.int64)
    n = math.lcm(*_distinct(q))
    if n > min(max_n, MAX_POWER):
        return None

    deviation = power_deviation(k, params, n)
    if not deviation < CERTIFICATION_TOL:
        return None
    j = _distinct(p % q * (n // q))
    return RevivalCertificate(k, n, params.rho, params.delta, tuple(j), deviation)


def _distinct(a) -> list[int]:
    """Distinct entries, ascending: np.unique is slower and imports numpy.ma on first call."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))].tolist()
