"""Root-of-unity detection for walk spectra and revival certification.

A full revival after N steps means every eigenvalue of the step operator, exp(i*(phi +- theta_l)),
is an N-th root of unity.  This module reads those phases off the block angles and proves them
reduced fractions against a running period N, the LCM of the denominators proved so far: a float
continued fraction proves one phase, and each time N grows one rint(N*x) pass proves the phases N
already explains.  It certifies candidate periods by Fourier-block powering: each 2x2 symbol is
raised to the N-th power and one inverse FFT gives U^N's first block column, O(k log k).
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

#: float-error allowance of the proof window: with q (or a pass's n), M <= 2**24 and
#: |x - p/q| < 1/2, p/q is correctly rounded, q*M exact, and each of the window's three
#: roundings errs by <= 1.5 * 2**-53
_PROOF_MARGIN = 1e-15

#: denominator bound of the proofs: for every q <= 2**24 the window 1/(2*q*2**24) - _PROOF_MARGIN
#: stays above 7.7e-16; no period past about 3.5e6 certifies at CERTIFICATION_TOL, so none is lost
_PROVABLE_DEN = 2**24


def _proved_fraction(x: float, max_n: int) -> tuple[int, int] | None:
    """The last float continued-fraction convergent p/q of x in [0, 1] with q <= M, where
    M = min(max_n, 2**24) (`_PROVABLE_DEN`), if it proves; else None.  It proves when
    |x - p/q| < 1/(2*q*M): any other r/s with s <= M lies at least 1/(q*s) from p/q, so p/q is
    Fraction(x).limit_denominator(M), a convergent (Legendre: no semiconvergent step needed),
    and reduced, its float recurrence exact.
    """
    max_n = min(max_n, _PROVABLE_DEN)
    p0, q0, p, q, rest = 0, 1, 1, 0, x
    # past the first step q >= 1, so a rest of max_n + 1 or more (or inf) ends the expansion
    while rest < max_n + 1:
        a = math.floor(rest)
        if q0 + a * q > max_n:
            break
        p0, q0, p, q = p, q, p0 + a * p, q0 + a * q
        if rest == a:
            break
        rest = 1.0 / (rest - a)
    return (p, q) if abs(x - p / q) < 0.5 / (q * max_n) - _PROOF_MARGIN else None


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


def revival_period(k: int, params: CoinParams,
                   max_n: int = DEFAULT_MAX_DENOMINATOR) -> RevivalCertificate | None:
    """Detect the revival period from the closed-form spectrum, the block angles of `su2_form`.

    Each eigenphase must be proved a fraction with denominator at most M = min(max_n, 2**24),
    and the period n is the LCM of the denominators, grown as they are proved: the first
    unproved phase by `_proved_fraction`, and, each time that grows n to at most M, every
    unproved x with |x - rint(n*x)/n| < 1/(2*n*M), inside the window of that fraction reduced.
    None when a phase fails its proof, n passes min(max_n, MAX_POWER) or U^n misses I by 1e-9.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    theta = su2_form(k, params.rho, params.alpha, params.delta)[3]
    y = block_phases(theta, params.delta).ravel() / TWO_PI  # the 2k eigenphases, in turns
    x = y - np.floor(y)  # y % 1.0 to the bit, without numpy's slower float remainder
    bound, n = min(max_n, _PROVABLE_DEN), 1
    # phase i is num[i]/den[i], den[i] dividing n: its proved p/q, or rint(n*x)/n
    num, den, todo = np.zeros(x.size, int), np.ones(x.size, int), np.arange(x.size)
    while todo.size:
        i, todo = todo[0], todo[1:]
        fraction = _proved_fraction(float(x[i]), bound)
        if fraction is None or (grown := math.lcm(n, fraction[1])) > min(max_n, MAX_POWER):
            return None
        num[i], den[i] = fraction
        if n < grown <= bound:
            # near/grown is some p/q with q | grown <= M, so its window holds this narrower one
            near = np.rint(grown * (part := x[todo]))
            ok = np.abs(part - near / grown) < 0.5 / (grown * bound) - _PROOF_MARGIN
            num[todo[ok]], den[todo[ok]] = near[ok], grown
            todo = todo[~ok]
        n = grown

    deviation = power_deviation(k, params, n)
    if not deviation < CERTIFICATION_TOL:
        return None
    j = _distinct(num % den * (n // den))
    return RevivalCertificate(k, n, params.rho, params.delta, tuple(j), deviation)


def _distinct(a) -> list[int]:
    """Distinct entries, ascending: np.unique is slower and imports numpy.ma on first call."""
    a = np.sort(a, axis=None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))].tolist()
