"""Root-of-unity detection for walk spectra and revival certification.

A full revival after N steps means every eigenvalue of the step operator is
an N-th root of unity.  This module reconstructs eigenphases as reduced
fractions, combines their denominators through an LCM, and certifies
candidate periods by Fourier-block powering: every 2x2 symbol is raised to
the N-th power through its eigenphases and one inverse FFT gives the first
block column of U^N, O(k log k) for any N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .spectral import full_spectrum
from .walk import CoinParams, build_walk_operator

__all__ = [
    "CERTIFICATION_TOL",
    "DEFAULT_MAX_DENOMINATOR",
    "PHASE_RECONSTRUCTION_TOL",
    "UNDEFINED_DENOMINATOR_TOL",
    "RevivalCertificate",
    "lcm_denominators",
    "power_deviation",
    "reconstruct_fraction",
    "revival_period",
    "rho_for",
    "undefined_rho_eigenvalues",
]

TWO_PI = 2.0 * math.pi

CERTIFICATION_TOL = 1e-9
PHASE_RECONSTRUCTION_TOL = 1e-9
UNDEFINED_DENOMINATOR_TOL = 1e-12
DEFAULT_MAX_DENOMINATOR = 1000


def rho_for(k: int, l: int, mn: Fraction | float, delta: float) -> float | None:
    """Coin weight that places eigenphase 2*pi*(mn) on block l.

    Returns None when block l's weight formula is undefined at this delta
    (zero denominator within UNDEFINED_DENOMINATOR_TOL); such blocks have
    parameter-independent eigenvalues, see `undefined_rho_eigenvalues`.
    The result may fall outside [0, 1] -- callers filter.
    """
    if not 0 <= l < k:
        raise ValueError(f"block index {l} out of range for k={k}")
    den = 1.0 - math.cos(4.0 * math.pi * l / k + delta)
    if abs(den) < UNDEFINED_DENOMINATOR_TOL:
        return None
    return (1.0 - math.cos(4.0 * math.pi * float(mn) - delta)) / den


def undefined_rho_eigenvalues(k: int, l: int, delta: float) -> tuple[complex, complex]:
    """Constant eigenvalue pair of a block whose weight formula is undefined.

    Valid only when 1 - cos(4*pi*l/k + delta) vanishes; the pair is then
    {exp(-2*pi*i*l/k), -exp(-2*pi*i*l/k)} independent of the coin weight.
    """
    if not 0 <= l < k:
        raise ValueError(f"block index {l} out of range for k={k}")
    den = 1.0 - math.cos(4.0 * math.pi * l / k + delta)
    if abs(den) >= UNDEFINED_DENOMINATOR_TOL:
        raise ValueError(
            f"block {l} has a well-defined weight at delta={delta!r} "
            f"(denominator {den!r})"
        )
    base = cmath.exp(-2j * math.pi * l / k)
    return (base, -base)


def lcm_denominators(fractions: Iterable[Fraction], extra: Iterable[int] = ()) -> int:
    """LCM of the fractions' denominators together with any extra integers."""
    dens = [f.denominator for f in fractions]
    extras = [int(x) for x in extra]
    if not dens and not extras:
        raise ValueError("nothing to combine")
    if any(x < 1 for x in extras):
        raise ValueError("extra integers must be positive")
    return math.lcm(*dens, *extras)


def reconstruct_fraction(
    phase: float,
    max_den: int = DEFAULT_MAX_DENOMINATOR,
    tol: float = PHASE_RECONSTRUCTION_TOL,
) -> Fraction | None:
    """Express phase/(2*pi) as a reduced fraction in [0, 1) with bounded denominator.

    Uses the continued-fraction best approximation; returns None when no
    fraction with denominator <= max_den lies within tol of phase/(2*pi).
    Deterministic in the inputs.
    """
    if max_den < 1:
        raise ValueError(f"max_den must be positive, got {max_den}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = (float(phase) / TWO_PI) % 1.0
    best = Fraction(x).limit_denominator(max_den)
    if abs(x - float(best)) >= tol:
        return None
    return Fraction(best.numerator % best.denominator, best.denominator)


def power_deviation(k: int, params: CoinParams, n: int) -> float:
    """Max-entry deviation of U^n from the identity, in O(k log k).

    U^n - I is block circulant, so its entries are those of its first block
    column, the inverse FFT of the powered symbols minus I at offset 0.
    """
    column = np.fft.ifft(build_walk_operator(k, params).power(n), axis=0)
    column[0, 0, 0] -= 1.0
    column[0, 1, 1] -= 1.0
    return float(np.abs(column).max())


@dataclass(frozen=True)
class RevivalCertificate:
    """A verified revival: U_k^N = I within max_deviation.

    `generators` holds the eigenphase fractions whose denominators produced
    N; their LCM always divides N (equality can fail only for the rho=1
    family, whose published period is a multiple of the true one for some
    delta).  Exact certificates must verify below CERTIFICATION_TOL;
    approximate ones (exact=False) record their deviation as achieved.
    """

    k: int
    N: int
    rho: float
    delta: float
    generators: tuple[Fraction, ...]
    max_deviation: float
    case_tag: str = "reconstructed"
    delta_two_pi: Fraction | None = None
    rho_display: str | None = None
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(sorted(set(self.generators))))
        if self.N < 1:
            raise ValueError(f"N must be positive, got {self.N}")
        if self.exact and not self.max_deviation < CERTIFICATION_TOL:
            raise ValueError(
                f"certificate failed verification: k={self.k}, N={self.N}, "
                f"deviation {self.max_deviation:.3e}"
            )
        if self.generators:
            period = math.lcm(*(f.denominator for f in self.generators))
            if self.N % period != 0:
                raise ValueError(
                    f"N={self.N} is not a multiple of the generator period {period}"
                )

    @property
    def params(self) -> CoinParams:
        return CoinParams.from_delta(self.rho, self.delta % TWO_PI)


def revival_period(
    k: int,
    params: CoinParams,
    max_n: int = DEFAULT_MAX_DENOMINATOR,
    tol: float = CERTIFICATION_TOL,
) -> RevivalCertificate | None:
    """Detect the revival period from the closed-form spectrum.

    Every eigenphase must reconstruct as a fraction with denominator at most
    max_n; the candidate period is the LCM of those denominators.  Returns
    None when any phase fails reconstruction, the LCM exceeds max_n, or the
    powered operator misses the identity by tol or more.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    fractions = []
    for value in full_spectrum(k, params):
        fraction = reconstruct_fraction(float(np.angle(value)), max_den=max_n)
        if fraction is None:
            return None
        fractions.append(fraction)
    n = lcm_denominators(fractions)
    if n > max_n:
        return None

    deviation = power_deviation(k, params, n)
    if not deviation < tol:
        return None
    return RevivalCertificate(
        k=k,
        N=n,
        rho=params.rho,
        delta=params.delta,
        generators=tuple(set(fractions)),
        max_deviation=deviation,
    )
