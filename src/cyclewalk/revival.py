"""Root-of-unity detection for walk spectra and revival certification.

A full revival after N steps means every eigenvalue of the step operator is
an N-th root of unity.  This module reconstructs eigenphases as reduced
fractions, combines their denominators through an LCM, and certifies
candidate periods by Fourier-block powering: every 2x2 symbol is raised to
the N-th power through its eigenphases and one inverse FFT gives the first
block column of U^N, O(k log k) for any N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import full_spectrum
from .walk import CoinParams, build_walk_operator

__all__ = [
    "CERTIFICATION_TOL",
    "DEFAULT_MAX_DENOMINATOR",
    "PHASE_RECONSTRUCTION_TOL",
    "UNDEFINED_DENOMINATOR_TOL",
    "RevivalCertificate",
    "power_deviation",
    "reconstruct_fraction",
    "revival_period",
]

TWO_PI = 2.0 * math.pi

CERTIFICATION_TOL = 1e-9
PHASE_RECONSTRUCTION_TOL = 1e-9
UNDEFINED_DENOMINATOR_TOL = 1e-12
DEFAULT_MAX_DENOMINATOR = 1000


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
) -> RevivalCertificate | None:
    """Detect the revival period from the closed-form spectrum.

    Every eigenphase must reconstruct as a fraction with denominator at most
    max_n; the candidate period is the LCM of those denominators.  Returns
    None when any phase fails reconstruction, the LCM exceeds max_n, or the
    powered operator misses the identity by CERTIFICATION_TOL or more.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    fractions = []
    for value in full_spectrum(k, params):
        fraction = reconstruct_fraction(float(np.angle(value)), max_den=max_n)
        if fraction is None:
            return None
        fractions.append(fraction)
    n = math.lcm(*(f.denominator for f in fractions))
    if n > max_n:
        return None

    deviation = power_deviation(k, params, n)
    if not deviation < CERTIFICATION_TOL:
        return None
    return RevivalCertificate(
        k=k,
        N=n,
        rho=params.rho,
        delta=params.delta,
        generators=tuple(set(fractions)),
        max_deviation=deviation,
    )
