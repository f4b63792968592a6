"""Exact and approximate revival searches, dispatched on the weight forms.

For a rational coin phase d = delta/(2*pi), block l of a k-cycle walk has
the weight-form point x_l = 2*l/k + d.  Blocks l and l' share a form iff
x_l = +-x_l' (mod 1), and block l is degenerate (its eigenvalues do not
depend on the coin weight) iff x_l is an integer; `weight_forms` groups the
blocks exactly, in `Fraction`s.  A seed fraction s puts the eigenphase
2*pi*s on every block of the form x at the weight

    rho = (1 - cos 2*pi*(2*s - d)) / (1 - cos 2*pi*x),

and every seed of its companion class (`companion_fractions`) gives the same
weight.  A full revival needs one class per form, all at one rho in (0, 1):
`enumerate_seeded` scans the classes of the seeds up to a denominator bound,
keeps every class for one form and joins the two weight lists for two, adds
the degenerate blocks' constant fractions, takes N as the LCM of all
denominators and certifies each candidate by powering the operator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .revival import (
    CERTIFICATION_TOL,
    UNDEFINED_DENOMINATOR_TOL,
    RevivalCertificate,
    power_deviation,
    reconstruct_fraction,
)
from .spectral import full_spectrum
from .walk import CoinParams

__all__ = [
    "APPROX_DENOMINATOR_CAP",
    "APPROX_PERIOD_CAP",
    "SolutionFamily",
    "companion_fractions",
    "constant_block_fractions",
    "enumerate_seeded",
    "reduced_fractions",
    "solve_approximate",
    "solve_rho_edge",
    "solve_seeded",
    "weight",
    "weight_forms",
]

TWO_PI = 2.0 * math.pi
HALF = Fraction(1, 2)

APPROX_DENOMINATOR_CAP = 10**6
APPROX_PERIOD_CAP = 10**6

#: half-width of the window in which the two forms' weights count as equal
TWO_FORM_MATCH_TOL = 1e-10

_SINGLE_FORM_TAGS = {2: "k2_seeded", 3: "k3_family", 4: "k4_family", 6: "k3_family"}
# U_k^N = I implies U_2k^N = I for odd k, and the k=10 blocks hold the k=5 ones
_ALSO_VERIFIED = {3: (6,), 5: (10,), 10: (5,)}


@dataclass(frozen=True)
class SolutionFamily:
    """Certificates grouped by cycle length, search case, and coin phase."""

    k: int
    case_tag: str
    delta_two_pi: Fraction
    solutions: tuple[RevivalCertificate, ...]

    def __post_init__(self):
        for cert in self.solutions:
            if cert.case_tag != self.case_tag or cert.k != self.k:
                raise ValueError("certificate does not belong to this family")


def _mod1(x: Fraction) -> Fraction:
    return x % 1


def _canonical(x: Fraction) -> Fraction:
    """The point of [0, 1/2] with the same cos(2*pi*x)."""
    x = x % 1
    return min(x, 1 - x)


def weight_forms(
    k: int, delta_two_pi: Fraction
) -> tuple[dict[Fraction, tuple[int, ...]], tuple[int, ...]]:
    """The weight forms of a k-cycle at delta = 2*pi*delta_two_pi, exactly.

    Returns ({x: blocks}, degenerate): each form keyed by its canonical
    point x in (0, 1/2], ascending, with the blocks l whose 2*l/k + d is
    +-x (mod 1), and the degenerate blocks, where 2*l/k + d is an integer.
    """
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    u, v = Fraction(delta_two_pi).as_integer_ratio()
    # in units of 1/(k*v): x_l = (2*l*v + u*k) / (k*v)
    turn = k * v
    forms: dict[int, list[int]] = {}
    degenerate = []
    for l in range(k):
        x = (2 * l * v + u * k) % turn
        x = min(x, turn - x)
        if x == 0:
            degenerate.append(l)
        else:
            forms.setdefault(x, []).append(l)
    return {Fraction(x, turn): tuple(forms[x]) for x in sorted(forms)}, tuple(degenerate)


def weight(seed: Fraction, delta_two_pi: Fraction, x: Fraction) -> float:
    """Coin weight rho = (1 - cos 2*pi*(2*seed - d)) / (1 - cos 2*pi*x).

    At this weight every block of the form x (see `weight_forms`) has the
    eigenvalue +-exp(2*pi*i*seed).  The result may fall outside [0, 1];
    it lies in (0, 1) iff 0 < min(y, 1 - y) < x for y = (2*seed - d) mod 1.
    """
    numerator = 1.0 - math.cos(TWO_PI * float(2 * Fraction(seed) - Fraction(delta_two_pi)))
    return numerator / (1.0 - math.cos(TWO_PI * float(x)))


def companion_fractions(seed: Fraction, delta_two_pi: Fraction) -> frozenset[Fraction]:
    """All x in [0, 1) with cos(4*pi*x - delta) == cos(4*pi*seed - delta), exactly."""
    seed = Fraction(seed)
    delta_two_pi = Fraction(delta_two_pi)
    return frozenset(
        _mod1(x)
        for x in (
            seed,
            seed + HALF,
            delta_two_pi - seed,
            delta_two_pi - seed + HALF,
        )
    )


def constant_block_fractions(k: int, l: int) -> frozenset[Fraction]:
    """Eigenphase fractions {-l/k, -l/k + 1/2} (mod 1) of a degenerate block."""
    base = _mod1(Fraction(-l, k))
    return frozenset((base, _mod1(base + HALF)))


def reduced_fractions(max_den: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= max_den."""
    out = []
    for q in range(2, max_den + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return out


def _verified(
    k: int,
    rho: float,
    delta_two_pi: Fraction,
    generators,
    n: int,
    case_tag: str,
    also_k: tuple[int, ...] = (),
) -> RevivalCertificate:
    delta = TWO_PI * float(delta_two_pi)
    params = CoinParams.from_delta(rho, delta)
    deviation = power_deviation(k, params, n)
    for other in also_k:
        deviation = max(deviation, power_deviation(other, params, n))
    return RevivalCertificate(
        k=k,
        N=n,
        rho=float(rho),
        delta=delta,
        generators=tuple(generators),
        max_deviation=deviation,
        case_tag=case_tag,
        delta_two_pi=delta_two_pi,
    )


def solve_rho_edge(k: int, uv: Fraction, edge: int) -> RevivalCertificate:
    """Revivals at the coin-weight edges: rho=0 (N=2v) and rho=1 (N=lcm(2, k, v*k)).

    `uv` is delta/(2*pi) as a reduced fraction u/v in (0, 1).
    """
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    uv = Fraction(uv)
    if not 0 < uv < 1:
        raise ValueError(f"delta fraction must lie strictly in (0, 1), got {uv}")
    if edge not in (0, 1):
        raise ValueError(f"edge must be 0 or 1, got {edge}")
    u, v = uv.as_integer_ratio()
    if edge == 0:
        n = 2 * v
        generators = {_mod1(uv / 2), _mod1(uv / 2 + HALF)}
        tag = "rho0"
    else:
        n = math.lcm(2, k, v * k)
        # -l/k and l/k + u/v + 1/2 (mod 1), the second over the denominator 2kv
        turn = 2 * k * v
        generators = [Fraction(j, k) for j in range(k)]
        generators += [Fraction((2 * v * l + 2 * u * k + k * v) % turn, turn) for l in range(k)]
        tag = "rho1"
    return _verified(k, float(edge), uv, generators, n, tag)


def _search_plan(k: int, dtp: Fraction):
    """(form points, degenerate-block fractions, case tag) of a seed search."""
    forms, degenerate = weight_forms(k, dtp)
    if not 1 <= len(forms) <= 2:
        raise ValueError(
            f"k={k} at delta={dtp}*2*pi has {len(forms)} weight forms; "
            "seed searches need one or two"
        )
    constants: set[Fraction] = set()
    for l in degenerate:
        constants |= constant_block_fractions(k, l)
    tag = _SINGLE_FORM_TAGS[k] if len(forms) == 1 else "two_form"
    return tuple(forms), constants, tag


def _certify(k, dtp, rho, seeds, constants, tag, max_n=None):
    """Complete the seeds' companion classes and certify; None above max_n."""
    generators = set(constants)
    for seed in seeds:
        generators |= companion_fractions(seed, dtp)
    n = math.lcm(*(f.denominator for f in generators))
    if max_n is not None and n > max_n:
        return None
    return _verified(k, rho, dtp, generators, n, tag, _ALSO_VERIFIED.get(k, ()))


def solve_seeded(k: int, delta_two_pi: Fraction, seed: Fraction) -> RevivalCertificate:
    """The revival seeded by one fraction, for a (k, delta) with one weight form.

    The seed's companion class and the degenerate blocks' constant
    fractions are the generators; N is the LCM of their denominators.
    Raises when the form count is not one or the weight is not in (0, 1).
    """
    seed, dtp = Fraction(seed), Fraction(delta_two_pi)
    if not 0 < seed < 1:
        raise ValueError(f"seed must lie strictly in (0, 1), got {seed}")
    xs, constants, tag = _search_plan(k, dtp)
    if len(xs) != 1:
        raise ValueError(
            f"k={k} at delta={dtp}*2*pi has two weight forms; one seed cannot fill both"
        )
    rho = weight(seed, dtp, xs[0])
    if not 0 < _canonical(2 * seed - dtp) < xs[0]:
        raise ValueError(
            f"seed {seed} with delta={dtp}*2*pi gives rho={rho!r}, "
            "outside the open interval (0, 1)"
        )
    return _certify(k, dtp, rho, (seed,), constants, tag)


def enumerate_seeded(
    k: int,
    delta_two_pi: Fraction,
    max_den: int,
    max_n: int | None = None,
) -> SolutionFamily:
    """Every revival seeded by fractions with denominator <= max_den,
    canonically sorted by (N, rho), for any (k, delta) with one or two
    weight forms.

    One form: each companion class with a weight in (0, 1) is a solution.
    Two forms: a class of each whose weights agree to TWO_FORM_MATCH_TOL.
    Candidates with N above max_n are dropped.  An empty family means no
    solution exists at this denominator bound.
    """
    dtp = Fraction(delta_two_pi)
    xs, constants, tag = _search_plan(k, dtp)
    classes: dict[Fraction, Fraction] = {}
    for seed in reduced_fractions(max_den):
        classes.setdefault(_canonical(2 * seed - dtp), seed)
    sides = [
        sorted((weight(seed, dtp, x), seed) for y, seed in classes.items() if 0 < y < x)
        for x in xs
    ]
    if len(sides) == 1:
        matches = [(rho, (seed,)) for rho, seed in sides[0]]
    else:
        first, second = sides
        second_rhos = [rho for rho, _ in second]
        matches = []
        for rho, seed in first:
            i = bisect.bisect_left(second_rhos, rho - TWO_FORM_MATCH_TOL)
            while i < len(second) and second[i][0] <= rho + TWO_FORM_MATCH_TOL:
                matches.append((rho, (seed, second[i][1])))
                i += 1
    certificates = [
        cert
        for rho, seeds in matches
        if (cert := _certify(k, dtp, rho, seeds, constants, tag, max_n)) is not None
    ]
    certificates.sort(key=lambda c: (c.N, c.rho))
    return SolutionFamily(k=k, case_tag=tag, delta_two_pi=dtp, solutions=tuple(certificates))


def _band_intervals(
    rho: float, epsilon: float, form_den: float, delta: float
) -> list[tuple[float, float]] | None:
    """x-intervals in [0, 1) where |weight(x) - rho| <= epsilon for one form.

    The weight condition is a cosine band; its preimage under
    cos(4*pi*x - delta) is up to four intervals per unit turn.
    """
    c_lo = max(-1.0, 1.0 - (rho + epsilon) * form_den)
    c_hi = min(1.0, 1.0 - (rho - epsilon) * form_den)
    if c_lo > c_hi:
        return None
    y_lo, y_hi = math.acos(c_hi), math.acos(c_lo)
    intervals = []
    for lo, hi in (
        ((y_lo + delta) / (4.0 * math.pi), (y_hi + delta) / (4.0 * math.pi)),
        ((delta - y_hi) / (4.0 * math.pi), (delta - y_lo) / (4.0 * math.pi)),
    ):
        for t in range(-3, 4):
            a, b = lo + 0.5 * t, hi + 0.5 * t
            if b < -1e-12 or a > 1.0 + 1e-12:
                continue
            intervals.append((a - 1e-15, b + 1e-15))
    return intervals


def _smallest_fraction_in(intervals, max_den: int) -> Fraction | None:
    """Smallest-denominator reduced fraction inside any interval (ties: smallest value)."""
    for q in range(1, max_den + 1):
        hits = []
        for a, b in intervals:
            for m in range(math.ceil(a * q), math.floor(b * q) + 1):
                if math.gcd(m, q) == 1:
                    hits.append(m % q)
        if hits:
            return Fraction(min(hits), q)
    return None


def solve_approximate(
    k: int,
    rho: float,
    delta: float | Fraction,
    epsilon: float,
) -> RevivalCertificate | None:
    """Best-effort near-revival for a fixed coin.

    For each weight form the smallest-denominator fraction whose weight sits
    within epsilon of rho is selected, the generator set is completed
    (exactly, through companions, when delta is a rational turn; phase by
    phase otherwise), and N is the LCM of the denominators.  The recorded
    deviation is whatever N actually achieves and is NOT required to clear
    the certification tolerance.  Returns None when some form admits no
    fraction with denominator <= APPROX_DENOMINATOR_CAP or the LCM exceeds
    APPROX_PERIOD_CAP.
    """
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly in (0, 1), got {rho}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if isinstance(delta, Fraction):
        dtp = _mod1(delta)
    else:
        # floats that are exact rational turns (e.g. 0.0) still get the
        # exact companion treatment
        dtp = reconstruct_fraction(float(delta), max_den=1000, tol=1e-12)
    delta_value = TWO_PI * float(dtp) if dtp is not None else float(delta) % TWO_PI
    params = CoinParams.from_delta(rho, delta_value)

    fractions: set[Fraction] = set()
    if dtp is not None:
        forms, degenerate = weight_forms(k, dtp)
        for l in degenerate:
            fractions |= constant_block_fractions(k, l)
        for x in forms:
            form_den = 1.0 - math.cos(TWO_PI * float(x))
            intervals = _band_intervals(rho, epsilon, form_den, delta_value)
            if intervals is None:
                return None
            picked = _smallest_fraction_in(intervals, APPROX_DENOMINATOR_CAP)
            if picked is None:
                return None
            fractions |= companion_fractions(picked, dtp)
    else:
        # irrational delta: every eigenphase needs its own fraction; row l of
        # the spectrum is block l's pair, and each value is matched on its own
        spectrum = full_spectrum(k, params).reshape(k, 2)
        for l in range(k):
            form_den = 1.0 - math.cos(4.0 * math.pi * l / k + delta_value)
            if abs(form_den) < UNDEFINED_DENOMINATOR_TOL:
                fractions |= constant_block_fractions(k, l)
                continue
            intervals = _band_intervals(rho, epsilon, form_den, delta_value)
            if intervals is None:
                return None
            for value in spectrum[l]:
                phase = (float(np.angle(value)) / TWO_PI) % 1.0
                near = [
                    (a, b)
                    for a, b in intervals
                    if a - 1e-9 <= phase <= b + 1e-9
                ]
                picked = _smallest_fraction_in(near or intervals, APPROX_DENOMINATOR_CAP)
                if picked is None:
                    return None
                fractions.add(picked)

    n = math.lcm(*(f.denominator for f in fractions))
    if n > APPROX_PERIOD_CAP:
        return None
    deviation = power_deviation(k, params, n)
    return RevivalCertificate(
        k=k,
        N=n,
        rho=float(rho),
        delta=delta_value,
        generators=tuple(fractions),
        max_deviation=deviation,
        case_tag="approximate",
        delta_two_pi=dtp,
        exact=bool(deviation < CERTIFICATION_TOL),
    )
