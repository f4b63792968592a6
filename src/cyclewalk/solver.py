"""Exact and approximate revival searches, dispatched on the weight forms.

For a rational coin phase d = delta/(2*pi), block l of a k-cycle walk has
the weight-form point x_l = 2*l/k + d.  Blocks l and l' share a form iff
x_l = +-x_l' (mod 1), and block l is degenerate (its eigenvalues do not
depend on the coin weight) iff x_l is an integer; `weight_forms` groups the
blocks exactly, in `Fraction`s.  A seed fraction s puts the eigenphase
2*pi*s on every block of the form x at the weight

    rho = (1 - cos 2*pi*(2*s - d)) / (1 - cos 2*pi*x),

and every seed of its companion class (s, s + 1/2, d - s, d - s + 1/2) gives
the same weight.  A full revival needs one class per form, all at one rho in
(0, 1): `enumerate_seeded` scans the classes of the seeds up to a denominator
bound, keeps every class for one form and joins the two weight lists for two,
adds the degenerate blocks' constant fractions and takes N as the LCM of all
denominators, all in integers (seed p/q at d = u/v is in the class
min(t, qv - t)/(qv), t = (2pv - uq) mod qv; each fraction a reduced
(num, den) pair, each generator a numerator over N).  Candidates are built lazily;
`revival.certify` measures them on the k-cycle alone (for odd k each 2k-cycle block
is +-a k-cycle block, so U_k^N = I iff U_2k^N = I at even N, and every seeded N is
even: s and s + 1/2 are generators).  `solve_approximate` uses the same integer rules.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .revival import (
    CERTIFICATION_TOL,
    MAX_POWER,
    UNDEFINED_DENOMINATOR_TOL,
    RevivalCertificate,
    certify,
    power_deviation,
)
from .spectral import full_spectrum
from .walk import CoinParams

__all__ = [
    "APPROX_DENOMINATOR_CAP",
    "APPROX_PERIOD_CAP",
    "SolutionFamily",
    "enumerate_seeded",
    "solve_approximate",
    "solve_rho_edge",
    "solve_seeded",
    "weight",
    "weight_forms",
]

TWO_PI = 2.0 * math.pi

APPROX_DENOMINATOR_CAP = 10**6
APPROX_PERIOD_CAP = 10**6

#: half-width of the window in which the two forms' weights count as equal
TWO_FORM_MATCH_TOL = 1e-10

_SINGLE_FORM_TAGS = {2: "k2_seeded", 3: "k3_family", 4: "k4_family", 6: "k3_family"}


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


def weight_forms(
    k: int, delta_two_pi: Fraction
) -> tuple[dict[Fraction, tuple[int, ...]], tuple[int, ...]]:
    """The weight forms of a k-cycle at delta = 2*pi*delta_two_pi, exactly.

    Returns ({x: blocks}, degenerate): each form keyed by its canonical
    point x in (0, 1/2], ascending, with the blocks l whose 2*l/k + d is
    +-x (mod 1), and the degenerate blocks, where 2*l/k + d is an integer.
    """
    u, v = Fraction(delta_two_pi).as_integer_ratio()
    forms, degenerate = _form_points(k, u, v)
    return {Fraction(x, k * v): blocks for x, blocks in forms.items()}, degenerate


def _form_points(k: int, u: int, v: int) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...]]:
    """`weight_forms` at d = u/v in integers: each point x stands for x/(k*v)."""
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    # x_l = (2*l*v + u*k) / (k*v)
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
    return {x: tuple(forms[x]) for x in sorted(forms)}, tuple(degenerate)


def _weight(num: int, den: int, form_den: float) -> float:
    """`weight` at 2*seed - d = num/den (int division rounds as float(Fraction) does)."""
    return (1.0 - math.cos(TWO_PI * (num / den))) / form_den


def weight(seed: Fraction, delta_two_pi: Fraction, x: Fraction) -> float:
    """Coin weight rho = (1 - cos 2*pi*(2*seed - d)) / (1 - cos 2*pi*x).

    At this weight every block of the form x (see `weight_forms`) has the
    eigenvalue +-exp(2*pi*i*seed).  The result may fall outside [0, 1];
    it lies in (0, 1) iff 0 < min(y, 1 - y) < x for y = (2*seed - d) mod 1.
    """
    y = (2 * Fraction(seed) - Fraction(delta_two_pi)).as_integer_ratio()
    return _weight(*y, 1.0 - math.cos(TWO_PI * float(x)))


def _reduced(nums, turn: int) -> list[tuple[int, int]]:
    """num/turn (mod 1) for each num, as reduced (num, den) pairs."""
    return [(num % turn // g, turn // g) for num in nums for g in (math.gcd(num, turn),)]


def _companion_pairs(p: int, q: int, u: int, v: int) -> list[tuple[int, int]]:
    """The x with cos(4*pi*x - delta) == cos(4*pi*s - delta) for s = p/q, d = u/v:
    s, s + 1/2, d - s, d - s + 1/2 (mod 1)."""
    turn, half, seed, delta = 2 * q * v, q * v, 2 * p * v, 2 * u * q
    return _reduced((seed, seed + half, delta - seed, delta - seed + half), turn)


def _degenerate_pairs(k: int, l: int) -> list[tuple[int, int]]:
    """Eigenphase fractions -l/k and -l/k + 1/2 (mod 1) of a degenerate block."""
    return _reduced((-2 * l, k - 2 * l), 2 * k)


def _period(pairs, max_n: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """(N, numerators over N) of reduced (num, den) pairs, N their LCM; None above max_n."""
    n = math.lcm(*(den for _, den in pairs))
    if max_n is not None and n > max_n:
        return None
    return n, tuple(sorted({num * (n // den) for num, den in pairs}))


def _sides(xs, seeds, u: int, v: int) -> list[list[tuple[float, float, int, int]]]:
    """Per form point x, (rho, seed value, p, q) of the first seed of each companion class
    y = min(t, 1 - t), t = 2*p/q - u/v (mod 1), with 0 < y < x (rho in (0, 1)), ascending
    in rho, then seed; y and x are compared in integers as (num, den) pairs."""
    classes: dict[tuple[int, int], tuple[int, int]] = {}
    for p, q in seeds:
        turn = q * v
        t = min((2 * p * v - u * q) % turn, (u * q - 2 * p * v) % turn)
        g = math.gcd(t, turn)
        classes.setdefault((t // g, turn // g), (p, q))
    sides = []
    for x in xs:
        form_den = 1.0 - math.cos(TWO_PI * (x[0] / x[1]))
        sides.append(sorted(
            (_weight(2 * p * v - u * q, q * v, form_den), p / q, p, q)
            for (num, den), (p, q) in classes.items() if 0 < num and num * x[1] < x[0] * den
        ))
    return sides


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
        # u/(2v) and u/(2v) + 1/2
        n, numerators, tag = 2 * v, (u, u + v), "rho0"
    else:
        n = math.lcm(2, k, v * k)
        if n > MAX_POWER:  # as certify would, before the numerators overflow int64
            raise ValueError(f"N={n} exceeds 2**63 - 1, the largest power the engine takes")
        # -l/k and l/k + u/v + 1/2 (mod 1), over n
        first = np.arange(k) * (n // k)
        second = (first + u * (n // v) + n // 2) % n
        numerators, tag = tuple(np.unique([first, second]).tolist()), "rho1"
    return certify(k, TWO_PI * float(uv), [(float(edge), n, numerators)],
                   case_tag=tag, delta_two_pi=uv)[0]


def _search_plan(k: int, dtp: Fraction):
    """(form points x as (num, den), degenerate-block (num, den) pairs, case tag) of a seed search."""
    if not 0 <= dtp < 1:
        raise ValueError(f"delta fraction must lie in [0, 1), got {dtp}")
    u, v = dtp.as_integer_ratio()
    forms, degenerate = _form_points(k, u, v)
    if not 1 <= len(forms) <= 2:
        raise ValueError(
            f"k={k} at delta={dtp}*2*pi has {len(forms)} weight forms; "
            "seed searches need one or two"
        )
    constants = {pair for l in degenerate for pair in _degenerate_pairs(k, l)}
    tag = _SINGLE_FORM_TAGS[k] if len(forms) == 1 else "two_form"
    return tuple((x, k * v) for x in forms), tuple(constants), tag


def _candidates(dtp, constants, matches, max_n=None):
    """Lazily, (rho, N, numerators over N) per (rho, seeds (p, q)) match; N an LCM <= max_n."""
    u, v = dtp.as_integer_ratio()
    for rho, seeds in matches:
        pairs = [*constants, *(pair for p, q in seeds for pair in _companion_pairs(p, q, u, v))]
        if period := _period(pairs, max_n):
            yield rho, *period


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
    (p, q), (u, v) = seed.as_integer_ratio(), dtp.as_integer_ratio()
    (side,) = _sides(xs, [(p, q)], u, v)
    if not side:
        raise ValueError(
            f"seed {seed} with delta={dtp}*2*pi gives rho={weight(seed, dtp, Fraction(*xs[0]))!r}, "
            "outside the open interval (0, 1)"
        )
    candidates = _candidates(dtp, constants, [(side[0][0], ((p, q),))])
    return certify(k, TWO_PI * float(dtp), candidates, case_tag=tag, delta_two_pi=dtp)[0]


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
    u, v = dtp.as_integer_ratio()
    seeds = ((p, q) for q in range(2, max_den + 1) for p in range(1, q) if math.gcd(p, q) == 1)
    sides = _sides(xs, seeds, u, v)
    if len(sides) == 1:
        matches = ((rho, ((p, q),)) for rho, _, p, q in sides[0])
    else:
        first, second = sides
        second_rhos = [rho for rho, *_ in second]
        matches = []
        for rho, _, p, q in first:
            i = bisect.bisect_left(second_rhos, rho - TWO_FORM_MATCH_TOL)
            while i < len(second) and second[i][0] <= rho + TWO_FORM_MATCH_TOL:
                matches.append((rho, ((p, q), second[i][2:])))
                i += 1
    candidates = _candidates(dtp, constants, matches, max_n)
    certificates = certify(k, TWO_PI * float(dtp), candidates, case_tag=tag, delta_two_pi=dtp)
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


def _smallest_fraction_in(intervals, max_den: int) -> tuple[int, int] | None:
    """Smallest-denominator reduced fraction (m, q) inside any interval (ties: smallest value)."""
    for q in range(1, max_den + 1):
        hits = []
        for a, b in intervals:
            for m in range(math.ceil(a * q), math.floor(b * q) + 1):
                if math.gcd(m, q) == 1:
                    hits.append(m % q)
        if hits:
            return min(hits), q
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
        dtp = delta % 1
    else:
        # floats within 1e-12 of a turn u/v with v <= 1000 (e.g. 0.0) get the exact
        # companion treatment; x is measured before reducing, so x near 1 reads as 0/1
        x = float(delta) % TWO_PI / TWO_PI % 1.0
        dtp = Fraction(x).limit_denominator(1000)
        dtp = dtp % 1 if abs(x - float(dtp)) < 1e-12 else None
    delta_value = TWO_PI * float(dtp) if dtp is not None else float(delta) % TWO_PI
    params = CoinParams.from_delta(rho, delta_value)

    pairs: set[tuple[int, int]] = set()  # reduced (num, den) fractions
    if dtp is not None:
        u, v = dtp.as_integer_ratio()
        forms, degenerate = _form_points(k, u, v)
        pairs.update(pair for l in degenerate for pair in _degenerate_pairs(k, l))
        for x in forms:
            form_den = 1.0 - math.cos(TWO_PI * (x / (k * v)))
            intervals = _band_intervals(rho, epsilon, form_den, delta_value)
            if intervals is None:
                return None
            picked = _smallest_fraction_in(intervals, APPROX_DENOMINATOR_CAP)
            if picked is None:
                return None
            pairs.update(_companion_pairs(*picked, u, v))
    else:
        # irrational delta: every eigenphase needs its own fraction; row l of
        # the spectrum is block l's pair, and each value is matched on its own
        spectrum = full_spectrum(k, params).reshape(k, 2)
        for l in range(k):
            form_den = 1.0 - math.cos(4.0 * math.pi * l / k + delta_value)
            if abs(form_den) < UNDEFINED_DENOMINATOR_TOL:
                pairs.update(_degenerate_pairs(k, l))
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
                pairs.add(picked)

    if (period := _period(pairs, APPROX_PERIOD_CAP)) is None:
        return None
    n, numerators = period
    deviation = power_deviation(k, params, n)
    return RevivalCertificate(
        k=k, N=n, rho=float(rho), delta=delta_value, numerators=numerators,
        max_deviation=deviation, case_tag="approximate", delta_two_pi=dtp,
        exact=bool(deviation < CERTIFICATION_TOL),
    )
