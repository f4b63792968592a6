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
denominators.  The search runs on integer numpy columns, one row per seed, class or
candidate (seed p/q at d = u/v is in the class min(t, qv - t)/(qv), t = (2pv - uq) mod qv;
each fraction a reduced (num, den) pair, each generator a numerator over N), int64 under
a stated bound and Python ints past it.  `revival.certify` measures the candidate columns
on the k-cycle alone, as `CertificateColumns` (for odd k each 2k-cycle block is +-a k-cycle
block, so U_k^N = I iff U_2k^N = I at even N, and every seeded N is even: s and s + 1/2 are
generators).  Every solver returns the certified columns: `solve_seeded`, `solve_rho_edge`
and `solve_approximate` run the same array rules on one row.  Every search works at a
rational d only: each block's eigenvalues multiply to -exp(i*delta), so at an irrational turn
no block's two are both roots of unity, and no power of U is I.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .revival import CertificateColumns, certify

__all__ = [
    "APPROX_DENOMINATOR_CAP",
    "APPROX_PERIOD_CAP",
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


def _int_type(bound: int):
    """int64 where every integer of a computation lies below `bound` <= 2**53 (so each is an
    exact float too), else Python ints (dtype=object), on which the same array code runs."""
    return np.int64 if bound <= 2**53 else object


def _weights(a, turn, form_den: float):
    """`weight` at 2*seed - d = a/turn, ints (or arrays of them) that divide as Fractions would."""
    return (1.0 - np.cos(TWO_PI * np.asarray(a / turn, dtype=float))) / form_den


def weight(seed: Fraction, delta_two_pi: Fraction, x: Fraction) -> float:
    """Coin weight rho = (1 - cos 2*pi*(2*seed - d)) / (1 - cos 2*pi*x).

    At this weight every block of the form x (see `weight_forms`) has the
    eigenvalue +-exp(2*pi*i*seed).  The result may fall outside [0, 1];
    it lies in (0, 1) iff 0 < min(y, 1 - y) < x for y = (2*seed - d) mod 1.
    """
    y = (2 * Fraction(seed) - Fraction(delta_two_pi)).as_integer_ratio()
    return float(_weights(*y, 1.0 - math.cos(TWO_PI * float(x))))


def _reduced(nums, turn):
    """nums/turn (mod 1), elementwise, as reduced (num, den) arrays."""
    nums = np.asarray(nums) % turn
    g = np.gcd(nums, turn)
    return nums // g, turn // g


def _companion_pairs(p, q, u: int, v: int):
    """(num, den) arrays, last axis 4, of the x with cos(4*pi*x - delta) == cos(4*pi*s - delta)
    for seeds s = p/q at d = u/v: s, s + 1/2, d - s, d - s + 1/2 (mod 1)."""
    turn, half, seed, delta = 2 * q * v, q * v, 2 * p * v, 2 * u * q
    nums = np.stack([seed, seed + half, delta - seed, delta - seed + half], axis=-1)
    return _reduced(nums, np.expand_dims(turn, -1))


def _degenerate_pairs(k: int, l):
    """(num, den) arrays, last axis 2, of -l/k and -l/k + 1/2 (mod 1) for degenerate blocks l."""
    l = np.asarray(l, dtype=np.int64)
    return _reduced(np.stack([-2 * l, k - 2 * l], axis=-1), 2 * k)


def _numerators(nums, dens, n):
    """Rows of (num, den) fractions as ascending numerators over the row's N (a multiple of each
    den), and the mask of the first of each run of equal numerators."""
    j = np.sort(nums * (n[:, None] // dens), axis=1)
    distinct = np.ones(j.shape, dtype=bool)
    distinct[:, 1:] = j[:, 1:] != j[:, :-1]
    return j, distinct


def _seeds(max_den: int, dtype):
    """The reduced seeds p/q in (0, 1) with q <= max_den, in scan order: q ascending, then p."""
    q = np.repeat(np.arange(2, max_den + 1), np.arange(1, max_den))
    p = np.arange(1, q.size + 1) - (q - 1) * (q - 2) // 2
    coprime = np.gcd(p, q) == 1
    return p[coprime].astype(dtype), q[coprime].astype(dtype)


def _classes(p, q, u: int, v: int):
    """(p, q, a = 2pv - uq, t) of the first seed in scan order of each companion class, the reduced
    y = min(t, qv - t)/(qv) for t = a mod qv."""
    a, turn = 2 * p * v - u * q, q * v
    t = np.minimum(a % turn, -a % turn)
    g = np.gcd(t, turn)
    num, den = t // g, turn // g
    order = np.lexsort((num, den))  # stable: scan order within each class
    first = np.ones(order.size, dtype=bool)
    first[1:] = (num[order[1:]] != num[order[:-1]]) | (den[order[1:]] != den[order[:-1]])
    return tuple(column[order[first]] for column in (p, q, a, t))


def _side(x: int, k: int, v: int, p, q, a, t):
    """(rho, p, q) of the classes with 0 < y < x/(kv), that is rho in (0, 1), in integers as
    0 < t and t*k < x*q; ascending in rho, then seed value, p and q."""
    inside = (t > 0) & (t * k < x * q)
    p, q, a = p[inside], q[inside], a[inside]
    rho = _weights(a, q * v, 1.0 - math.cos(TWO_PI * (x / (k * v))))
    order = np.lexsort((q, p, np.asarray(p / q, dtype=float), rho))
    return rho[order], p[order], q[order]


def _search_plan(k: int, dtp: Fraction):
    """(form points x over k*v, ascending; degenerate-block (nums, dens); case tag)."""
    if not 0 <= dtp < 1:
        raise ValueError(f"delta fraction must lie in [0, 1), got {dtp}")
    forms, degenerate = _form_points(k, *dtp.as_integer_ratio())
    if not 1 <= len(forms) <= 2:
        raise ValueError(
            f"k={k} at delta={dtp}*2*pi has {len(forms)} weight forms; "
            "seed searches need one or two"
        )
    constants = tuple(a.ravel() for a in _degenerate_pairs(k, degenerate))
    return tuple(forms), constants, _SINGLE_FORM_TAGS[k] if len(forms) == 1 else "two_form"


def _candidates(k: int, dtp: Fraction, xs, constants, p, q, max_n: int | None):
    """(rho, N, kept, numerators, distinct) of the candidates of the seeds p/q (scan order), one
    row per match in search order: a class per form point x, its companion pairs and the
    constants, N their LCM; numerators and distinct cover the rows kept by N <= max_n."""
    u, v = dtp.as_integer_ratio()
    classes = _classes(p, q, u, v)
    (rho, p, q), *second = [_side(x, k, v, *classes) for x in xs]
    nums, dens = _companion_pairs(p, q, u, v)
    if second:
        # each first-form class meets the second-form classes within the window, in order
        (other_rho, p2, q2), = second
        lo = np.searchsorted(other_rho, rho - TWO_FORM_MATCH_TOL, side="left")
        count = np.searchsorted(other_rho, rho + TWO_FORM_MATCH_TOL, side="right") - lo
        match = np.repeat(np.arange(rho.size), count)
        other = lo[match] + np.arange(match.size) - np.repeat(np.cumsum(count) - count, count)
        pairs = zip((nums[match], dens[match]), _companion_pairs(p2[other], q2[other], u, v))
        rho, (nums, dens) = rho[match], (np.hstack(pair) for pair in pairs)
    nums, dens = (np.hstack([a, np.broadcast_to(c, (rho.size, c.size))])
                  for a, c in zip((nums, dens), constants))
    n = np.lcm.reduce(dens, axis=1)
    kept = np.ones(n.shape, dtype=bool) if max_n is None else np.asarray(n <= max_n, dtype=bool)
    return rho, n, kept, *_numerators(nums[kept], dens[kept], n[kept])


def solve_rho_edge(k: int, uv: Fraction, edge: int) -> CertificateColumns:
    """The revival at a coin-weight edge, one certified row: rho=0 (N=2v), rho=1 (N=lcm(2, k, v*k)).

    `uv` is delta/(2*pi) as a reduced fraction u/v in [0, 1).
    """
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    uv = uv if isinstance(uv, Fraction) else Fraction(uv)
    u, v = uv.as_integer_ratio()
    dtype = _int_type(8 * k * v)
    if not 0 <= u < v:
        raise ValueError(f"delta fraction must lie in [0, 1), got {uv}")
    if edge not in (0, 1):
        raise ValueError(f"edge must be 0 or 1, got {edge}")
    if edge == 0:
        # u/(2v) and u/(2v) + 1/2 over N = 2v, ascending and distinct as they stand
        n, numerators = np.array([2 * v], dtype), (np.array([[u, u + v]], dtype),
                                                   np.array([[True, True]]))
    else:
        n = math.lcm(2, k, v * k)  # past 2**63 - 1, certify refuses it
        # l/k and l/k + u/v + 1/2 (mod 1), over N
        first = np.arange(k, dtype=dtype) * (n // k)
        j = np.concatenate([first, (first + u * (n // v) + n // 2) % n])[None]
        n = np.array([n], dtype)
        numerators = _numerators(j, n[:, None], n)
    return certify(k, TWO_PI * (u / v), np.array([float(edge)]), n, *numerators,
                   case_tag=f"rho{edge}", delta_two_pi=uv)


def solve_seeded(
    k: int, delta_two_pi: Fraction, seed: Fraction, max_n: int | None = None
) -> CertificateColumns:
    """The revival seeded by one fraction, one certified row, for a (k, delta) of one form.

    The seed's companion class and the degenerate blocks' constant
    fractions are the generators; N is the LCM of their denominators.
    Raises when the form count is not one, the weight is not in (0, 1),
    or N exceeds max_n.
    """
    seed, dtp = Fraction(seed), Fraction(delta_two_pi)
    if not 0 < seed < 1:
        raise ValueError(f"seed must lie strictly in (0, 1), got {seed}")
    xs, constants, tag = _search_plan(k, dtp)
    if len(xs) != 1:
        raise ValueError(
            f"k={k} at delta={dtp}*2*pi has two weight forms; one seed cannot fill both"
        )
    (p, q), v = seed.as_integer_ratio(), dtp.denominator
    seeds = np.array([[p], [q]], dtype=_int_type(8 * q * q * v * k))
    rho, n, kept, j, distinct = _candidates(k, dtp, xs, constants, *seeds, max_n)
    if not rho.size:
        rho = weight(seed, dtp, Fraction(xs[0], k * v))
        raise ValueError(
            f"seed {seed} with delta={dtp}*2*pi gives rho={rho!r}, outside the open interval (0, 1)"
        )
    if not kept[0]:
        raise ValueError(f"seed {seed} gives N={n[0]}, above max_n={max_n}")
    return certify(k, TWO_PI * float(dtp), rho, n, j, distinct, case_tag=tag, delta_two_pi=dtp)


def enumerate_seeded(
    k: int, delta_two_pi: Fraction, max_den: int, max_n: int | None = None
) -> CertificateColumns:
    """Every revival seeded by fractions with denominator <= max_den, as certified columns
    canonically sorted by (N, rho), for any (k, delta) with one or two weight forms.

    One form: each companion class with a weight in (0, 1) is a solution.
    Two forms: a class of each whose weights agree to TWO_FORM_MATCH_TOL.
    Candidates with N above max_n are dropped.  No rows means no solution exists at this
    denominator bound.  Every integer of the search lies below 8 * max_den**2 * v * k at
    delta = 2*pi*u/v: the columns are int64 while that bound is at most 2**53, and Python
    ints (dtype=object, the same code) past it.
    """
    dtp = Fraction(delta_two_pi)
    xs, constants, tag = _search_plan(k, dtp)
    seeds = _seeds(max_den, _int_type(8 * max_den**2 * dtp.denominator * k))
    rho, n, kept, j, distinct = _candidates(k, dtp, xs, constants, *seeds, max_n)
    columns = certify(k, TWO_PI * float(dtp), rho[kept], n[kept], j, distinct, case_tag=tag,
                      delta_two_pi=dtp)
    return columns.take(np.lexsort((columns.rho, columns.N)))  # stable on the search order


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
) -> CertificateColumns | None:
    """Best-effort near-revival for a fixed coin at a rational turn, one row.

    For each weight form the smallest-denominator fraction whose weight sits
    within epsilon of rho is selected, the generator set is completed exactly
    through companions, and N is the LCM of the denominators.  The recorded
    deviation is whatever N actually achieves and is NOT required to clear
    the certification tolerance.  A float delta is read as the turn u/v
    (v <= 1000) within 1e-12 of delta/(2*pi); any other float raises ValueError,
    and an exact turn, of any denominator, is passed as a Fraction.  Returns None
    when some form admits no fraction with denominator <= APPROX_DENOMINATOR_CAP
    or the LCM exceeds APPROX_PERIOD_CAP.
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
        # x is measured before reducing, so x near 1 reads as 0/1
        x = float(delta) % TWO_PI / TWO_PI % 1.0
        dtp = Fraction(x).limit_denominator(1000)
        if not abs(x - float(dtp)) < 1e-12:
            raise ValueError(f"delta/(2*pi) = {x!r} (mod 1) is not a turn u/v with v <= 1000 "
                             "within 1e-12; pass --delta-frac for an exact turn")
        dtp %= 1
    u, v = dtp.as_integer_ratio()
    delta_value = TWO_PI * float(dtp)

    forms, degenerate = _form_points(k, u, v)
    # reduced (num, den) arrays, of Python ints: no int64 bound holds for their LCM
    pairs = [_degenerate_pairs(k, degenerate)]
    for x in forms:
        form_den = 1.0 - math.cos(TWO_PI * (x / (k * v)))
        intervals = _band_intervals(rho, epsilon, form_den, delta_value)
        if intervals is None:
            return None
        picked = _smallest_fraction_in(intervals, APPROX_DENOMINATOR_CAP)
        if picked is None:
            return None
        pairs.append(_companion_pairs(*np.array(picked, dtype=object).reshape(2, 1), u, v))

    nums, dens = (np.concatenate([np.ravel(a) for a in side]).astype(object)[None]
                  for side in zip(*pairs))
    n = np.lcm.reduce(dens, axis=1)
    if n[0] > APPROX_PERIOD_CAP:
        return None
    return certify(k, delta_value, np.array([float(rho)]), n, *_numerators(nums, dens, n),
                   case_tag="approximate", delta_two_pi=dtp, exact=False)
