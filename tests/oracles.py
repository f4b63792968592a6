"""Dense reference implementations that the tests check the Fourier-block engine against.

None of this is on a production path: the dense 2k x 2k step matrix, the
kron(F_k, F_2) conjugation that block-diagonalizes it, the closed form of
each 2x2 block and the paper's scalar square-root formula for its eigenvalue
pair, the dense full-space eigenvectors of an eigenbasis, the exact
per-phase `reconstruct_fraction` with its reconstruction loop, the batched
continued-fraction proof of all 2k phases at once with the period built on it,
and the Fraction-built rho=1 generators, which `revival_period`'s running-period
proof must reproduce exactly, the per-candidate Fraction seed search that the integer scan and
batched certification must reproduce, the sort/dedupe/LCM normalisation of
Fraction generators that integer numerators over N must reproduce, and the
Fraction-set approximate solver (with its companion and degenerate-block
fraction sets) that the integer (num, den) pairs must reproduce.
The dense Fourier symbols are what the SU(2) form's first power must equal.
The row-list `simulate` emitter, with its own flat-gather cycle step and its
preallocated line-walk history, is the reference that the streamed emitter
and the walk's step tables must match bit for bit, and the certificate dict
codec that of the columnar `solve` line writer.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cyclewalk import cli
from cyclewalk.revival import (
    _PROOF_MARGIN,
    _PROVABLE_DEN,
    CERTIFICATION_TOL,
    DEFAULT_MAX_DENOMINATOR,
    RevivalCertificate,
    _distinct,
    power_deviation,
)
from cyclewalk.solver import (
    APPROX_DENOMINATOR_CAP,
    APPROX_PERIOD_CAP,
    TWO_FORM_MATCH_TOL,
    _band_intervals,
    _search_plan,
    weight,
    weight_forms,
)
from cyclewalk.special import (
    BLOCK_RESIDUAL_TOL,
    TWO_PI,
    BlockStructureError,
    EigenBasis,
    principal_phase,
)
from cyclewalk.spectral import full_spectrum
from cyclewalk.walk import MAX_POWER, CoinParams, WalkOperator, block_phases, build_coin, su2_form


def build_shift_cycle(k: int) -> np.ndarray:
    """Coin-conditioned cyclic shift: |i,0> -> |i-1 mod k, 0>, |i,1> -> |i+1 mod k, 1>."""
    if k < 2:
        raise ValueError(f"cycle length must be at least 2, got {k}")
    shift = np.zeros((2 * k, 2 * k), dtype=np.complex128)
    for i in range(k):
        shift[2 * ((i - 1) % k), 2 * i] = 1.0
        shift[2 * ((i + 1) % k) + 1, 2 * i + 1] = 1.0
    return shift


def walk_matrix(op: WalkOperator) -> np.ndarray:
    """Dense 2k x 2k step matrix: shift_cycle(k) . (I_k kron coin).  Oracle only."""
    step = build_shift_cycle(op.k) @ np.kron(np.eye(op.k), build_coin(op.params))
    step.setflags(write=False)
    return step


def fourier_symbols(k: int, params: CoinParams) -> np.ndarray:
    """The (k, 2, 2) Fourier symbols A_l = diag(w^l, w^-l) C, w = exp(2*pi*i/k), built
    densely from the coin: what `WalkOperator.power(1)` must equal."""
    w = np.exp(2j * math.pi / k * np.arange(k))
    return np.stack([w, w.conj()], axis=1)[:, :, None] * build_coin(params)


def cycle_step(k: int, coin: np.ndarray, amplitudes) -> np.ndarray:
    """One coin-then-shift step on the k-cycle as a flat gather: up comes from site i+1,
    down from i-1.  The step the streamed cycle tables must match bit for bit."""
    i = np.arange(k)
    sources = np.stack([2 * ((i + 1) % k), 2 * ((i - 1) % k) + 1], 1).reshape(-1)
    return (np.reshape(amplitudes, (k, 2)) @ coin.T).reshape(-1)[sources]


def reference_cycle_history(state, params: CoinParams, steps: int) -> list[np.ndarray]:
    """The flat amplitude vector of a cycle walk after each of 0..steps steps."""
    coin = build_coin(params)
    history = [state.amplitudes]
    for _ in range(steps):
        history.append(cycle_step(state.k, coin, history[-1]))
    return history


def fourier_matrix(m: int) -> np.ndarray:
    """Unitary Fourier matrix with entries exp(2*pi*i*j*l/m)/sqrt(m)."""
    if m < 1:
        raise ValueError(f"size must be positive, got {m}")
    idx = np.arange(m)
    return np.exp(2j * math.pi / m * np.outer(idx, idx)) / math.sqrt(m)


def walk_fourier(k: int) -> np.ndarray:
    """kron(position Fourier, coin Fourier): block-diagonalizes a k-cycle step."""
    return np.kron(fourier_matrix(k), fourier_matrix(2))


@dataclass(frozen=True)
class BlockDiagonalForm:
    """The k 2x2 diagonal blocks of F U F^dagger plus each block's eigenpairs.

    Eigenvalues are sorted by principal phase within each block;
    eigenvectors[l][:, j] belongs to eigenvalues[l, j].
    """

    k: int
    blocks: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _sorted_block_eig(block: np.ndarray):
    values, vectors = np.linalg.eig(block)
    order = np.argsort(principal_phase(values))
    return values[order], vectors[:, order]


def block_diagonalize(op: WalkOperator) -> BlockDiagonalForm:
    """Conjugate the step operator with kron(F_k, F_2) and collect the 2x2 blocks.

    Dense and O(k^3): a test oracle for the closed forms, not used in production.
    Raises BlockStructureError when the off-block residual exceeds
    BLOCK_RESIDUAL_TOL, which can only happen if the operator was built
    inconsistently with the circulant layout.
    """
    k = op.k
    f = walk_fourier(k)
    d = f @ walk_matrix(op) @ f.conj().T
    mask = np.ones(d.shape, dtype=bool)
    for l in range(k):
        mask[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] = False
    residual = float(np.max(np.abs(d[mask]))) if k > 1 else 0.0
    if residual > BLOCK_RESIDUAL_TOL:
        raise BlockStructureError(
            f"off-block residual {residual:.3e} exceeds {BLOCK_RESIDUAL_TOL:.1e}"
        )
    blocks = np.stack([d[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] for l in range(k)])
    eigenvalues = np.empty((k, 2), dtype=np.complex128)
    eigenvectors = np.empty((k, 2, 2), dtype=np.complex128)
    for l in range(k):
        eigenvalues[l], eigenvectors[l] = _sorted_block_eig(blocks[l])
    for arr in (blocks, eigenvalues, eigenvectors):
        arr.setflags(write=False)
    return BlockDiagonalForm(
        k=k, blocks=blocks, eigenvalues=eigenvalues, eigenvectors=eigenvectors
    )


def block_formula(k: int, l: int, params: CoinParams) -> np.ndarray:
    """Closed form of the l-th 2x2 diagonal block of F U F^dagger."""
    if not 0 <= l < k:
        raise ValueError(f"block index {l} out of range for k={k}")
    w = cmath.exp(-2j * math.pi * l / k)
    wc = cmath.exp(2j * math.pi * l / k)
    ea = cmath.exp(1j * params.alpha)
    eb = cmath.exp(1j * params.beta)
    ed = cmath.exp(1j * (params.alpha + params.beta))
    q = math.sqrt(1.0 - params.rho)
    r = math.sqrt(params.rho)
    return 0.5 * np.array(
        [
            [
                (w * ea + wc * eb) * q + (w - wc * ed) * r,
                (-w * ea + wc * eb) * q + (w + wc * ed) * r,
            ],
            [
                (w * ea - wc * eb) * q + (w + wc * ed) * r,
                (-w * ea - wc * eb) * q + (w - wc * ed) * r,
            ],
        ],
        dtype=np.complex128,
    )


def eigenvector_matrix(basis: EigenBasis) -> np.ndarray:
    """(2k, m) matrix of the basis's full-space eigenvectors, one per column.

    Column j is the plane wave exp(-2*pi*i*blocks[j]*x/k)/sqrt(k) over
    positions x times the coin vector coins[j], built pair by pair.
    """
    k = basis.k
    columns = []
    for block, coin in zip(basis.blocks.tolist(), basis.coins):
        wave = np.exp(-2j * np.pi * block / k * np.arange(k)) / np.sqrt(k)
        columns.append(np.outer(wave, coin).reshape(-1))
    return np.column_stack(columns)


def eigenvalues_closed_form(
    k: int, l: int, params: CoinParams
) -> tuple[complex, complex]:
    """Eigenvalue pair of block l, sorted by principal phase.

    The unordered pair is insensitive to the branch of the square root
    (flipping the root's sign swaps the two values), so the principal
    branch is used throughout; the det/trace identities pin the pair.
    """
    if not 0 <= l < k:
        raise ValueError(f"block index {l} out of range for k={k}")
    delta = params.delta
    w = cmath.exp(-2j * math.pi * l / k)
    wide = cmath.exp(1j * (4.0 * math.pi * l / k + delta))
    half_angle = 2.0 * math.pi * l / k + 0.5 * delta
    root = cmath.sqrt(wide * (1.0 - params.rho * math.sin(half_angle) ** 2))
    trace_part = (1.0 - wide) * math.sqrt(params.rho)
    pair = (0.5 * w * (trace_part + 2.0 * root), 0.5 * w * (trace_part - 2.0 * root))
    return tuple(sorted(pair, key=lambda z: cmath.phase(z) % TWO_PI))


def phase_multiset_distance(a, b) -> float:
    """Largest gap in a greedy circular matching of two unit-modulus multisets.

    Both inputs must have equal length; each element of `a` is matched to
    (and consumes) its nearest remaining element of `b`, with distance
    measured along the unit circle.
    """
    a = list(np.asarray(a, dtype=np.complex128))
    b = list(np.asarray(b, dtype=np.complex128))
    if len(a) != len(b):
        raise ValueError("multisets must have equal size")
    worst = 0.0
    for z in a:
        gaps = [abs(cmath.phase(z * w.conjugate())) for w in b]
        best = int(np.argmin(gaps))
        worst = max(worst, gaps[best])
        b.pop(best)
    return worst


def reconstruct_fraction(
    phase: float,
    max_den: int = DEFAULT_MAX_DENOMINATOR,
    tol: float = 1e-9,
) -> Fraction | None:
    """phase/(2*pi) as the reduced fraction in [0, 1) that `Fraction.limit_denominator`
    picks, or None when it lies tol or more from phase/(2*pi).

    The distance is measured before reducing mod 1, so x near 1 reads as 0/1.
    """
    x = (float(phase) / TWO_PI) % 1.0
    best = Fraction(x).limit_denominator(max_den)
    if abs(x - float(best)) >= tol:
        return None
    return best % 1


def revival_period_per_phase(k: int, params: CoinParams, max_n: int):
    """`revival_period` one phase at a time: (N, generators, deviation), or None.

    Every eigenphase goes through `reconstruct_fraction` with the denominator
    bound min(max_n, 2**24) of the batched proof; the generators are the
    sorted set of the reconstructed fractions.
    """
    fractions = []
    for value in full_spectrum(k, params):
        fraction = reconstruct_fraction(float(np.angle(value)), max_den=min(max_n, _PROVABLE_DEN))
        if fraction is None:
            return None
        fractions.append(fraction)
    n = math.lcm(*(f.denominator for f in fractions))
    if n > max_n:
        return None
    deviation = power_deviation(k, params, n)
    if not deviation < CERTIFICATION_TOL:
        return None
    return n, tuple(sorted(set(fractions))), deviation


def proved_fractions(x: np.ndarray, max_n: int):
    """Last float continued-fraction convergent p/q of each x in [0, 1] with q <= max_n,
    where max_n is first capped at 2**24 (`_PROVABLE_DEN`), until one x fails its proof:
    the batched pass, over every phase at once, that `revival._proved_fraction` runs on one.

    `proved` marks |x - p/q| < 1/(2*q*max_n), the window of `revival._proved_fraction`, so
    each x is tested as its convergent settles (leaves the loop).  The loop stops at the first
    settled x that fails: its p/q is final, so not every x can prove; the x still unsettled
    read proved=False, the rest as without a stop.
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


def revival_period_batched(k: int, params: CoinParams, max_n: int):
    """`revival_period` with every phase proved at once by `proved_fractions`: the period is
    the LCM of all 2k denominators.  (N, numerators, deviation), or None."""
    theta = su2_form(k, params.rho, params.alpha, params.delta)[3]
    x = block_phases(theta, params.delta) / TWO_PI % 1.0
    p, q, proved = proved_fractions(x, max_n)
    if not proved.all():
        return None
    p, q = p.astype(np.int64), q.astype(np.int64)
    n = math.lcm(*_distinct(q))
    if n > min(max_n, MAX_POWER):
        return None
    deviation = power_deviation(k, params, n)
    if not deviation < CERTIFICATION_TOL:
        return None
    return n, tuple(_distinct(p % q * (n // q))), deviation


def rho_one_generators(k: int, uv: Fraction) -> set[Fraction]:
    """The rho=1 eigenphases -l/k and l/k + u/v + 1/2 (mod 1), by Fraction arithmetic."""
    generators = set()
    for l in range(k):
        generators.add(Fraction(-l, k) % 1)
        generators.add((Fraction(l, k) + uv + Fraction(1, 2)) % 1)
    return generators


def _canonical(x: Fraction) -> Fraction:
    """The point of [0, 1/2] with the same cos(2*pi*x)."""
    x = x % 1
    return min(x, 1 - x)


def companion_fractions(seed: Fraction, delta_two_pi: Fraction) -> frozenset[Fraction]:
    """All x in [0, 1) with cos(4*pi*x - delta) == cos(4*pi*seed - delta): s, s + 1/2,
    d - s and d - s + 1/2 (mod 1), by Fraction arithmetic."""
    s, d, half = Fraction(seed), Fraction(delta_two_pi), Fraction(1, 2)
    return frozenset(x % 1 for x in (s, s + half, d - s, d - s + half))


def constant_block_fractions(k: int, l: int) -> frozenset[Fraction]:
    """Eigenphase fractions {-l/k, -l/k + 1/2} (mod 1) of a degenerate block."""
    base = Fraction(-l, k) % 1
    return frozenset((base, (base + Fraction(1, 2)) % 1))


def smallest_fraction_in(intervals, max_den: int) -> Fraction | None:
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


def solve_approximate_fractions(k: int, rho: float, delta, epsilon: float):
    """`solve_approximate` completing Fraction sets of companion classes, then
    `from_generators`; a float delta that is no turn u/v (v <= 1000) raises ValueError."""
    if isinstance(delta, Fraction):
        dtp = delta % 1
    else:
        dtp = reconstruct_fraction(float(delta) % TWO_PI, max_den=1000, tol=1e-12)
        if dtp is None:
            raise ValueError(f"delta={delta!r} is no rational turn")
    delta_value = TWO_PI * float(dtp)
    params = CoinParams.from_delta(rho, delta_value)
    forms, degenerate = weight_forms(k, dtp)
    fractions = {f for l in degenerate for f in constant_block_fractions(k, l)}
    for x in forms:
        form_den = 1.0 - math.cos(TWO_PI * float(x))
        intervals = _band_intervals(rho, epsilon, form_den, delta_value)
        if intervals is None:
            return None
        picked = smallest_fraction_in(intervals, APPROX_DENOMINATOR_CAP)
        if picked is None:
            return None
        fractions |= companion_fractions(picked, dtp)
    n = math.lcm(*(f.denominator for f in fractions))
    if n > APPROX_PERIOD_CAP:
        return None
    deviation = power_deviation(k, params, n)
    return from_generators(
        fractions, k=k, N=n, rho=float(rho), delta=delta_value, max_deviation=deviation,
        case_tag="approximate", delta_two_pi=dtp, exact=bool(deviation < CERTIFICATION_TOL),
    )


def reduced_fractions(max_den: int) -> list[Fraction]:
    """All reduced fractions in (0, 1) with denominator <= max_den."""
    out = []
    for q in range(2, max_den + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
    return out


def normalized_generators(generators, n: int) -> tuple[Fraction, ...]:
    """Eigenphase fractions sorted, deduplicated and checked against N one Fraction at
    a time, as certificates held them before they stored numerators over N.

    Sorted by float value with exact ties broken on the fractions, so fractions with
    equal floats keep their exact order; raises when n is not a multiple of their LCM.
    """
    keyed = sorted((f.numerator / f.denominator, f) for f in generators)
    unique = tuple(f for i, (_, f) in enumerate(keyed) if i == 0 or keyed[i - 1] != keyed[i])
    if unique:
        period = math.lcm(*(f.denominator for f in unique))
        if n % period != 0:
            raise ValueError(f"N={n} is not a multiple of the generator period {period}")
    return unique


def seeded_candidates(
    k: int,
    delta_two_pi: Fraction,
    max_den: int,
    max_n: int | None = None,
) -> tuple[str, list[tuple[float, int, set[Fraction]]]]:
    """The seed search in Fraction arithmetic: (case tag, [(rho, N, generator set)]),
    one per match in search order, candidates with N above max_n dropped."""
    dtp = Fraction(delta_two_pi)
    tag = _search_plan(k, dtp)[2]
    forms, degenerate = weight_forms(k, dtp)
    xs = tuple(forms)
    constants = {f for l in degenerate for f in constant_block_fractions(k, l)}
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
    candidates = []
    for rho, seeds in matches:
        generators = set(constants)
        for seed in seeds:
            generators |= companion_fractions(seed, dtp)
        n = math.lcm(*(f.denominator for f in generators))
        if max_n is None or n <= max_n:
            candidates.append((rho, n, generators))
    return tag, candidates


def enumerate_seeded_per_candidate(
    k: int, delta_two_pi: Fraction, max_den: int, max_n: int | None = None
) -> tuple[str, tuple[RevivalCertificate, ...]]:
    """The seed search in Fraction arithmetic, certifying one candidate at a time:
    (case tag, certificates sorted by (N, rho))."""
    dtp = Fraction(delta_two_pi)
    tag, candidates = seeded_candidates(k, dtp, max_den, max_n)
    delta = TWO_PI * float(dtp)
    certificates = []
    for rho, n, generators in candidates:
        params = CoinParams.from_delta(rho, delta)
        deviation = power_deviation(k, params, n)
        certificates.append(from_generators(
            generators, k=k, N=n, rho=float(rho), delta=delta, max_deviation=deviation,
            case_tag=tag, delta_two_pi=dtp,
        ))
    certificates.sort(key=lambda c: (c.N, c.rho))
    return tag, tuple(certificates)


def from_generators(generators, **fields) -> RevivalCertificate:
    """The certificate of these fractions in [0, 1), in any order and with repeats."""
    n, pairs = fields["N"], [f.as_integer_ratio() for f in generators]
    period = math.lcm(*(den for _, den in pairs))
    if n % period != 0:
        raise ValueError(f"N={n} is not a multiple of the generator period {period}")
    return RevivalCertificate(numerators=tuple(sorted({a * (n // b) for a, b in pairs})), **fields)


def certificate_to_json(cert: RevivalCertificate) -> dict:
    """Schema: k, N, rho{value, expr}, delta{two_pi_num, two_pi_den, radians},
    generators[{num, den}], max_deviation, case_tag."""
    delta = {"two_pi_num": None, "two_pi_den": None, "radians": cert.delta}
    if cert.delta_two_pi is not None:
        delta["two_pi_num"] = cert.delta_two_pi.numerator
        delta["two_pi_den"] = cert.delta_two_pi.denominator
    n = cert.N
    return {
        "k": cert.k,
        "N": cert.N,
        "rho": {"value": cert.rho, "expr": None},
        "delta": delta,
        "generators": [
            {"num": j // g, "den": n // g} for j in cert.numerators for g in (math.gcd(j, n),)
        ],
        "max_deviation": cert.max_deviation,
        "case_tag": cert.case_tag,
    }


def certificate_from_json(record: dict) -> RevivalCertificate:
    """Inverse of certificate_to_json."""
    delta = record["delta"]
    delta_two_pi = None
    if delta.get("two_pi_num") is not None:
        delta_two_pi = Fraction(delta["two_pi_num"], delta["two_pi_den"])
    return from_generators(
        [Fraction(g["num"], g["den"]) for g in record["generators"]],
        k=record["k"],
        N=record["N"],
        rho=record["rho"]["value"],
        delta=delta["radians"],
        max_deviation=record["max_deviation"],
        case_tag=record["case_tag"],
        delta_two_pi=delta_two_pi,
        exact=bool(record["max_deviation"] < CERTIFICATION_TOL),
    )


def reference_line_history(initial: dict, params: CoinParams, steps: int):
    """Positions and the preallocated (steps+1, window, 2) history of a line walk."""
    lo, hi = min(initial) - steps, max(initial) + steps
    amps = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
    for pos, pair in initial.items():
        amps[pos - lo] = pair
    coin_t = build_coin(params).T.copy()
    history = np.zeros((steps + 1, hi - lo + 1, 2), dtype=np.complex128)
    history[0] = amps
    for t in range(1, steps + 1):
        amps = amps @ coin_t
        shifted = np.zeros_like(amps)
        shifted[:-1, 0] = amps[1:, 0]  # up moves left
        shifted[1:, 1] = amps[:-1, 1]  # down moves right
        amps = shifted
        history[t] = amps
    return list(range(lo, hi + 1)), history


def reference_simulate(argv: list[str]) -> str:
    """Stdout of `cyclewalk simulate <argv>` from the row-list emitter: every row
    held as [step, position, coin, re, im, prob] with numpy scalars, then written
    by csv.writer or json.dumps."""
    args = cli._build_parser().parse_args(["simulate", *argv])
    params, _ = cli._coin_params(args)
    if args.line:
        initial = cli._initial_line_state(args.initial)
        positions, history = reference_line_history(initial, params, args.steps)
        history = history.reshape(args.steps + 1, -1)
    else:
        state = cli._initial_cycle_state(args.initial, args.k)
        history = reference_cycle_history(state, params, args.steps)
        positions = range(args.k)
    header = ["step", "position", "coin", "re", "im", "prob"]
    cells = [(pos, coin) for pos in positions for coin in (0, 1)]
    rows = []
    for t, amps in enumerate(history):
        for (pos, coin), amp in zip(cells, amps):
            rows.append([t, pos, coin, amp.real, amp.imag, abs(amp) ** 2])
    out = io.StringIO()
    if args.out == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]), file=out)
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return out.getvalue()
