"""Seeded op generators for the cyclewalk benchmark, with an output check per op.

A workload is an endless sequence of rounds.  A round holds a fixed list of
op templates, so every round costs about the same; only the parameters are
drawn from the seeded generator.  The program sees nothing but the argv of a
CLI op (`cyclewalk.cli.main`, stdout captured) or the arguments of a library
call made through the package, and each result is checked here against
facts that do not come from the program: published table rows, the closed
forms of the rho=0 and rho=1 families, and revival coins whose period is
known in advance.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

import cyclewalk

cli_module = importlib.import_module("cyclewalk.cli")

#: certification tolerance the README documents
TOL = 1e-9
TWO_PI = 2.0 * math.pi
SQRT2, SQRT3, SQRT5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)

K3_DELTAS = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
K4_DELTAS = (Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
K2_DELTAS = tuple(Fraction(*p) for p in ((1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5)))
TWO_FORM_DELTAS = {
    5: tuple(Fraction(t, 5) for t in range(5)),
    8: tuple(Fraction(t, 4) for t in range(4)),
    10: tuple(Fraction(t, 5) for t in range(5)),
}


def _cos_row(scale: float, den: int, num: int) -> float:
    return scale * (1.0 - math.cos(TWO_PI * num / den))


# Published (N, rho) rows by search and delta/(2*pi).  A row must be found by
# any search whose denominator bound (and period bound) is at least N, since
# every generator denominator divides N.
_K3_ZERO = ((8, 2 / 3), (10, (5 - SQRT5) / 6), (12, 1 / 3), (14, _cos_row(2 / 3, 7, 1)),
            (16, (2 - SQRT2) / 3), (20, (3 - SQRT5) / 6), (20, (3 + SQRT5) / 6),
            (24, (2 - SQRT3) / 3))
_K3_NONZERO = ((12, 1 / 3), (18, _cos_row(2 / 3, 9, 1)), (24, (2 - SQRT3) / 3),
               (24, 2 / 3), (30, (5 - SQRT5) / 6))
_K4_ZERO_PI = ((8, 0.5), (12, 0.25), (16, (2 - SQRT2) / 4), (16, (2 + SQRT2) / 4),
               (20, (3 - SQRT5) / 8), (20, (3 + SQRT5) / 8))
_K4_QUARTERS = ((12, (2 - SQRT3) / 2), (16, (2 - SQRT2) / 2))
_TWO_FORM_5 = ((60, (5 - SQRT5) / 10), (60, (5 + SQRT5) / 10))
PUBLISHED = {
    "k3": {Fraction(0): _K3_ZERO, Fraction(1, 3): _K3_NONZERO, Fraction(2, 3): _K3_NONZERO},
    "k4": {
        Fraction(0): _K4_ZERO_PI + ((6, 0.75), (10, (5 - SQRT5) / 8), (10, (5 + SQRT5) / 8)),
        Fraction(1, 2): _K4_ZERO_PI + ((12, 0.75), (20, (5 - SQRT5) / 8), (20, (5 + SQRT5) / 8)),
        Fraction(1, 4): _K4_QUARTERS,
        Fraction(3, 4): _K4_QUARTERS,
    },
    "k2": {Fraction(2, 3): ((30, 2 / 3 * (1 - math.sin(7 * math.pi / 30))),)},
    "two-form-5": {d: _TWO_FORM_5 for d in TWO_FORM_DELTAS[5]},
    "two-form-10": {d: _TWO_FORM_5 for d in TWO_FORM_DELTAS[10]},
    "two-form-8": {d: ((24, 0.5),) for d in TWO_FORM_DELTAS[8]},
}
PUBLISHED["k6"] = PUBLISHED["k3"]  # the k=3 table holds for k=6 as well


class CliRun(NamedTuple):
    code: int
    out: str


@dataclass
class Verdict:
    """What the check of one op found; counters feed the metrics."""

    ok: bool = True
    reason: str = ""
    decisions: int = 0  # revival pass/fail decisions the op made
    deviation: float = 0.0  # largest deviation among passing certifications
    rows: int = 0  # simulate rows emitted
    table_checks: int = 0
    search_certs: int = 0  # certificates from seed-scanning searches

    def fail(self, reason: str) -> "Verdict":
        if self.ok:
            self.ok, self.reason = False, reason
        return self


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    seeds: int = 0  # seeds a search scans, computed from its inputs


def cli_call(argv: list[str]) -> Callable[[], CliRun]:
    """In-process `cyclewalk <argv>` with stdout captured; the exit code is returned."""

    def call() -> CliRun:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli_module.main(argv)
            except SystemExit as exc:
                code = exc.code
        return CliRun(code, out.getvalue())

    return call


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def random_turn(rng: random.Random, max_den: int = 12) -> Fraction:
    """A reduced fraction u/v in (0, 1) with 2 <= v <= max_den."""
    v = rng.randint(2, max_den)
    u = rng.choice([u for u in range(1, v) if math.gcd(u, v) == 1])
    return Fraction(u, v)


@lru_cache(maxsize=None)
def reduced_count(max_den: int) -> int:
    """Number of reduced fractions in (0, 1) with denominator <= max_den."""
    return sum(1 for q in range(2, max_den + 1) for p in range(1, q) if math.gcd(p, q) == 1)


def edge_period(k: int, uv: Fraction, edge: int) -> int:
    """Closed-form period of the rho=0 (N=2v) and rho=1 (N=lcm(2, k, vk)) families."""
    v = uv.denominator
    return 2 * v if edge == 0 else math.lcm(2, k, v * k)


# ---------------------------------------------------------------- checks


def _json_lines(run: CliRun) -> list[dict]:
    return [json.loads(line) for line in run.out.splitlines() if line.strip()]


def _cert_fault(k: int, record: dict, exact: bool = True) -> str | None:
    n = record["N"]
    dens = [g["den"] for g in record["generators"]]
    if record["k"] != k:
        return f"certificate for k={record['k']}, expected {k}"
    if n < 1 or (dens and n % math.lcm(*dens)):
        return f"N={n} is not a positive multiple of the generator LCM"
    if exact and not record["max_deviation"] < TOL:
        return f"certificate deviation {record['max_deviation']!r}"
    return None


def _library_record(cert) -> dict:
    return {
        "k": cert.k,
        "N": cert.N,
        "rho": {"value": cert.rho},
        "generators": [{"num": g.numerator, "den": g.denominator} for g in cert.generators],
        "max_deviation": cert.max_deviation,
        "case_tag": cert.case_tag,
    }


def check_search(k: int, tag: str, rows, cover: int, max_n: int | None = None):
    """Certificates of a seed-scanning search: valid, within bounds, and
    containing every published row the bounds cover."""

    def check(records: list[dict]) -> Verdict:
        v = Verdict(decisions=len(records), search_certs=len(records))
        for record in records:
            fault = _cert_fault(k, record)
            if fault is None and record["case_tag"] != tag:
                fault = f"case tag {record['case_tag']!r}, expected {tag!r}"
            if fault is None and max_n is not None and record["N"] > max_n:
                fault = f"N={record['N']} above --max-n {max_n}"
            if fault:
                return v.fail(fault)
            v.deviation = max(v.deviation, record["max_deviation"])
        found = [(r["N"], r["rho"]["value"]) for r in records]
        limit = cover if max_n is None else min(cover, max_n)
        for n, rho in rows:
            if n <= limit and not any(m == n and abs(r - rho) < TOL for m, r in found):
                return v.fail(f"published row N={n}, rho={rho:.12g} missing")
        return v

    return check


def cli_search(k: int, tag: str, rows, cover: int, max_n: int | None = None):
    inner = check_search(k, tag, rows, cover, max_n)

    def check(run: CliRun) -> Verdict:
        if run.code != 0:
            return Verdict().fail(f"exit code {run.code}")
        return inner(_json_lines(run))

    return check


def library_search(k: int, tag: str, rows, cover: int):
    inner = check_search(k, tag, rows, cover)
    return lambda family: inner([_library_record(c) for c in family.solutions])


def check_table(table: int):
    def check(run: CliRun) -> Verdict:
        if run.code != 0:
            return Verdict().fail(f"exit code {run.code}")
        payload = json.loads(run.out)
        checks = payload["checks"]
        v = Verdict(decisions=len(checks), table_checks=len(checks))
        if payload["table"] != table or not checks or not payload["all_pass"]:
            return v.fail(f"table {table} report does not pass")
        for c in checks:
            if not (c["pass"] and c["deviation"] < TOL):
                return v.fail(f"table {table} row N={c['N']} fails")
            v.deviation = max(v.deviation, c["deviation"])
        return v

    return check


def check_verify(k: int, n: int, passes: bool):
    """Single `verify`: exit 0 and pass for a true revival, exit 1 and fail otherwise."""

    def check(run: CliRun) -> Verdict:
        v = Verdict(decisions=1)
        if run.code != (0 if passes else 1):
            return v.fail(f"exit code {run.code}, expected {0 if passes else 1}")
        payload = json.loads(run.out)
        if payload["k"] != k or payload["N"] != n:
            return v.fail("report echoes other parameters")
        if payload["pass"] is not passes or (payload["deviation"] < TOL) is not passes:
            return v.fail(f"pass={payload['pass']} at deviation {payload['deviation']!r}")
        if passes:
            v.deviation = payload["deviation"]
        return v

    return check


def check_edge(k: int, uv: Fraction, edge: int):
    def check(run: CliRun) -> Verdict:
        v = Verdict(decisions=1)
        if run.code != 0:
            return v.fail(f"exit code {run.code}")
        (record,) = _json_lines(run)
        fault = _cert_fault(k, record)
        if fault is None and record["N"] != edge_period(k, uv, edge):
            fault = f"N={record['N']}, expected {edge_period(k, uv, edge)}"
        if fault is None and record["rho"]["value"] != edge:
            fault = f"rho={record['rho']['value']}, expected {edge}"
        if fault:
            return v.fail(fault)
        v.deviation = record["max_deviation"]
        return v

    return check


def check_approx(k: int, rho: float):
    def check(run: CliRun) -> Verdict:
        v = Verdict(decisions=1)
        if run.code != 0:
            return v.fail(f"exit code {run.code}")
        (record,) = _json_lines(run)
        fault = _cert_fault(k, record, exact=False)
        if fault is None and record["case_tag"] != "approximate":
            fault = f"case tag {record['case_tag']!r}"
        if fault is None and not (record["rho"]["value"] == rho and record["N"] <= 10**6):
            fault = "approximate certificate outside its inputs or period cap"
        if fault is None and not math.isfinite(record["max_deviation"]):
            fault = "deviation is not finite"
        if fault:
            return v.fail(fault)
        if record["max_deviation"] < TOL:
            v.deviation = record["max_deviation"]
        return v

    return check


def check_period(k: int, expected: int | None, exact_period: bool):
    """`revival_period`: None for a negative control, else a certificate whose
    N equals (or divides) the known period."""

    def check(cert) -> Verdict:
        v = Verdict(decisions=1)
        if expected is None:
            return v if cert is None else v.fail(f"negative control revived at N={cert.N}")
        if cert is None:
            return v.fail(f"no revival found, expected N={expected}")
        fault = _cert_fault(k, _library_record(cert))
        if fault is None and (cert.N != expected if exact_period else expected % cert.N):
            fault = f"N={cert.N} against the known period {expected}"
        if fault:
            return v.fail(fault)
        v.deviation = cert.max_deviation
        return v

    return check


def _table_rows(run: CliRun, out: str) -> np.ndarray:
    """(rows, 6) array of step, position, coin, re, im, prob."""
    if out == "json":
        rows = json.loads(run.out)
        columns = ("step", "position", "coin", "re", "im", "prob")
        return np.stack(
            [np.fromiter(map(itemgetter(c), rows), float, len(rows)) for c in columns], axis=1
        ).reshape(-1, 6)
    header, _, body = run.out.partition("\n")
    if header != "step,position,coin,re,im,prob":
        raise ValueError(f"unexpected CSV header {header!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def check_simulate(expected_rows: int, steps: int, out: str):
    """Row count, per-row prob = |amp|^2, and total probability 1 at every step."""

    def check(run: CliRun) -> Verdict:
        v = Verdict()
        if run.code != 0:
            return v.fail(f"exit code {run.code}")
        table = _table_rows(run, out)
        v.rows = len(table)
        if table.shape != (expected_rows, 6):
            return v.fail(f"{table.shape[0]} rows, expected {expected_rows}")
        if np.max(np.abs(table[:, 3] ** 2 + table[:, 4] ** 2 - table[:, 5])) > 1e-12:
            return v.fail("prob column differs from |amplitude|^2")
        totals = np.bincount(table[:, 0].astype(int), weights=table[:, 5], minlength=steps + 1)
        if totals.shape != (steps + 1,) or np.max(np.abs(totals - 1.0)) > TOL:
            return v.fail(f"step probabilities sum to {totals.min():.12g}..{totals.max():.12g}")
        return v

    return check


def check_special(period: int):
    def check(run: CliRun) -> Verdict:
        v = Verdict(decisions=1)
        if run.code != 0:
            return v.fail(f"exit code {run.code}")
        payload = json.loads(run.out)
        fid = payload["fidelities"]
        state = np.array(payload["state"])
        if payload["period"] != period or len(fid) != period + 1:
            return v.fail("fidelity list does not span the period")
        if abs(np.sum(state**2) - 1.0) > TOL:
            return v.fail("special state is not normalized")
        if not (fid[0] > 1.0 - TOL and fid[-1] > 1.0 - TOL):
            return v.fail(f"fidelity {fid[-1]!r} at the period")
        v.deviation = 1.0 - fid[-1]
        return v

    return check


def check_returns(initial: np.ndarray):
    def check(state) -> Verdict:
        gap = float(np.max(np.abs(state.amplitudes - initial)))
        return Verdict() if gap < TOL else Verdict().fail(f"state off by {gap:.3e} at the period")

    return check


# ------------------------------------------------------------- workloads


class Deck:
    """Stratified draws from [lo, hi]: each of `bins` equal sub-ranges once per
    pass, in shuffled order, so that a run of a few passes covers the range
    evenly whatever the seed and rounds cost about the same."""

    def __init__(self, rng: random.Random, lo: int, hi: int, bins: int = 8):
        self.rng = rng
        bins = min(bins, hi - lo + 1)
        self.edges = [lo + (hi - lo + 1) * i // bins for i in range(bins + 1)]
        self.order: list[int] = []

    def draw(self) -> int:
        if not self.order:
            self.order = list(range(len(self.edges) - 1))
            self.rng.shuffle(self.order)
        b = self.order.pop()
        return self.rng.randint(self.edges[b], self.edges[b + 1] - 1)


def paper_search(rng: random.Random, tiny: bool):
    bounds = (8, 16) if tiny else (24, 96)
    decks = {name: Deck(rng, *bounds) for name in ("k3", "k4", "k2", "k6", 5, 8, 10)}
    while True:
        ops = [
            Op("verify-table", cli_call(["verify", "--table", str(t)]), check_table(t))
            for t in range(1, 6)
        ]
        for case, deltas, max_n in (("k3", K3_DELTAS, False), ("k4", K4_DELTAS, True)):
            d, den = rng.choice(deltas), decks[case].draw()
            argv = ["solve", "--case", case, "--delta-frac", frac(d), "--max-den", str(den)]
            cap = 2 * den if max_n else None
            if cap:
                argv += ["--max-n", str(cap)]
            tag = "k3_family" if case == "k3" else "k4_family"
            check = cli_search(int(case[1]), tag, PUBLISHED[case][d], den, cap)
            ops.append(Op(f"solve-{case}", cli_call(argv), check, reduced_count(den)))
        for k, deltas, tag in ((2, K2_DELTAS, "k2_seeded"), (6, K3_DELTAS, "k3_family")):
            d, den = rng.choice(deltas), decks[f"k{k}"].draw()
            rows = PUBLISHED[f"k{k}"].get(d, ())
            call = lambda k=k, d=d, den=den: cyclewalk.enumerate_seeded(k, d, den)
            check = library_search(k, tag, rows, den)
            ops.append(Op(f"enumerate-k{k}", call, check, reduced_count(den)))
        for k in (5, 8, 10):
            d, den = rng.choice(TWO_FORM_DELTAS[k]), decks[k].draw()
            argv = ["solve", "--k", str(k), "--case", "two-form", "--delta-frac", frac(d),
                    "--max-den", str(den)]
            check = cli_search(k, "two_form", PUBLISHED[f"two-form-{k}"][d], den)
            ops.append(Op("solve-two-form", cli_call(argv), check, 2 * reduced_count(den)))
        for edge in (0, 1):
            k, uv = rng.randint(2, 16), random_turn(rng)
            argv = ["solve", "--k", str(k), "--case", "rho-edge", "--rho", str(edge),
                    "--delta-frac", frac(uv)]
            ops.append(Op("solve-rho-edge", cli_call(argv), check_edge(k, uv, edge)))
        # cycles whose weight forms collapse, so a fraction set exists under the caps
        k, rho = rng.choice((2, 3, 4, 6, 8, 12)), round(rng.uniform(0.1, 0.9), 4)
        d = rng.choice((Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)))
        argv = ["solve", "--k", str(k), "--case", "approx", "--rho", repr(rho),
                "--delta-frac", frac(d), "--epsilon", "0.02"]
        ops.append(Op("solve-approx", cli_call(argv), check_approx(k, rho)))
        yield ops


def large_cycle(rng: random.Random, tiny: bool):
    # Hadamard revives on k in {2, 4, 8}; the tiny sizes avoid them
    sizes = (6, 12) if tiny else (64, 128, 256, 512)
    while True:
        ops = []
        for i, k in enumerate(sizes):
            uv = random_turn(rng)
            period = edge_period(k, uv, 0)
            n = period * rng.randint(-(-500 // period), 1000 // period)  # dense powering
            ops.append(_verify_op(k, 0, uv, n, True))
            uv = random_turn(rng)
            period = edge_period(k, uv, 1)
            n = period * (1000 // period + 1 + rng.randint(0, 1))  # eigenphase powering
            ops.append(_verify_op(k, 1, uv, n, True))
            # edges alternate with k, so every round has the same mix of op costs
            uv, edge = random_turn(rng), (i + 1) % 2
            argv = ["solve", "--k", str(k), "--case", "rho-edge", "--rho", str(edge),
                    "--delta-frac", frac(uv)]
            ops.append(Op("solve-rho-edge", cli_call(argv), check_edge(k, uv, edge)))
            uv, edge = random_turn(rng), 1 - edge
            while edge == 1 and uv.denominator % 2 == 0:
                # for odd v the least rho=1 period is lcm(k, 2v), above the
                # 1000-step switch at k=512, so the op's cost does not hang on the seed
                uv = random_turn(rng)
            params = cyclewalk.CoinParams.from_delta(float(edge), TWO_PI * float(uv))
            call = lambda k=k, params=params: cyclewalk.revival_period(k, params, max_n=10**6)
            check = check_period(k, edge_period(k, uv, edge), exact_period=edge == 0)
            ops.append(Op("revival-period", call, check))
            # negative controls: the Hadamard coin, and rho=0 at an odd multiple of v
            argv = ["verify", "--k", str(k), "--rho", "1/2", "--delta-frac", "0/1", "--n", "1000"]
            ops.append(Op("verify-fail", cli_call(argv), check_verify(k, 1000, False)))
            uv = random_turn(rng)
            m = 1000 // uv.denominator + 1  # eigenphase side
            m += 1 - m % 2 + 2 * rng.randint(0, 1)  # odd, so the period 2v does not divide n
            ops.append(_verify_op(k, 0, uv, uv.denominator * m, False))
            call = lambda k=k: cyclewalk.revival_period(k, cyclewalk.HADAMARD)
            ops.append(Op("revival-period-fail", call, check_period(k, None, True)))
        yield ops


def _verify_op(k: int, rho: int, uv: Fraction, n: int, passes: bool) -> Op:
    argv = ["verify", "--k", str(k), "--rho", str(rho), "--delta-frac", frac(uv), "--n", str(n)]
    return Op("verify" if passes else "verify-fail", cli_call(argv), check_verify(k, n, passes))


def walk_stream(rng: random.Random, tiny: bool):
    # Per round: one 300-step line walk (the largest output, which sets peak
    # memory), six simulate ops of about 50k rows each, one special state and
    # one evolve on each side of the 64-step threshold.  The fixed mix keeps
    # the median among the simulate ops and the tail among the line walks.
    special_k = Deck(rng, 4, 8 if tiny else 128)
    while True:
        ops = []
        for out in ("csv", "csv", "json", "json"):
            k = rng.choice((4, 6) if tiny else (32, 64, 128, 256))
            steps = rng.randint(10, 20) if tiny else round(25600 / k * rng.uniform(0.95, 1.05))
            argv = ["simulate", "--k", str(k), "--rho", repr(round(rng.uniform(0.05, 0.95), 6)),
                    "--delta-frac", frac(random_turn(rng)), "--steps", str(steps),
                    "--initial", rng.choice(("up0", "symmetric")), "--out", out]
            check = check_simulate((steps + 1) * 2 * k, steps, out)
            ops.append(Op(f"simulate-{out}", cli_call(argv), check))
        for out, steps in (("csv", 300), ("csv", rng.randint(100, 110)), ("json", rng.randint(100, 110))):
            steps = rng.randint(10, 20) if tiny else steps
            argv = ["simulate", "--line", "--steps", str(steps), "--initial", "up0", "--out", out]
            check = check_simulate((steps + 1) * (2 * steps + 1) * 2, steps, out)
            ops.append(Op(f"simulate-line-{out}", cli_call(argv), check))
        ops.append(_special_op(rng, special_k.draw()))
        for low, high in ((8, 64), (65, 4000)):
            ops.append(_evolve_op(rng, rng.choice((4, 6) if tiny else (32, 64, 128, 256)), low, high))
        yield ops


def _special_op(rng: random.Random, k: int) -> Op:
    """A coin that puts the eigenphase 2*pi*x on one block, so a state of
    period den(x) exists while U^den(x) != I in general."""
    while True:
        l = rng.randint(1, k - 1)
        x = random_turn(rng, 24)
        form = 1.0 - math.cos(4.0 * math.pi * l / k)
        if form > 0.05:
            rho = (1.0 - math.cos(4.0 * math.pi * float(x))) / form
            if 0.02 < rho < 0.98:
                break
    period = x.denominator
    argv = ["special", "--k", str(k), "--rho", repr(rho), "--delta-frac", "0/1",
            "--period", str(period)]
    return Op("special", cli_call(argv), check_special(period))


def _evolve_op(rng: random.Random, k: int, low: int, high: int) -> Op:
    """Library evolve of a random state under a rho=0 coin, by a multiple of its period."""
    uv = random_turn(rng, max(2, low // 2))
    period = edge_period(k, uv, 0)
    steps = period * rng.randint(-(-low // period), high // period)
    params = cyclewalk.CoinParams.from_delta(0.0, TWO_PI * float(uv))
    amps = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2 * k)])
    state = cyclewalk.WalkerState(k, amps / np.linalg.norm(amps))

    def call():
        return cyclewalk.evolve(state, cyclewalk.build_walk_operator(k, params), steps)

    return Op(f"evolve-{'short' if high <= 64 else 'long'}", call, check_returns(state.amplitudes))


ROUNDS = {"paper_search": paper_search, "large_cycle": large_cycle, "walk_stream": walk_stream}


def rounds(workload: str, seed: int, tiny: bool = False):
    """Endless rounds (lists of ops) of `workload`; the same seed gives the same ops."""
    return ROUNDS[workload](random.Random(f"{workload}/{seed}"), tiny)
