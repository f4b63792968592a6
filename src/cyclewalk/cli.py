"""Command-line interface: simulate walks, verify revival tables, run the
solvers, and construct special revival states.

Exit codes are stable: 0 on success, 1 for a verification or construction
failure, 2 for usage errors.  Solution streams are JSON lines; amplitude
tables are CSV (columns step, position, coin, re, im, prob) or JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .exprs import ExpressionError, parse_fraction, parse_value
from .revival import CERTIFICATION_TOL, RevivalCertificate, power_deviation
from .solver import (
    TWO_FORM_DELTAS,
    enumerate_seeded,
    solve_approximate,
    solve_k2,
    solve_k3,
    solve_k4,
    solve_rho_edge,
    solve_two_form,
)
from .special import build_special_state, demoivre_subspace, eigenbasis
from .tables import verify_table
from .walk import CoinParams, WalkerState, build_walk_operator, evolve, line_walk

__all__ = ["certificate_from_json", "certificate_to_json", "main"]

TWO_PI = 2.0 * math.pi


class CliError(Exception):
    """Carries the exit code for a handled command failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def certificate_to_json(cert: RevivalCertificate) -> dict:
    """Schema: k, N, rho{value, expr}, delta{two_pi_num, two_pi_den, radians},
    generators[{num, den}], max_deviation, case_tag."""
    delta = {"two_pi_num": None, "two_pi_den": None, "radians": cert.delta}
    if cert.delta_two_pi is not None:
        delta["two_pi_num"] = cert.delta_two_pi.numerator
        delta["two_pi_den"] = cert.delta_two_pi.denominator
    return {
        "k": cert.k,
        "N": cert.N,
        "rho": {"value": cert.rho, "expr": cert.rho_display},
        "delta": delta,
        "generators": [
            {"num": f.numerator, "den": f.denominator} for f in cert.generators
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
    return RevivalCertificate(
        k=record["k"],
        N=record["N"],
        rho=record["rho"]["value"],
        delta=delta["radians"],
        generators=tuple(Fraction(g["num"], g["den"]) for g in record["generators"]),
        max_deviation=record["max_deviation"],
        case_tag=record["case_tag"],
        delta_two_pi=delta_two_pi,
        rho_display=record["rho"].get("expr"),
        exact=bool(record["max_deviation"] < CERTIFICATION_TOL),
    )


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CliError(2, message)


def _coin_params(args) -> tuple[CoinParams, Fraction | None]:
    """The coin, and delta/(2*pi) when it came from --delta-frac."""
    rho = parse_value(args.rho) if args.rho is not None else 0.5
    dtp, beta = None, 0.0
    if args.delta_frac is not None:
        dtp = parse_fraction(args.delta_frac)
        _require(0 <= dtp < 1, f"--delta-frac must lie in [0, 1), got {dtp}")
        alpha = TWO_PI * float(dtp)
    else:
        alpha = parse_value(args.alpha) if args.alpha is not None else 0.0
        beta = parse_value(args.beta) if args.beta is not None else 0.0
    try:
        return CoinParams(rho, alpha, beta), dtp
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _initial_cycle_state(label: str, k: int) -> WalkerState:
    if label == "up0":
        return WalkerState.basis_state(k, 0, 0)
    if label == "symmetric":
        amps = np.zeros(2 * k, dtype=np.complex128)
        amps[0] = 1.0 / math.sqrt(2.0)
        amps[1] = 1j / math.sqrt(2.0)
        return WalkerState(k, amps)
    values = _parse_complex_list(label)
    if len(values) != 2 * k:
        raise CliError(2, f"explicit state needs {2 * k} amplitudes, got {len(values)}")
    try:
        return WalkerState(k, np.array(values))
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc


def _initial_line_state(label: str) -> dict:
    if label == "up0":
        return {0: (1.0, 0.0)}
    if label == "symmetric":
        return {0: (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))}
    values = _parse_complex_list(label)
    if len(values) != 2:
        raise CliError(2, "explicit line state is the origin pair: up,down")
    return {0: tuple(values)}


def _parse_complex_list(text: str) -> list[complex]:
    try:
        return [complex(part.strip().replace("i", "j")) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(2, f"cannot parse amplitude list {text!r}: {exc}") from exc


def _emit_rows(rows, header, args) -> None:
    if args.out == "json":
        print(json.dumps(rows_to_json(rows, header), indent=None))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def rows_to_json(rows, header):
    return [dict(zip(header, row)) for row in rows]


def cmd_simulate(args) -> int:
    _require(args.steps >= 0, f"--steps must be nonnegative, got {args.steps}")
    params, _ = _coin_params(args)
    header = ["step", "position", "coin", "re", "im", "prob"]
    rows = []
    if args.line:
        result = line_walk(_initial_line_state(args.initial), params, args.steps)
        for t in range(args.steps + 1):
            table = result.history[t]
            for i, pos in enumerate(result.positions):
                for coin in (0, 1):
                    amp = table[i, coin]
                    rows.append(
                        [t, int(pos), coin, amp.real, amp.imag, abs(amp) ** 2]
                    )
        _emit_rows(rows, header, args)
        return 0
    if args.k is None:
        raise CliError(2, "--k is required unless --line is given")
    state = _initial_cycle_state(args.initial, args.k)
    op = build_walk_operator(args.k, params)
    amps = state.amplitudes
    for t in range(args.steps + 1):
        for i in range(args.k):
            for coin in (0, 1):
                amp = amps[2 * i + coin]
                rows.append([t, i, coin, amp.real, amp.imag, abs(amp) ** 2])
        amps = op.step(amps)
    _emit_rows(rows, header, args)
    return 0


def cmd_verify(args) -> int:
    if args.table is not None:
        report = verify_table(args.table, tol=args.tol)
        payload = {
            "table": report.table,
            "tolerance": report.tolerance,
            "all_pass": report.all_pass,
            "checks": [
                {
                    "k": c.k,
                    "N": c.n,
                    "rho": c.rho,
                    "rho_display": c.rho_display,
                    "delta_two_pi": str(c.delta_two_pi),
                    "deviation": c.deviation,
                    "pass": c.passed,
                }
                for c in report.checks
            ],
        }
        print(json.dumps(payload))
        return 0 if report.all_pass else 1
    if args.k is None or args.rho is None or args.delta_frac is None or args.n is None:
        raise CliError(2, "single checks need --k, --rho, --delta-frac and --n")
    _require(args.n >= 1, f"--n must be at least 1 (U^0 = I certifies nothing), got {args.n}")
    params, dtp = _coin_params(args)
    deviation = power_deviation(args.k, params, args.n)
    passed = bool(deviation < args.tol)
    print(
        json.dumps(
            {
                "k": args.k,
                "N": args.n,
                "rho": params.rho,
                "delta_two_pi": str(dtp),
                "deviation": deviation,
                "tolerance": args.tol,
                "pass": passed,
            }
        )
    )
    return 0 if passed else 1


def _solve_certificates(args) -> list[RevivalCertificate]:
    case = args.case
    dtp = parse_fraction(args.delta_frac) if args.delta_frac is not None else None
    seed = parse_fraction(args.seed) if args.seed is not None else None
    if case == "rho-edge":
        if args.k is None or dtp is None or args.rho is None:
            raise CliError(2, "rho-edge needs --k, --delta-frac and --rho 0|1")
        edge = parse_value(args.rho)
        if edge not in (0.0, 1.0):
            raise CliError(2, "rho-edge requires --rho 0 or --rho 1")
        return [solve_rho_edge(args.k, dtp, int(edge))]
    if case == "k2":
        if seed is None or dtp is None:
            raise CliError(2, "k2 needs --seed and --delta-frac")
        return [solve_k2(seed, dtp)]
    if case in ("k3", "k4"):
        if dtp is None:
            raise CliError(2, f"{case} needs --delta-frac")
        if seed is not None:
            solver = solve_k3 if case == "k3" else solve_k4
            return [solver(dtp, seed)]
        k = 3 if case == "k3" else 4
        family = enumerate_seeded(k, dtp, args.max_den, args.max_n)
        return list(family.solutions)
    if case == "two-form":
        if args.k not in TWO_FORM_DELTAS or dtp is None:
            raise CliError(2, "two-form needs --k in {5, 8, 10} and --delta-frac")
        return solve_two_form(args.k, dtp, args.max_den)
    if case == "approx":
        if args.k is None or args.rho is None or args.epsilon is None:
            raise CliError(2, "approx needs --k, --rho and --epsilon")
        if dtp is not None:
            delta = TWO_PI * float(dtp)
        elif args.delta_rad is not None:
            delta = args.delta_rad
        else:
            raise CliError(2, "approx needs --delta-frac or --delta-rad")
        cert = solve_approximate(args.k, parse_value(args.rho), delta, args.epsilon)
        if cert is None:
            raise CliError(
                1, "no fraction set within epsilon at the denominator/period caps"
            )
        return [cert]
    raise CliError(2, f"unknown case {case!r}")


def cmd_solve(args) -> int:
    _require(args.max_den >= 1, f"--max-den must be positive, got {args.max_den}")
    _require(args.max_n is None or args.max_n >= 1, f"--max-n must be positive, got {args.max_n}")
    try:
        certificates = _solve_certificates(args)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    certificates.sort(key=lambda c: (c.N, c.rho, c.delta))
    for cert in certificates:
        print(json.dumps(certificate_to_json(cert)))
    return 0


def cmd_special(args) -> int:
    _require(args.period >= 1, f"--period must be positive, got {args.period}")
    params, dtp = _coin_params(args)
    basis = eigenbasis(args.k, params)
    subspace = demoivre_subspace(basis, args.period, tol=args.tol)
    if subspace is None:
        raise CliError(
            1,
            f"no eigenvalues of the k={args.k} walk are {args.period}-th roots of unity",
        )
    if all(abs(p.value - 1.0) < args.tol for p in subspace.pairs):
        raise CliError(
            1,
            "only stationary eigenvectors (eigenvalue 1) satisfy this period; "
            "no genuinely periodic state exists",
        )
    if args.coeffs is not None:
        coefficients = _parse_complex_list(args.coeffs)
        if len(coefficients) != len(subspace.pairs):
            raise CliError(
                2,
                f"--coeffs needs {len(subspace.pairs)} entries for this subspace, "
                f"got {len(coefficients)}",
            )
    else:
        coefficients = [1.0] * len(subspace.pairs)
    try:
        state = build_special_state(subspace, coefficients)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc

    op = build_walk_operator(args.k, params)
    fidelities = [
        float(abs(np.vdot(state.amplitudes, evolve(state, op, t).amplitudes)))
        for t in range(args.period + 1)
    ]
    payload = {
        "k": args.k,
        "rho": params.rho,
        "delta_two_pi": str(dtp),
        "period": args.period,
        "subspace_blocks": [p.block for p in subspace.pairs],
        "subspace_eigenvalues": [[p.value.real, p.value.imag] for p in subspace.pairs],
        "state": [[a.real, a.imag] for a in state.amplitudes],
        "fidelities": fidelities,
    }
    print(json.dumps(payload))
    return 0 if fidelities[-1] > 1.0 - 1e-9 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclewalk",
        description="Discrete-time quantum walks on cycles and their exact revivals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="step-by-step amplitude/probability table")
    sim.add_argument("--k", type=int, help="cycle length (omit with --line)")
    sim.add_argument("--line", action="store_true", help="walk on the line instead")
    sim.add_argument("--rho", help="coin weight (expression, default 1/2)")
    sim.add_argument("--alpha", help="coin phase alpha in radians (expression)")
    sim.add_argument("--beta", help="coin phase beta in radians (expression)")
    sim.add_argument("--delta-frac", help="delta as a fraction of 2*pi, e.g. 2/3")
    sim.add_argument("--steps", type=int, default=0)
    sim.add_argument(
        "--initial",
        default="up0",
        help='"up0", "symmetric", or a comma-separated amplitude list',
    )
    sim.add_argument("--out", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="check published tables or a single revival")
    ver.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5))
    ver.add_argument("--k", type=int)
    ver.add_argument("--rho")
    ver.add_argument("--delta-frac")
    ver.add_argument("--n", type=int)
    ver.add_argument("--tol", type=float, default=CERTIFICATION_TOL)
    ver.set_defaults(func=cmd_verify)

    sol = sub.add_parser("solve", help="emit verified solution records as JSON lines")
    sol.add_argument("--k", type=int)
    sol.add_argument(
        "--case",
        required=True,
        choices=("rho-edge", "k2", "k3", "k4", "two-form", "approx"),
    )
    sol.add_argument("--seed", help="seed fraction m/n")
    sol.add_argument("--delta-frac", help="delta as a fraction of 2*pi")
    sol.add_argument("--delta-rad", type=float, help="delta in radians (approx only)")
    sol.add_argument("--rho", help="coin weight (rho-edge: 0|1, approx: target)")
    sol.add_argument("--max-den", type=int, default=24)
    sol.add_argument("--max-n", type=int)
    sol.add_argument("--epsilon", type=float)
    sol.set_defaults(func=cmd_solve)

    spe = sub.add_parser("special", help="construct a state reviving without U^N = I")
    spe.add_argument("--k", type=int, required=True)
    spe.add_argument("--rho", required=True)
    spe.add_argument("--delta-frac", required=True)
    spe.add_argument("--period", type=int, required=True)
    spe.add_argument("--coeffs", help="comma-separated complex coefficients")
    spe.add_argument("--tol", type=float, default=1e-9)
    spe.set_defaults(func=cmd_special)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require(args.k is None or args.k >= 2, f"--k must be at least 2, got {args.k}")
        return args.func(args)
    except CliError as exc:
        print(f"cyclewalk: {exc}", file=sys.stderr)
        return exc.code
    except ExpressionError as exc:
        print(f"cyclewalk: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
