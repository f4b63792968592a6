"""Command-line interface: simulate walks, verify revival tables, run the
solvers, and construct special revival states.

Exit codes are stable: 0 on success, 1 for a verification or construction
failure, 2 for usage errors.  Solution streams are JSON lines; amplitude
tables are CSV (columns step, position, coin, re, im, prob) or JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .exprs import ExpressionError, parse_fraction, parse_value
from .revival import CERTIFICATION_TOL, CertificateColumns, power_deviation
from .solver import enumerate_seeded, solve_approximate, solve_rho_edge, solve_seeded
from .special import build_special_state, demoivre_subspace, eigenbasis
from .tables import verify_table
from .walk import MAX_POWER, CoinParams, WalkerState, cycle_steps, line_steps

__all__ = ["main"]

TWO_PI = 2.0 * math.pi

#: the cycle a seed-search case runs on when --k is not given
_CASE_DEFAULT_K = {"k2": 2, "k3": 3, "k4": 4, "two-form": None}

#: (start, step prefix, row, separator, end) of each `simulate` output, byte for byte as
#: csv.writer and json.dumps write it; rows leave %r slots for re, im and prob
_TABLE_FORMATS = {
    "csv": ("step,position,coin,re,im,prob\n", "{},", "{},{},%r,%r,%r", "\n", "\n"),
    "json": ("[", '{{"step": {}, ', '"position": {}, "coin": {}, "re": %r, "im": %r, "prob": %r}}',
             ", ", "]\n"),
}


class CliError(Exception):
    """Carries the exit code for a handled command failure."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _json_lines(columns: CertificateColumns, rows: int = 4096):
    """One JSON line per row of the columns (the `solve` schema of README; "expr" is always
    null), written with format strings, yielded `rows` lines at a time so the text held stays
    bounded.  `certificate_to_json` in tests/oracles.py is the dict writer they must match."""
    num, den = columns.delta_two_pi.as_integer_ratio()
    line = (f'{{"k": {columns.k}, "N": %d, "rho": {{"value": %r, "expr": null}}, "delta": '
            f'{{"two_pi_num": {num}, "two_pi_den": {den}, "radians": {float(columns.delta)!r}}}, '
            f'"generators": [%s], "max_deviation": %r, "case_tag": "{columns.case_tag}"}}\n')
    for start in range(0, len(columns.N), rows):
        part = slice(start, start + rows)
        over, j, distinct = columns.N[part, None], columns.numerators[part], columns.distinct[part]
        g = np.gcd(j, over)  # j/N reduced; every generator's cell is formatted in one pass
        pairs = np.stack([j // g, over // g], axis=-1)[distinct]
        cells = '{"num": %d, "den": %d}\0' * len(pairs) % tuple(pairs.ravel().tolist())
        cells = cells.split("\0")
        ends = np.cumsum(distinct.sum(axis=1)).tolist()
        values = zip(columns.N[part].tolist(), columns.rho[part].tolist(), [0, *ends], ends,
                     columns.max_deviation[part].tolist())
        yield "".join([line % (n, rho, ", ".join(cells[a:b]), dev) for n, rho, a, b, dev in values])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CliError(2, message)


def _unread(args, names, reader: str) -> None:
    """A usage error naming each flag of `names` that was given: `reader` does not read them."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    _require(not given, f"{reader} does not read {', '.join(given)}")


def _delta_frac(args) -> Fraction | None:
    """--delta-frac as a fraction in [0, 1), or None when it is not given."""
    if args.delta_frac is None:
        return None
    dtp = parse_fraction(args.delta_frac)
    _require(0 <= dtp < 1, f"--delta-frac must lie in [0, 1), got {dtp}")
    return dtp


def _coin_params(args) -> tuple[CoinParams, Fraction | None]:
    """The coin, and delta/(2*pi) when it came from --delta-frac."""
    rho = parse_value(args.rho) if args.rho is not None else 0.5
    dtp, beta = _delta_frac(args), 0.0
    if dtp is not None:
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
    return WalkerState(k, np.array(values))


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
        values = [complex(part.strip().replace("i", "j")) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(2, f"cannot parse amplitude list {text!r}: {exc}") from exc
    _require(np.isfinite(values).all(), f"amplitudes must be finite, got {text!r}")
    return values


def cmd_simulate(args) -> int:
    _require(args.steps >= 0, f"--steps must be nonnegative, got {args.steps}")
    _require(args.delta_frac is None or args.alpha is None and args.beta is None,
             "--delta-frac sets alpha + beta, so it cannot be combined with --alpha or --beta")
    if args.line:
        _unread(args, ("k",), "simulate --line")
    params, _ = _coin_params(args)
    try:
        if args.line:
            positions, tables = line_steps(_initial_line_state(args.initial), params, args.steps)
        elif args.k is None:
            raise CliError(2, "--k is required unless --line is given")
        else:
            state = _initial_cycle_state(args.initial, args.k)
            positions, tables = range(args.k), cycle_steps(state, params, args.steps)
    except ValueError as exc:  # an explicit initial state that is not normalized
        raise CliError(1, str(exc)) from exc
    start, step, row, sep, end = _TABLE_FORMATS[args.out]
    # amplitude vectors are position-major with the coin index fastest
    rows = [row.format(pos, coin) for pos in map(int, positions) for coin in (0, 1)]
    # the rows of zero cells, chosen by 2 * signbit(re) + signbit(im)
    zero_rows = np.array([[r % (re, im, 0.0) for r in rows]
                          for re in (0.0, -0.0) for im in (0.0, -0.0)], dtype=object)
    for t, amps in enumerate(tables):
        amps, prefix = amps.reshape(-1), step.format(t)
        text = np.choose(2 * np.signbit(amps.real) + np.signbit(amps.imag), zero_rows).tolist()
        nonzero = np.flatnonzero(amps)
        # prob is abs then ** 2 on Python floats: np.abs and x * x round differently
        for i, a in zip(nonzero.tolist(), amps[nonzero].tolist()):
            text[i] = rows[i] % (a.real, a.imag, abs(a) ** 2)
        sys.stdout.write((sep if t else start) + prefix + (sep + prefix).join(text))
    sys.stdout.write(end)
    return 0


def cmd_verify(args) -> int:
    if args.table is not None:
        _unread(args, ("k", "rho", "delta_frac", "n"), "verify --table")
        # the line json.dumps writes of the report as a dict, from the table's columns
        rows, index, k, turns, deviation = verify_table(args.table)
        heads = [f'"N": {row.n}, "rho": {row.rho!r}, "rho_display": '
                 f'{encode_basestring_ascii(row.rho_display)}, "delta_two_pi": "' for row in rows]
        passed = (deviation < args.tol).tolist()
        checks = ", ".join([
            f'{{"k": {k}, {heads[i]}{d}", "deviation": {x!r}, "pass": {("false", "true")[p]}}}'
            for i, k, d, x, p in zip(index.tolist(), k.tolist(), turns, deviation.tolist(), passed)
        ])
        sys.stdout.write(f'{{"table": {args.table}, "tolerance": {args.tol!r}, "all_pass": '
                         f'{("false", "true")[all(passed)]}, "checks": [{checks}]}}\n')
        return 0 if all(passed) else 1
    if args.k is None or args.rho is None or args.delta_frac is None or args.n is None:
        raise CliError(2, "single checks need --k, --rho, --delta-frac and --n")
    _require(args.n >= 1, f"--n must be at least 1 (U^0 = I certifies nothing), got {args.n}")
    params, dtp = _coin_params(args)
    try:
        deviation = power_deviation(args.k, params, args.n)
    except ValueError as exc:  # a power past 2**63 - 1, which the engine cannot take
        raise CliError(2, str(exc)) from exc
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


def _solve_columns(args) -> CertificateColumns:
    case = args.case
    dtp = _delta_frac(args)
    seed = parse_fraction(args.seed) if args.seed is not None else None
    if case == "rho-edge":
        _unread(args, ("seed", "delta_rad", "max_den", "max_n", "epsilon"), "solve --case rho-edge")
        if args.k is None or dtp is None or args.rho is None:
            raise CliError(2, "rho-edge needs --k, --delta-frac and --rho 0|1")
        edge = parse_value(args.rho)
        if edge not in (0.0, 1.0):
            raise CliError(2, "rho-edge requires --rho 0 or --rho 1")
        return solve_rho_edge(args.k, dtp, int(edge))
    if case in _CASE_DEFAULT_K:
        _unread(args, ("rho", "delta_rad", "epsilon"), f"solve --case {case}")
        k = args.k if args.k is not None else _CASE_DEFAULT_K[case]
        if k is None or dtp is None:
            raise CliError(2, f"{case} needs {'--k and ' if k is None else ''}--delta-frac")
        if seed is not None:
            _unread(args, ("max_den",), "solve --seed")
            _require(0 < seed < 1, f"--seed must lie strictly in (0, 1), got {seed}")
            return solve_seeded(k, dtp, seed, args.max_n)
        den = args.max_den or 24  # 0 exits 2 in cmd_solve
        try:
            return enumerate_seeded(k, dtp, den, args.max_n)
        except MemoryError as exc:
            raise CliError(1, f"out of memory: the seed scan holds about max_den**2/2 seeds, "
                              f"{den * den // 2} at --max-den {den}") from exc
    if case == "approx":
        _unread(args, ("seed", "max_den", "max_n"), "solve --case approx")
        if args.k is None or args.rho is None or args.epsilon is None:
            raise CliError(2, "approx needs --k, --rho and --epsilon")
        _require((dtp is None) != (args.delta_rad is None),
                 "approx needs one of --delta-frac and --delta-rad, not both")
        delta = dtp if dtp is not None else args.delta_rad
        _require(math.isfinite(delta), f"--delta-rad must be finite, got {delta}")
        rho = parse_value(args.rho)
        _require(0 < rho < 1, f"--rho must lie strictly in (0, 1), got {rho}")
        columns = solve_approximate(args.k, rho, delta, args.epsilon)
        if columns is None:
            raise CliError(1, "no fraction set within epsilon at the denominator/period caps")
        return columns
    raise CliError(2, f"unknown case {case!r}")


def cmd_solve(args) -> int:
    for flag in ("max-den", "max-n"):
        value = getattr(args, flag.replace("-", "_"))
        _require(value is None or value >= 1, f"--{flag} must be positive, got {value}")
    try:
        columns = _solve_columns(args)  # sorted by (N, rho), one delta
    except ExpressionError:
        raise  # malformed input is a usage error, reported by main
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc
    sys.stdout.writelines(_json_lines(columns))
    return 0


def cmd_special(args) -> int:
    _require(args.period >= 1, f"--period must be positive, got {args.period}")
    _require(args.period <= MAX_POWER,  # the state is evolved by the period
             f"--period={args.period} exceeds 2**63 - 1, the largest power the engine takes")
    params, dtp = _coin_params(args)
    basis = eigenbasis(args.k, params)
    subspace = demoivre_subspace(basis, args.period, tol=args.tol)
    if subspace is None:
        raise CliError(
            1,
            f"no eigenvalues of the k={args.k} walk are {args.period}-th roots of unity",
        )
    if np.all(np.abs(subspace.values - 1.0) < args.tol):
        raise CliError(
            1,
            "only stationary eigenvectors (eigenvalue 1) satisfy this period; "
            "no genuinely periodic state exists",
        )
    if args.coeffs is not None:
        coefficients = _parse_complex_list(args.coeffs)
        if len(coefficients) != len(subspace.values):
            raise CliError(
                2,
                f"--coeffs needs {len(subspace.values)} entries for this subspace, "
                f"got {len(coefficients)}",
            )
    else:
        coefficients = [1.0] * len(subspace.values)
    try:
        state = build_special_state(subspace, coefficients)
    except ValueError as exc:
        raise CliError(1, str(exc)) from exc

    # |<psi|U^t psi>| for t = 0..period, one coin-then-shift step each
    tables = cycle_steps(state, params, args.period)
    fidelities = np.abs([np.vdot(state.amplitudes, table) for table in tables])
    payload = {
        "k": args.k,
        "rho": params.rho,
        "delta_two_pi": str(dtp),
        "period": args.period,
        "subspace_blocks": subspace.blocks.tolist(),
        "subspace_eigenvalues": subspace.values.view(np.float64).reshape(-1, 2).tolist(),
        "state": state.amplitudes.view(np.float64).reshape(-1, 2).tolist(),
        "fidelities": fidelities.tolist(),
    }
    print(json.dumps(payload))
    return 0 if fidelities[-1] > 1.0 - 1e-9 else 1


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args call returns a fresh Namespace."""
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
    sol.add_argument("--k", type=int, help="cycle length (k2, k3, k4 default to 2, 3, 4)")
    sol.add_argument(
        "--case",
        required=True,
        choices=("rho-edge", "k2", "k3", "k4", "two-form", "approx"),
    )
    sol.add_argument("--seed", help="seed fraction m/n")
    sol.add_argument("--delta-frac", help="delta as a fraction of 2*pi")
    sol.add_argument("--delta-rad", type=float,
                     help="delta as a rational turn, in radians (approx only)")
    sol.add_argument("--rho", help="coin weight (rho-edge: 0|1, approx: target)")
    sol.add_argument("--max-den", type=int, help="seed denominator bound (default 24)")
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
        for flag in ("tol", "epsilon"):  # tolerances of verify, special and solve
            value = getattr(args, flag, None)
            ok = value is None or 0 < value < math.inf
            _require(ok, f"--{flag} must be positive and finite, got {value}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except MemoryError as exc:  # a --k too large for memory: numpy's first line says how large
        print("cyclewalk: out of memory:", str(exc).partition("\n")[0], file=sys.stderr)
        return 1
    except (CliError, ExpressionError) as exc:
        print(f"cyclewalk: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`): as the Python docs advise, flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
