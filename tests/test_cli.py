"""Command-line surface: flags, output formats, exit codes, JSON round trips."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import CoinParams, build_walk_operator, cli, solver, special, tables, walk
from cyclewalk.cli import main
from cyclewalk.exprs import parse_value
from cyclewalk.revival import RevivalCertificate, power_deviation, power_deviations
from cyclewalk.solver import solve_seeded
from oracles import certificate_from_json, certificate_to_json, reference_simulate, walk_matrix
from test_tables import GOLDEN_RHOS

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict:
    """The environment of a `python -m cyclewalk.cli` subprocess that imports this checkout."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key in ("step", "position", "coin"):
            row[key] = int(row[key])
        for key in ("re", "im", "prob"):
            row[key] = float(row[key])
    return rows


#: `simulate` runs whose CSV and JSON bytes are pinned
SIMULATE_GOLDEN = {
    "simulate_cycle": "--k 3 --rho 2/3 --delta-frac 0/1 --steps 8",
    "simulate_line": "--line --steps 3",
}


class TestSimulate:
    def test_revival_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1",
            "--steps", "8", "--initial", "up0",
        )
        assert code == 0
        rows = read_csv(out)
        first = {(r["position"], r["coin"]): (r["re"], r["im"]) for r in rows if r["step"] == 0}
        last = {(r["position"], r["coin"]): (r["re"], r["im"]) for r in rows if r["step"] == 8}
        for key, (re0, im0) in first.items():
            re8, im8 = last[key]
            assert abs(re8 - re0) < 1e-9 and abs(im8 - im0) < 1e-9

    def test_zero_steps_echoes_initial(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--k", "2", "--steps", "0", "--initial", "symmetric"
        )
        assert code == 0
        rows = read_csv(out)
        assert {r["step"] for r in rows} == {0}
        probs = {(r["position"], r["coin"]): r["prob"] for r in rows}
        assert probs[(0, 0)] == pytest.approx(0.5)
        assert probs[(0, 1)] == pytest.approx(0.5)

    def test_line_left_skew(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--line", "--steps", "3", "--initial", "up0"
        )
        assert code == 0
        rows = [r for r in read_csv(out) if r["step"] == 3]
        left = sum(r["prob"] for r in rows if r["position"] < 0)
        right = sum(r["prob"] for r in rows if r["position"] > 0)
        assert left > right

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--k", "2", "--steps", "1", "--out", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["step"] == 0 and "prob" in rows[0]

    def test_unnormalized_line_state_exits_1_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclewalk.cli", "simulate", "--line", "--steps", "2",
             "--initial", "1,1"],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("cyclewalk: ") and proc.stderr.count("\n") == 1
        assert "normalized" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["--k", "2", "--initial", "1e200,0,0,0"],
                                      ["--line", "--initial", "1e200,0"]])
    def test_overflowing_state_exits_1_with_one_line(self, capsys, argv):
        # warnings as errors: pytest's capture would otherwise hide an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--steps", "1", *argv)
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("cyclewalk: ") and "normalized" in err

    def test_unnormalized_explicit_state_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--k", "2", "--steps", "1",
            "--initial", "1,0,1,0",
        )
        assert code == 1
        assert "normalized" in err

    def test_missing_k_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--steps", "1")
        assert code == 2

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--bogus"])
        assert excinfo.value.code == 2
        # the command's own parser reports it, with the command's usage
        err = capsys.readouterr().err
        assert err.startswith("usage: cyclewalk simulate ")
        assert "cyclewalk simulate: error: unrecognized arguments: --bogus" in err

    # delta = 0 keeps every amplitude a product of sqrt(rho) terms, so the
    # bytes depend only on sqrt rounding, not on the order of complex products
    @pytest.mark.parametrize("out", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
    def test_golden_bytes(self, capsys, name, out):
        argv = SIMULATE_GOLDEN[name].split()
        code, text, _ = run_cli(capsys, "simulate", *argv, "--out", out)
        assert code == 0
        assert text == (GOLDEN / f"{name}.{out}").read_text()


#: `solve` runs whose JSON lines are pinned byte for byte, one per search path
SOLVE_GOLDEN = {
    "k3": "--case k3 --delta-frac 0/1 --max-den 30 --max-n 30",
    "k4": "--case k4 --delta-frac 1/2 --max-den 24 --max-n 48",
    "two_form": "--case two-form --k 5 --delta-frac 2/5 --max-den 60",
    "k2": "--case k2 --delta-frac 2/3 --max-den 30",
    "rho0": "--case rho-edge --k 16 --delta-frac 3/7 --rho 0",
    "rho1": "--case rho-edge --k 16 --delta-frac 3/7 --rho 1",
    "rho1_k512": "--case rho-edge --k 512 --delta-frac 3/7 --rho 1",
    "approx": "--case approx --k 6 --rho 0.37 --delta-frac 1/3 --epsilon 0.02",
}


@pytest.mark.parametrize("name", sorted(SOLVE_GOLDEN))
def test_solve_golden_bytes(capsys, name):
    code, text, _ = run_cli(capsys, "solve", *SOLVE_GOLDEN[name].split())
    assert code == 0
    assert text == (GOLDEN / f"solve_{name}.jsonl").read_text()


@pytest.mark.parametrize("name", sorted(SOLVE_GOLDEN))
def test_solve_golden_deviation_is_measured_on_its_own_cycle(name):
    for line in (GOLDEN / f"solve_{name}.jsonl").read_text().splitlines():
        r = json.loads(line)
        own = power_deviations(r["k"], [r["rho"]["value"]], r["delta"]["radians"], [r["N"]])
        assert r["max_deviation"] == own[0], (r["k"], r["N"], r["rho"]["value"])


#: `special` runs pinned with their argv, exit code and output
SPECIAL_GOLDEN = ["period5", "full", "scalar_blocks", "k128", "stationary"]


def special_argv(name: str) -> str:
    """The argv, after `special`, of a pinned `special` run."""
    return json.loads((GOLDEN / f"special_{name}.json").read_text())["argv"]


#: a k=64 coin with the eigenphase 2*pi/24 on block 5, so a state of period 24 exists
SPECIAL_K64 = "--k 64 --rho (1-cos(pi/6))/(1-cos(5*pi/16)) --delta-frac 0/1 --period 24"

#: `verify --table` runs whose line and exit code are pinned, one failing at a tolerance too tight
VERIFY_TABLE_GOLDEN = {
    **{f"table{t}": (f"--table {t}", 0) for t in range(1, 6)},
    "table5_tol1e-15": ("--table 5 --tol 1e-15", 1),
}


@pytest.mark.parametrize("name", sorted(VERIFY_TABLE_GOLDEN))
def test_verify_table_golden_bytes(capsys, name):
    argv, want = VERIFY_TABLE_GOLDEN[name]
    code, text, err = run_cli(capsys, "verify", *argv.split())
    assert (code, err) == (want, "")
    assert text == (GOLDEN / f"verify_{name}.json").read_text()
    assert json.loads(text)["all_pass"] is (want == 0)


def test_every_golden_file_is_read_by_a_test():
    # the tables above drive every test that reads tests/golden, with test_tables' weights
    read = {
        *(f"{name}.{out}" for name in SIMULATE_GOLDEN for out in ("csv", "json")),
        *(f"solve_{name}.jsonl" for name in SOLVE_GOLDEN),
        *(f"special_{name}.json" for name in SPECIAL_GOLDEN),
        *(f"verify_{name}.json" for name in VERIFY_TABLE_GOLDEN),
        GOLDEN_RHOS.name,
    }
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(read)
    assert GOLDEN_RHOS.parent == GOLDEN


def test_search_writes_its_lines_without_certificates_or_json_dumps(capsys, monkeypatch):
    calls = []
    init, dumps = RevivalCertificate.__init__, json.dumps

    def counted_init(self, *args, **kwargs):
        calls.append("RevivalCertificate")
        init(self, *args, **kwargs)

    def counted_dumps(*args, **kwargs):
        calls.append("json.dumps")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(RevivalCertificate, "__init__", counted_init)
    monkeypatch.setattr(json, "dumps", counted_dumps)
    argv = ["solve", "--case", "k3", "--delta-frac", "0/1", "--max-den", "96"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.count("\n") == 697
    assert calls == []
    # every one-row case writes its line from the solver's columns too
    for argv in (
        ["--k", "512", "--case", "rho-edge", "--rho", "0", "--delta-frac", "3/7"],
        ["--k", "512", "--case", "rho-edge", "--rho", "1", "--delta-frac", "3/7"],
        ["--case", "k3", "--delta-frac", "0/1", "--seed", "3/8"],
        ["--k", "6", "--case", "approx", "--rho", "0.37", "--delta-frac", "1/3",
         "--epsilon", "0.02"],
    ):
        code, out, _ = run_cli(capsys, "solve", *argv)
        assert code == 0 and out.count("\n") == 1, argv
        assert calls == [], argv
    # the spies see a read that builds its certificate
    assert len(solve_seeded(3, Fraction(0), Fraction(3, 8)).solutions) == 1
    assert calls == ["RevivalCertificate"]


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
def test_table_line_is_written_from_one_verify_table_call(capsys, monkeypatch, table):
    # `verify --table` reads the library's columns once and formats them without json.dumps
    assert cli.verify_table is tables.verify_table
    calls, verify, dumps = [], tables.verify_table, json.dumps
    monkeypatch.setattr(cli, "verify_table", lambda t: calls.append(t) or verify(t))
    monkeypatch.setattr(json, "dumps", lambda *a, **kw: calls.append("json.dumps") or dumps(*a, **kw))
    code, out, _ = run_cli(capsys, "verify", "--table", str(table))
    assert code == 0 and out.count("\n") == 1
    assert calls == [table]


def test_oversized_seed_scan_exits_1_with_one_line(capsys, monkeypatch):
    # the scan holds about max_den**2/2 seeds: a failed allocation is a message, not a traceback
    def refuse(max_den, dtype):
        raise MemoryError(f"cannot hold the seeds of max_den={max_den}")

    monkeypatch.setattr(solver, "_seeds", refuse)
    code, out, err = run_cli(capsys, "solve", "--case", "k3", "--delta-frac", "0/1",
                             "--max-den", "200000")
    assert (code, out) == (1, "")
    assert err.startswith("cyclewalk: ") and err.count("\n") == 1
    assert "--max-den 200000" in err and "max_den**2/2" in err and "20000000000" in err


#: each command with the library call it is made to fail in; the cycles are small, so
#: nothing is allocated for real before the call refuses
OUT_OF_MEMORY = {
    "simulate": (["simulate", "--k", "3", "--steps", "1"], "cycle_steps"),
    "verify": (["verify", "--k", "3", "--rho", "1/2", "--delta-frac", "0/1", "--n", "2"],
               "power_deviation"),
    "solve": (["solve", "--k", "3", "--case", "rho-edge", "--rho", "1", "--delta-frac", "1/3"],
              "solve_rho_edge"),
    "special": (["special", "--k", "3", "--rho", "1/2", "--delta-frac", "0/1", "--period", "2"],
                "eigenbasis"),
}


@pytest.mark.parametrize("command", OUT_OF_MEMORY)
def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch, command):
    # what numpy raises for a --k too large for memory, without allocating it
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,) "
                          "and data type int64\n(a second line)")

    argv, call = OUT_OF_MEMORY[command]
    monkeypatch.setattr(cli, call, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == ("cyclewalk: out of memory: Unable to allocate 74.5 GiB for an array with "
                   "shape (10000000000,) and data type int64\n")


#: explicit amplitude pairs of norm 1 (up to rounding), with negative and imaginary parts
UNIT_PAIRS = [("0.6", "0.8"), ("-0.6", "0.8j"), ("0.8j", "-0.6"), ("-1", "-0"), ("0", "-1j")]
#: exact zeros, as complex() reads them: +-0 in the real and in the imaginary part
ZEROS = ["0", "-0", "-0j", "-0-0j"]


@st.composite
def simulate_argvs(draw):
    """`simulate` arguments on small cycles and lines, every coin form and initial state."""
    line = draw(st.booleans())
    cells = 2 if line else 2 * draw(st.integers(2, 6))
    argv = ["--line"] if line else ["--k", str(cells // 2)]
    argv += ["--rho", draw(st.sampled_from(["0", "1", "1/2", "2/3", "0.37", "1/7"]))]
    phase = draw(st.sampled_from(["none", "delta", "alpha", "alpha-beta"]))
    if phase == "delta":
        argv += ["--delta-frac", draw(st.sampled_from(["0/1", "1/3", "2/5", "1/2", "5/6"]))]
    elif phase == "alpha":
        argv += ["--alpha", f"{draw(st.floats(0, 6.28)):.6f}"]
    elif phase == "alpha-beta":
        alpha, beta = draw(st.floats(0, 3.14)), draw(st.floats(0.01, 3.14))
        argv += ["--alpha", f"{alpha:.6f}", "--beta", f"{beta:.6f}"]
    initial = draw(st.sampled_from(["up0", "symmetric", "explicit"]))
    if initial == "explicit":
        amps = [draw(st.sampled_from(ZEROS)) for _ in range(cells)]
        i, j = draw(st.lists(st.integers(0, cells - 1), min_size=2, max_size=2, unique=True))
        amps[i], amps[j] = draw(st.sampled_from(UNIT_PAIRS))
        initial = ",".join(amps)
    steps = draw(st.integers(0, 10))
    out = draw(st.sampled_from(["csv", "json"]))
    # the = form, because an amplitude list may start with a minus sign
    return argv + ["--steps", str(steps), f"--initial={initial}", "--out", out]


def line_simulate_peak(steps: int) -> int:
    """Peak traced bytes of `simulate --line --steps <steps>` writing to devnull."""
    argv = ["simulate", "--line", "--steps", str(steps)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv)  # first-call caches stay out of the measurement
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestStreamedSimulate:
    def test_matches_the_row_list_emitter(self):
        signed_zero = []

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(argv=simulate_argvs())
        @example(argv=["--line", "--steps", "3"])
        @example(argv=["--k", "2", "--steps", "0", "--initial=-0,0.6,-0j,-0.8j", "--out", "json"])
        @example(argv="--k 4 --rho 1/3 --delta-frac 2/5 --steps 6 --initial symmetric".split())
        def check(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["simulate", *argv]) == 0
            expected = reference_simulate(argv)
            assert out.getvalue() == expected
            signed_zero.append("-0.0" in expected)

        check()
        assert any(signed_zero)  # the signed-zero rows were exercised

    def test_line_peak_memory_is_linear_in_steps(self):
        # the full (steps+1, window, 2) history or a list of every row would be
        # O(steps^2), about 4x from 200 to 400 steps
        small, large = line_simulate_peak(200), line_simulate_peak(400)
        assert large < 2.5 * small

    def test_closed_pipe_exits_1_without_traceback(self):
        # 401 * 128 rows fill the pipe long before the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclewalk.cli", "simulate", "--k", "64", "--steps", "400"],
            env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"step,position,coin,re,im,prob\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""


class TestVerify:
    def test_table_4_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--table", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] and len(payload["checks"]) > 50

    def test_single_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--k", "8", "--rho", "1/2", "--delta-frac", "0/1", "--n", "24",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_single_check_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--k", "7", "--rho", "1/2", "--delta-frac", "0/1", "--n", "24",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False and payload["deviation"] > 0.1

    def test_missing_selection_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--k", "8")
        assert code == 2

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 600),
        rho=st.sampled_from(["0", "1", "1/2", "2/3", "0.37", "(5-sqrt5)/8", "(5+sqrt5)/8",
                             "(1/2)*(1+cos(pi/7))", "1/3"]),
        v=st.integers(1, 40),
        u=st.integers(0, 39),
        m=st.integers(1, 50),
        off=st.integers(0, 3),
        tol=st.floats(1e-300, 1e300),
    )
    @example(k=8, rho="0", v=7, u=3, m=5, off=0, tol=1e-9)  # rho=0 revives at N = 2v: pass
    @example(k=7, rho="1/2", v=1, u=0, m=12, off=0, tol=1e-9)  # the Hadamard coin: fail
    def test_single_check_bytes_match_json_dumps(self, k, rho, v, u, m, off, tol):
        dtp = Fraction(u % v, v)
        n = 2 * v * m + off  # a multiple of the rho=0 period when off is 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--k", str(k), "--rho", rho, "--delta-frac", f"{u % v}/{v}",
                         "--n", str(n), "--tol", repr(tol)])
        value = parse_value(rho)
        deviation = power_deviation(k, CoinParams.from_delta(value, 2 * math.pi * float(dtp)), n)
        report = {"k": k, "N": n, "rho": value, "delta_two_pi": str(dtp),
                  "deviation": deviation, "tolerance": tol, "pass": deviation < tol}
        assert (code, out.getvalue(), err.getvalue()) == (1 - report["pass"],
                                                          json.dumps(report) + "\n", "")

    @pytest.mark.parametrize("table", [3, 4])
    def test_printed_displays_round_trip_through_rho(self, capsys, table):
        # every rho_display the table prints is a --rho the single check accepts
        _, out, _ = run_cli(capsys, "verify", "--table", str(table))
        for check in json.loads(out)["checks"]:
            code, single, _ = run_cli(
                capsys,
                "verify", "--k", str(check["k"]), "--rho", check["rho_display"],
                "--delta-frac", check["delta_two_pi"], "--n", str(check["N"]),
            )
            assert code == 0, check
            assert json.loads(single)["deviation"] == check["deviation"], check


class TestSolve:
    def test_k2_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "2", "--case", "k2", "--seed", "2/5", "--delta-frac", "2/3",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1
        record = records[0]
        assert record["N"] == 30 and record["case_tag"] == "k2_seeded"
        gens = {(g["num"], g["den"]) for g in record["generators"]}
        assert gens == {(4, 15), (2, 5), (23, 30), (9, 10)}

    def test_json_round_trip_lossless(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "solve", "--k", "2", "--case", "k2", "--seed", "2/5", "--delta-frac", "2/3",
        )
        line = out.strip()
        cert = certificate_from_json(json.loads(line))
        assert json.dumps(certificate_to_json(cert)) == line

    def test_k3_scan_reproduces_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "3", "--case", "k3", "--delta-frac", "0/1",
            "--max-den", "30", "--max-n", "30",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 23
        assert [r["N"] for r in records] == sorted(r["N"] for r in records)
        assert records[0]["N"] == 8
        assert records[0]["rho"]["value"] == pytest.approx(2.0 / 3.0)

    def test_two_form_k5(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--k", "5", "--case", "two-form", "--delta-frac", "0/1"
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["N"] for r in records] == [60, 60]
        rhos = sorted(r["rho"]["value"] for r in records)
        assert rhos[0] == pytest.approx((5.0 - math.sqrt(5.0)) / 10.0)
        assert rhos[1] == pytest.approx((5.0 + math.sqrt(5.0)) / 10.0)

    def test_two_form_respects_max_n(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "5", "--case", "two-form", "--delta-frac", "0/1",
            "--max-den", "20", "--max-n", "10",
        )
        assert code == 0 and out == ""

    def test_k_selects_the_cycle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "6", "--case", "k3", "--delta-frac", "0/1", "--max-den", "16",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and records
        assert {(r["k"], r["case_tag"]) for r in records} == {(6, "k3_family")}
        # k=5 has two weight forms, so the search runs as the two-form case
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "5", "--case", "k3", "--delta-frac", "0/1", "--max-den", "20",
        )
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and [r["N"] for r in records] == [60, 60]
        assert {(r["k"], r["case_tag"]) for r in records} == {(5, "two_form")}

    @pytest.mark.parametrize(
        "k, dtp",
        [("3", "1/6"), ("3", "1/2"), ("3", "5/6"), ("6", "1/6"), ("6", "1/2"),
         ("6", "5/6"), ("4", "1/3"), ("4", "1/8"), ("8", "1/8"), ("8", "3/8")],
    )
    def test_bounded_negative_prints_nothing(self, capsys, k, dtp):
        code, out, err = run_cli(
            capsys,
            "solve", "--k", k, "--case", "two-form", "--delta-frac", dtp, "--max-den", "30",
        )
        assert (code, out, err) == (0, "", "")

    def test_rho_edge(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "5", "--case", "rho-edge", "--rho", "0", "--delta-frac", "1/3",
        )
        assert code == 0
        assert json.loads(out.strip())["N"] == 6

    def test_approx_emits_deviation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "7", "--case", "approx", "--rho", "0.5",
            "--delta-frac", "0/1", "--epsilon", "0.01",
        )
        assert code == 0
        record = json.loads(out.strip())
        assert record["N"] == 2700 and record["max_deviation"] > 0.0

    def test_approx_keeps_an_exact_delta_frac(self, capsys):
        # a denominator above the radians reconstruction cap must survive intact
        code, out, _ = run_cli(
            capsys,
            "solve", "--k", "2", "--case", "approx", "--rho", "0.5",
            "--delta-frac", "500/1001", "--epsilon", "0.05",
        )
        assert code == 0
        record = json.loads(out.strip())
        assert record["N"] == 8008
        assert (record["delta"]["two_pi_num"], record["delta"]["two_pi_den"]) == (500, 1001)

    def test_approx_reads_delta_rad_as_its_turn(self, capsys):
        # radians within 1e-12 of a turn u/v (v <= 1000) answer as that --delta-frac does
        code, out, _ = run_cli(capsys, "solve", *SOLVE_GOLDEN["approx"].replace(
            "--delta-frac 1/3", "--delta-rad 2.0943951023931953").split())
        assert code == 0
        assert out == (GOLDEN / "solve_approx.jsonl").read_text()

    def test_approx_refuses_an_irrational_delta_rad(self, capsys):
        # no power of U is I at delta = 1 rad, so no near-revival is written
        code, out, err = run_cli(
            capsys,
            "solve", "--k", "2", "--case", "approx", "--rho", "0.5",
            "--delta-rad", "1.0", "--epsilon", "0.05",
        )
        assert (code, out) == (1, "")
        assert err.startswith("cyclewalk: ") and err.count("\n") == 1
        assert "0.15915494309189535 (mod 1) is not a turn u/v" in err and "--delta-frac" in err

    def test_inconsistent_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--k", "2", "--case", "k2")
        assert code == 2

    def test_seed_respects_max_n(self, capsys):
        argv = ["solve", "--case", "k3", "--delta-frac", "0/1", "--seed", "3/8", "--max-n"]
        code, out, err = run_cli(capsys, *argv, "3")
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("cyclewalk: ") and "N=8" in err and "max_n=3" in err
        code, out, err = run_cli(capsys, *argv, "8")
        assert (code, err) == (0, "") and json.loads(out)["N"] == 8

    def test_rejected_seed_exits_1(self, capsys):
        # rho = 4/3 for this seed: construction failure, not usage error
        code, _, err = run_cli(
            capsys,
            "solve", "--k", "3", "--case", "k3", "--seed", "1/4", "--delta-frac", "0/1",
        )
        assert code == 1 and "rho" in err


class TestSpecial:
    def test_period_five_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "special", "--k", "4", "--rho", "(5-sqrt5)/8",
            "--delta-frac", "0/1", "--period", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fidelities"][-1] > 1.0 - 1e-9
        assert len(payload["subspace_blocks"]) == 4

    def test_full_revival_period(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "special", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1",
            "--period", "8",
        )
        assert code == 0
        assert len(json.loads(out)["subspace_blocks"]) == 6

    def test_only_stationary_subspace_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "special", "--k", "4", "--rho", "0.3", "--delta-frac", "0/1",
            "--period", "5",
        )
        assert code == 1
        assert "stationary" in err or "roots of unity" in err

    def test_coefficients_count_only_by_their_ratios(self, capsys):
        argv = ["special", "--k", "4", "--rho", "(5-sqrt5)/8", "--delta-frac", "0/1",
                "--period", "5", "--coeffs"]
        # large, tiny and subnormal coefficients, each beside the state of its ratios
        same = {"1e200,0,0,0": "1,0,0,0", "1e-200,0,0,0": "1,0,0,0",
                "1e-310,0,0,0": "1,0,0,0", "1e308,1e308,1e308,1e308": "1,1,1,1"}
        states = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coeffs in [*same, "1,0,0,0", "1,1,1,1"]:
                code, out, err = run_cli(capsys, *argv, coeffs)
                assert (code, err) == (0, ""), coeffs
                states[coeffs] = np.array(json.loads(out)["state"])
            code, out, err = run_cli(capsys, *argv, "0,0,0,0")
        assert (code, out) == (1, "") and err.count("\n") == 1 and "norm 0.0" in err
        for coeffs, ratios in same.items():
            assert np.max(np.abs(states[coeffs] - states[ratios])) < 1e-15, coeffs

    # pinned before eigenpairs moved to block space: the period-5 example, every
    # pair kept, the scalar blocks 2 and 6, k=128, and the stationary-only refusal
    @pytest.mark.parametrize("name", SPECIAL_GOLDEN)
    def test_golden_output(self, capsys, name):
        golden = json.loads((GOLDEN / f"special_{name}.json").read_text())
        code, out, err = run_cli(capsys, "special", *golden["argv"].split())
        assert (code, err) == (golden["code"], golden["stderr"])
        want = golden["stdout"]
        if want is None:
            assert out == ""
            return
        got = json.loads(out)
        assert list(got) == list(want)
        for key in ("k", "rho", "delta_two_pi", "period", "subspace_blocks",
                    "subspace_eigenvalues"):
            assert got[key] == want[key], key
        for key in ("state", "fidelities"):
            gap = np.max(np.abs(np.array(got[key]) - np.array(want[key])))
            assert np.shape(got[key]) == np.shape(want[key]) and gap < 1e-13, key

    @pytest.mark.parametrize("period", [5, 24])
    def test_evolve_is_called_once_for_the_revival_check(self, capsys, monkeypatch, period):
        # the fidelity curve is stepped; only build_special_state evolves, by the period
        argv = {5: special_argv("period5"), 24: SPECIAL_K64}[period]
        real, calls = walk.evolve, []
        spy = lambda state, op, steps: calls.append(steps) or real(state, op, steps)
        for module in (walk, special, cli):
            if getattr(module, "evolve", None) is real:
                monkeypatch.setattr(module, "evolve", spy)
        code, _, err = run_cli(capsys, "special", *argv.split())
        assert (code, err, calls) == (0, "", [period])

    @pytest.mark.parametrize("argv", [
        *(special_argv(name) for name in SPECIAL_GOLDEN if name != "stationary"),
        special_argv("period5") + " --coeffs 1,2j,-0.5,1+1j",
        SPECIAL_K64,
    ])
    def test_fidelities_match_the_dense_walk(self, capsys, argv):
        code, out, err = run_cli(capsys, "special", *argv.split())
        assert (code, err) == (0, "")
        payload = json.loads(out)
        dtp = Fraction(payload["delta_two_pi"])
        params = CoinParams(payload["rho"], 2.0 * math.pi * float(dtp))
        step = walk_matrix(build_walk_operator(payload["k"], params))
        psi = np.array(payload["state"]) @ [1.0, 1.0j]
        want, current = [], psi
        for _ in payload["fidelities"]:  # |psi^dagger W^t psi| for t = 0..period
            want.append(abs(np.vdot(psi, current)))
            current = step @ current
        assert len(want) == payload["period"] + 1
        assert np.max(np.abs(np.array(payload["fidelities"]) - want)) < 1e-12


class TestInputContract:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "3", "--rho", "2"],
            ["verify", "--k", "3", "--rho", "2", "--delta-frac", "0/1", "--n", "8"],
            ["simulate", "--k", "3", "--alpha", "4", "--beta", "0.1"],
            ["simulate", "--k", "1"],
            ["verify", "--k", "1", "--rho", "1/2", "--delta-frac", "0/1", "--n", "4"],
            ["special", "--k", "1", "--rho", "0.3", "--delta-frac", "0/1", "--period", "5"],
            ["solve", "--k", "1", "--case", "rho-edge", "--rho", "0", "--delta-frac", "1/3"],
            ["verify", "--k", "3", "--rho", "2/3", "--delta-frac", "5/4", "--n", "8"],
            ["special", "--k", "4", "--rho", "0.3", "--delta-frac", "5/4", "--period", "5"],
            ["special", "--k", "4", "--rho", "0.3", "--delta-frac", "0/1", "--period", "0"],
            # the fidelity curve would hold one entry per step, past the 10**6 cap (and int64)
            ["special", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--period", str(2**70)],
            ["special", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--period", str(2**63)],
            ["special", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--period", "1000001"],
            ["simulate", "--k", "3", "--steps", "-1"],
            ["solve", "--k", "3", "--case", "k3", "--delta-frac", "0/1", "--max-den", "0"],
            ["solve", "--k", "3", "--case", "k3", "--delta-frac", "0/1", "--max-n", "0"],
            ["verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", "0"],
            ["solve", "--k", "3", "--case", "k3", "--delta-frac", "4/3"],
            ["solve", "--k", "2", "--case", "k2", "--seed", "2/5", "--delta-frac", "5/3"],
            ["solve", "--k", "5", "--case", "two-form", "--delta-frac", "6/5"],
            ["solve", "--k", "5", "--case", "rho-edge", "--rho", "0", "--delta-frac", "5/4"],
            ["solve", "--k", "7", "--case", "approx", "--rho", "0.5", "--delta-frac", "7/4",
             "--epsilon", "0.01"],
            ["verify", "--table", "1", "--tol", "nan"],
            ["verify", "--table", "1", "--tol", "0"],
            *(
                ["verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", "8", "--tol", tol]
                for tol in ("nan", "0", "-1", "inf")
            ),
            ["special", "--k", "4", "--rho", "0.3", "--delta-frac", "0/1", "--period", "5",
             "--tol", "nan"],
            ["special", "--k", "4", "--rho", "0.3", "--delta-frac", "0/1", "--period", "5",
             "--tol", "0"],
            ["solve", "--case", "k3", "--delta-frac", "abc"],
            ["solve", "--case", "k3", "--seed", "1/0", "--delta-frac", "0/1"],
            *(
                # the = form lets argparse read -1/3 as a value, so the range check sees it
                ["solve", "--case", "k3", f"--seed={seed}", "--delta-frac", "0/1"]
                for seed in ("0/1", "3/2", "-1/3")
            ),
            ["solve", "--k", "7", "--case", "approx", "--rho", "abc", "--delta-frac", "0/1",
             "--epsilon", "0.01"],
            *(
                ["solve", "--k", "7", "--case", "approx", "--rho", "0.5", "--delta-frac", "0/1",
                 "--epsilon", eps]
                for eps in ("0", "-1", "inf", "nan")
            ),
            ["solve", "--k", "7", "--case", "approx", "--rho", "0.5", "--delta-rad", "nan",
             "--epsilon", "0.01"],
            *(
                ["solve", "--k", "2", "--case", "approx", "--rho", rho, "--delta-frac", "0/1",
                 "--epsilon", "0.05"]
                for rho in ("2", "0", "-1", "nan")
            ),
            *(
                ["verify", "--k", "3", f"--rho={rho}", "--delta-frac", "0/1", "--n", "8"]
                for rho in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "sin(1" + "0" * 400 + ")")
            ),
            ["verify", "--k", "3", "--rho", "2/3", "--delta-frac", "1/" + "7" * 5000, "--n", "8"],
            # non-finite amplitudes and coefficients ("inf" already fails to parse)
            ["simulate", "--k", "3", "--steps", "2", "--initial", "1,0,0,0,0,nan"],
            ["simulate", "--line", "--steps", "2", "--initial", "nan,0"],
            ["simulate", "--line", "--steps", "2", "--initial", "1,inf"],
            ["special", "--k", "4", "--rho", "(5-sqrt5)/8", "--delta-frac", "0/1", "--period", "5",
             "--coeffs", "nan,1,1,1"],
            ["solve", "--k", "2", "--case", "k2", "--seed", "1/" + "7" * 5000, "--delta-frac", "2/3"],
        ],
        ids=lambda argv: " ".join(a if len(a) <= 40 else f"{a[:12]}...({len(a)} chars)" for a in argv),
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("cyclewalk: ") and err.count("\n") == 1

    def test_special_period_past_the_cap_is_refused_before_any_step(self, capsys, monkeypatch):
        # a multiple of the period 8, so only the cap refuses it
        monkeypatch.setattr(cli, "eigenbasis", lambda *args: pytest.fail("built a basis"))
        monkeypatch.setattr(cli, "cycle_steps", lambda *args: pytest.fail("stepped the walk"))
        code, out, err = run_cli(
            capsys, "special", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--period", str(2**40)
        )
        assert (code, out) == (2, "")
        assert err == (f"cyclewalk: --period={2**40} exceeds 10**6, "
                       "the longest fidelity curve `special` steps\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--k", "2", "--alpha", "1", "--delta-frac", "1/3", "--steps", "1"],
            ["simulate", "--k", "2", "--beta", "1", "--delta-frac", "1/3", "--steps", "1"],
            ["solve", "--k", "2", "--case", "approx", "--rho", "0.4", "--delta-rad", "1.0",
             "--delta-frac", "1/3", "--epsilon", "0.02"],
        ],
        ids=" ".join,
    )
    def test_overridden_phase_flag_exits_2_naming_both(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("cyclewalk: ") and err.count("\n") == 1
        assert "--delta-frac" in err and argv[3 if argv[0] == "simulate" else 9] in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["solve", "--case", "k3", "--delta-frac", "0/1", "--max-den", "4", "--delta-rad",
              "1.0", "--epsilon", "0.5"], ["--delta-rad", "--epsilon"]),
            (["solve", "--case", "k3", "--delta-frac", "0/1", "--max-den", "10", "--rho", "0.3"],
             ["--rho"]),
            (["verify", "--table", "4", "--k", "3", "--n", "5"], ["--k", "--n"]),
            (["simulate", "--line", "--k", "5", "--steps", "1"], ["--k"]),
            (["solve", "--k", "3", "--case", "rho-edge", "--rho", "0", "--delta-frac", "1/3",
              "--max-n", "9"], ["--max-n"]),
            (["solve", "--k", "3", "--case", "approx", "--rho", "0.5", "--delta-frac", "0/1",
              "--epsilon", "0.1", "--seed", "1/3"], ["--seed"]),
            (["solve", "--k", "3", "--case", "rho-edge", "--rho", "1", "--delta-frac", "1/3",
              "--max-den", "9"], ["--max-den"]),
            (["solve", "--case", "k3", "--delta-frac", "0/1", "--seed", "3/8", "--max-den", "9"],
             ["--max-den"]),
        ],
        ids=lambda value: " ".join(value),
    )
    def test_unread_flag_exits_2_naming_it(self, capsys, argv, flags):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("cyclewalk: ") and err.count("\n") == 1
        assert all(flag in err for flag in flags), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "3", "--case", "rho-edge", "--rho", "1", "--delta-frac", "1/" + "9" * 20],
            ["--k", "3", "--case", "rho-edge", "--rho", "0", "--delta-frac", "1/" + "9" * 20],
            ["--k", "2", "--case", "k2", "--delta-frac", "3" * 20 + "/" + "9" * 19 + "8",
             "--max-den", "6"],
        ],
        ids=" ".join,
    )
    def test_period_past_int64_exits_1_naming_n(self, capsys, argv):
        code, out, err = run_cli(capsys, "solve", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("cyclewalk: N=") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [str(2**63), "9" * 20, str(2**70)])
    def test_single_check_at_a_power_past_int64_exits_2(self, capsys, n):
        # 2**70 is a multiple of this coin's period 8: a float power would read a false fail
        code, out, err = run_cli(
            capsys, "verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", n
        )
        assert (code, out) == (2, "")
        assert err == f"cyclewalk: N={n} exceeds 2**63 - 1, the largest power the engine takes\n"

    def test_single_check_at_the_largest_power_keeps_its_report(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--k", "4", "--rho", "1/2", "--delta-frac", "0/1", "--n", str(2**63 - 1)
        )
        assert (code, err) == (1, "")
        assert json.loads(out)["N"] == 2**63 - 1 and json.loads(out)["pass"] is False

    def test_zero_power_is_not_a_certificate(self, capsys):
        # U^0 = I for every coin, so N=0 would pass any walk
        code, out, err = run_cli(
            capsys, "verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", "0"
        )
        assert code == 2 and '"pass"' not in out
        assert "--n" in err


class TestOneParser:
    def test_a_command_parses_with_its_own_parser(self, capsys, monkeypatch):
        progs = []
        parse = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(
            argparse.ArgumentParser,
            "parse_known_args",
            lambda self, *a, **kw: progs.append(self.prog) or parse(self, *a, **kw),
        )
        code, _, _ = run_cli(capsys, *self.MIXED[1])
        assert code == 0
        assert progs == ["cyclewalk verify"]  # the top-level parser never parses

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--k", "8"]])
    def test_no_or_unknown_command_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cyclewalk [-h] ")

    def test_top_level_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["-h"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert all(f"    {command} " in out for command in ("simulate", "verify", "solve",
                                                            "special"))

    MIXED = (
        ["verify", "--table", "1"],
        ["verify", "--k", "8", "--rho", "1/2", "--delta-frac", "0/1", "--n", "24"],
        ["solve", "--k", "3", "--case", "k3", "--delta-frac", "0/1", "--max-den", "12"],
        ["simulate", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--steps", "2"],
        ["verify", "--k", "7", "--rho", "1/2", "--delta-frac", "0/1", "--n", "10"],
    )

    def test_parser_is_built_once(self, capsys, monkeypatch):
        builds = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser,
            "__init__",
            lambda self, *a, **kw: builds.append(1) or init(self, *a, **kw),
        )
        run_cli(capsys, *self.MIXED[1])
        first = len(builds)  # 0 when an earlier test already built it
        for argv in self.MIXED:
            run_cli(capsys, *argv)
        assert len(builds) == first

    def test_mixed_calls_match_fresh_processes(self, capsys):
        # no argparse state may leak from one call into the next
        fresh = [
            subprocess.Popen(
                [sys.executable, "-m", "cyclewalk.cli", *argv],
                env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            for argv in self.MIXED
        ]
        for argv, proc in zip(self.MIXED, fresh):
            out, _ = proc.communicate(timeout=120)
            code, got, _ = run_cli(capsys, *argv)
            assert (code, got) == (proc.returncode, out), argv
