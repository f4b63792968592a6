"""Command-line surface: flags, output formats, exit codes, JSON round trips."""

import csv
import io
import json
import math

import pytest

from cyclewalk.cli import certificate_from_json, certificate_to_json, main


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

    def test_inconsistent_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--k", "2", "--case", "k2")
        assert code == 2

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
            ["simulate", "--k", "3", "--steps", "-1"],
            ["solve", "--k", "3", "--case", "k3", "--delta-frac", "0/1", "--max-den", "0"],
            ["solve", "--k", "3", "--case", "k3", "--delta-frac", "0/1", "--max-n", "0"],
            ["verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_input_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("cyclewalk: ") and err.count("\n") == 1

    def test_zero_power_is_not_a_certificate(self, capsys):
        # U^0 = I for every coin, so N=0 would pass any walk
        code, out, err = run_cli(
            capsys, "verify", "--k", "3", "--rho", "2/3", "--delta-frac", "0/1", "--n", "0"
        )
        assert code == 2 and '"pass"' not in out
        assert "--n" in err
