"""Acceptance suite: one test per exit criterion, each printing a pass/fail line.

Tolerances are pinned here exactly as stated; run with -s (or read captured
output) for the per-criterion lines.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from cyclewalk import (
    CoinParams,
    build_special_state,
    build_walk_operator,
    demoivre_subspace,
    eigenbasis,
    enumerate_seeded,
    evolve,
    full_spectrum,
    power_deviation,
    revival_period,
    solve_rho_edge,
    solve_seeded,
    verify_table,
    weight,
    weight_forms,
)
from cyclewalk.tables import TABLE6_COLUMNS
from cyclewalk.walk import HADAMARD, line_steps
from oracles import eigenvalues_closed_form, phase_multiset_distance, walk_matrix

TWO_PI = 2.0 * math.pi
SPECIAL_RHO = (5.0 - math.sqrt(5.0)) / 8.0


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number:02d} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_edge_family_spot_suite():
    start = time.perf_counter()
    worst = 0.0
    for k in (2, 3, 4, 5, 7, 12):
        for uv in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
            delta = TWO_PI * float(uv)
            v = uv.denominator
            worst = max(
                worst,
                power_deviation(k, CoinParams.from_delta(0.0, delta), 2 * v),
                power_deviation(
                    k, CoinParams.from_delta(1.0, delta), math.lcm(2, k, v * k)
                ),
            )
    elapsed = time.perf_counter() - start
    report(
        1,
        "edge-family spot suite",
        worst < 1e-10 and elapsed < 1.0,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_k3_k6_table_full():
    start = time.perf_counter()
    result = verify_table(3)
    elapsed = time.perf_counter() - start
    worst = result.deviation.max()
    both = set(result.k.tolist()) == {3, 6}
    report(
        2,
        "k=3/k=6 table, every row and phase",
        both and worst < 1e-9 and elapsed < 5.0,
        f"{len(result.k)} checks, worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_k4_table_full():
    result = verify_table(4)
    worst = result.deviation.max()
    report(
        3,
        "k=4 table, every row and phase",
        worst < 1e-9,
        f"{len(result.k)} checks, worst={worst:.2e}",
    )


def test_criterion_04_two_form_table():
    result = verify_table(5)
    # (k, row, delta/(2*pi)) of each check, from the columns
    checks = list(zip(result.k.tolist(), [result.rows[i] for i in result.row.tolist()],
                      result.delta_two_pi))
    k510 = [(row, dtp) for k, row, dtp in checks if k in (5, 10)]
    k8 = [(row, dtp) for k, row, dtp in checks if k == 8]
    rho_values = {round(row.rho, 9) for row, _ in k510}
    expected = {
        round((5.0 - math.sqrt(5.0)) / 10.0, 9),
        round((5.0 + math.sqrt(5.0)) / 10.0, 9),
    }
    structure = (
        all(row.n == 60 for row, _ in k510)
        and rho_values == expected
        and len({dtp for _, dtp in k510}) == 5
        and all(row.n == 24 and round(row.rho, 9) == 0.5 for row, _ in k8)
        and len({dtp for _, dtp in k8}) == 4
    )
    worst = result.deviation.max()
    report(
        4,
        "k=5,10 and k=8 two-form table",
        structure and worst < 1e-9,
        f"worst={worst:.2e}",
    )


def test_criterion_05_seeded_k2_worked_example():
    (cert,) = solve_seeded(2, Fraction(2, 3), Fraction(2, 5)).solutions
    expected_rho = 2.0 / 3.0 * (1.0 - math.sin(7.0 * math.pi / 30.0))
    ok = (
        cert.N == 30
        and abs(cert.rho - expected_rho) < 1e-12
        and set(cert.generators)
        == {Fraction(4, 15), Fraction(2, 5), Fraction(23, 30), Fraction(9, 10)}
        and cert.max_deviation < 1e-9
    )
    report(
        5,
        "seeded k=2 worked example end to end",
        ok,
        f"N={cert.N}, rho={cert.rho:.6f}, dev={cert.max_deviation:.2e}",
    )


def test_criterion_06_closed_form_spectrum_equivalence():
    rng = np.random.default_rng(1729)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 13))
        params = CoinParams.from_delta(
            rng.uniform(0.0, 1.0), rng.uniform(0.0, TWO_PI)
        )
        dense = np.linalg.eigvals(walk_matrix(build_walk_operator(k, params)))
        worst = max(worst, phase_multiset_distance(full_spectrum(k, params), dense))
    report(6, "closed-form spectrum vs dense eigensolver", worst < 1e-10, f"worst={worst:.2e}")


def test_criterion_07_weight_formula_defining_property():
    # the block gains an eigenvalue +-exp(2*pi*i*m/n) (the sign is fixed by
    # the branch the trace selects) whenever rho_l(m/n) lands in (0, 1)
    rng = np.random.default_rng(2718)
    checked = 0
    worst = 0.0
    while checked < 200:
        k = int(rng.integers(2, 9))
        l = int(rng.integers(0, k))
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, n))
        v = int(rng.integers(1, 13))
        u = int(rng.integers(0, v))
        delta = TWO_PI * u / v
        forms, degenerate = weight_forms(k, Fraction(u, v))
        if l in degenerate:
            continue
        (x,) = (x for x, blocks in forms.items() if l in blocks)
        rho = weight(Fraction(m, n), Fraction(u, v), x)
        if not 1e-6 < rho < 1.0 - 1e-6:
            continue
        target = cmath.exp(2j * math.pi * m / n)
        pair = eigenvalues_closed_form(k, l, CoinParams.from_delta(rho, delta))
        gap = min(min(abs(z - target), abs(z + target)) for z in pair)
        worst = max(worst, gap)
        checked += 1
    report(7, "weight-formula defining property (200 draws)", worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_08_special_state_example():
    params = CoinParams(SPECIAL_RHO)
    basis = eigenbasis(4, params)
    subspace = demoivre_subspace(basis, 5)
    state = build_special_state(subspace, [1.0] * len(subspace.values))
    op = build_walk_operator(4, params)
    fidelity = abs(np.vdot(state.amplitudes, evolve(state, op, 5).amplitudes))
    full_gap = power_deviation(4, params, 5)

    column = TABLE6_COLUMNS[Fraction(2, 5)]
    phase_ok = True
    for block, expected in ((1, column.block1), (3, column.block3)):
        got = sorted(
            (cmath.phase(value) / TWO_PI) % 1.0
            for value in basis.values[basis.blocks == block].tolist()
        )
        want = sorted(float(f) for f in expected)
        phase_ok &= bool(np.max(np.abs(np.array(got) - want)) < 1e-10)

    report(
        8,
        "five-periodic state without a full revival",
        fidelity > 1.0 - 1e-9 and full_gap > 0.5 and phase_ok,
        f"fidelity={fidelity:.12f}, |U^5-I|={full_gap:.3f}",
    )


def test_criterion_09_negative_control_k7():
    ok = True
    details = []
    for rho in (0.2, 0.5, 0.8):
        params = CoinParams.from_delta(rho, 0.0)
        ok &= revival_period(7, params, max_n=500) is None
        matrix = walk_matrix(build_walk_operator(7, params))
        eye = np.eye(14)
        power = np.array(eye)
        smallest = np.inf
        for _ in range(500):
            power = matrix @ power
            smallest = min(smallest, float(np.max(np.abs(power - eye))))
        ok &= smallest > 0.05
        details.append(f"rho={rho}: min={smallest:.3f}")
    report(9, "k=7 has no revival up to N=500", ok, "; ".join(details))


def test_criterion_10_doubling_property():
    certificates = []
    for dtp in (Fraction(0), Fraction(1, 3), Fraction(2, 3)):
        certificates.extend(enumerate_seeded(3, dtp, max_den=16, max_n=30).solutions)
    for dtp in (Fraction(t, 5) for t in range(5)):
        certificates.extend(enumerate_seeded(5, dtp, max_den=60).solutions)
    certificates.append(solve_rho_edge(3, Fraction(1, 3), 0).solutions[0])
    certificates.append(solve_rho_edge(3, Fraction(1, 3), 1).solutions[0])
    certificates.append(solve_rho_edge(5, Fraction(2, 5), 0).solutions[0])
    certificates.append(solve_rho_edge(5, Fraction(2, 5), 1).solutions[0])
    worst = 0.0
    for cert in certificates:
        assert cert.k in (3, 5)
        worst = max(worst, power_deviation(2 * cert.k, cert.params, cert.N))
    report(
        10,
        "odd-cycle certificates double",
        worst < 1e-9,
        f"{len(certificates)} certificates, worst={worst:.2e}",
    )


def line_probabilities(initial, steps):
    """The window of a Hadamard line walk and its per-position probabilities at each step."""
    positions, tables = line_steps(initial, HADAMARD, steps)
    return positions, [np.sum(np.abs(table) ** 2, axis=1) for table in tables]


def test_criterion_11_line_walk_sanity():
    _, probs100 = line_probabilities({0: (1.0, 0.0)}, 100)
    prob_drift = max(abs(probs.sum() - 1.0) for probs in probs100)

    positions3, probs3 = line_probabilities({0: (1.0, 0.0)}, 3)
    skew = probs3[-1][positions3 < 0].sum() - probs3[-1][positions3 > 0].sum()

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    _, probs20 = line_probabilities({0: (inv_sqrt2, 1j * inv_sqrt2)}, 20)
    asymmetry = float(np.max(np.abs(probs20[-1] - probs20[-1][::-1])))

    report(
        11,
        "line-walk sanity",
        len(probs100) == 101 and prob_drift < 1e-12 and skew > 0.0 and asymmetry < 1e-12,
        f"drift={prob_drift:.1e}, skew={skew:.3f}, asymmetry={asymmetry:.1e}",
    )
