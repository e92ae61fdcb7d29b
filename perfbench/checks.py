"""Correctness checks and the ok / flagged / failed classifier.

The references do not come from the code under test:

* QFI of the second coupling on the vacuum probe in closed form.  In the
  Heisenberg picture P(s) = P - theta1 s under theta1 X + theta2 P^m, so the
  coherent-superposition branch derivative generator is the integral of
  (P - theta1 s)^m over s in [0, 2N], and the switch branches carry N P^m and
  N (P - N theta1)^m.  Vacuum moments of P are exact rationals, so the value
  is computed in exact arithmetic here.
* the recorded `dim_used` per case, the bch-table rows, and the
  factorization-check residuals and column counts in `references.json`.
* every claim must PASS.

An explicit exit 2 or a `converged=false` row is *flagged*: that is the
behaviour asked of numerically hard inputs.  Exit 1 or 3, an exception, a
claim FAIL, or a converged value outside its tolerance is *failed*.
"""

from __future__ import annotations

import csv
import json
import math
import os
from fractions import Fraction
from math import comb, factorial

OK, FLAGGED, FAILED = "ok", "flagged", "failed"

FD_GEN_REL_TOL = 1e-3      # the claims' fd-vs-generator tolerance
EXACT_REL_TOL = 1e-9       # generator route vs the closed form
DELTA_REL_TOL = 1e-3       # delta_theta vs 1/sqrt(F) of the closed form
LARGE_N_GATE = 10.0        # N |theta1| >= 10 (|<P>| + 1), and <P> = 0 on vacuum
EXIT_STATUS = {0: OK, 2: FLAGGED}

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- closed forms on the vacuum probe --------------------------------------

def _vacuum_moment(k: int) -> Fraction:
    """<0|P^k|0> = (k-1)!! / 2^(k/2) for even k, zero for odd k."""
    if k % 2:
        return Fraction(0)
    half = k // 2
    return Fraction(factorial(k), factorial(half) * 4 ** half)


def _expect(poly) -> Fraction:
    return sum((c * _vacuum_moment(k) for k, c in enumerate(poly)), Fraction(0))


def _square(poly):
    out = [Fraction(0)] * (2 * len(poly) - 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(poly):
            out[i + j] += a * b
    return out


def _shifted_power(m: int, shift: Fraction, weight: Fraction):
    """Coefficients (by power of P) of weight * (P - shift)^m."""
    out = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        out[m - j] += weight * comb(m, j) * (-shift) ** j
    return out


def qfi_theta2(strategy: str, m: int, n: int, theta1: float) -> float:
    """Exact QFI of theta2 on the vacuum probe (it does not depend on theta2)."""
    t1 = Fraction(theta1)
    if strategy == "switch":
        g0 = _shifted_power(m, Fraction(0), Fraction(n))
        g1 = _shifted_power(m, n * t1, Fraction(n))
        mean = (_expect(g0) + _expect(g1)) / 2
        value = 4 * ((_expect(_square(g0)) + _expect(_square(g1))) / 2 - mean ** 2)
    else:
        span = Fraction(2 * n)
        g = [Fraction(0)] * (m + 1)
        for j in range(m + 1):
            g[m - j] += comb(m, j) * (-t1) ** j * span ** (j + 1) / (j + 1)
        value = 4 * _expect(_square(g))
    return float(value)


def precision_ratio(m: int, n: int, theta1: float) -> float:
    """delta theta2 (coherent superposition) / delta theta2 (switch)."""
    return math.sqrt(qfi_theta2("switch", m, n, theta1)
                     / qfi_theta2("coherent_superposition", m, n, theta1))


# --- per-command checks ----------------------------------------------------

def _close(a: float, b: float, rel_tol: float) -> bool:
    """False for NaN, so a missing value never passes."""
    return abs(a - b) <= rel_tol * max(abs(b), 1e-300)


def _rows(stdout: str):
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# cvmet "):
        raise ValueError("missing version line")
    header, *rows = list(csv.reader(lines[1:]))
    return [dict(zip(header, row)) for row in rows]


def _estimate(case: dict, n: int, f_fd: str, f_gen: str, delta: str,
              converged: str, dim_used: str, recorded_dim):
    """Check one QFI estimate row; None when it passes."""
    exact = qfi_theta2(case["strategy"], case["m"], n, case["theta1"])
    if not _close(float(f_gen), exact, EXACT_REL_TOL):
        return FAILED, f"N={n}: F_gen {f_gen} vs exact {exact!r}"
    if converged != "true":
        return FLAGGED, f"N={n}: converged={converged}"
    if not _close(float(f_fd), float(f_gen), FD_GEN_REL_TOL):
        return FAILED, f"N={n}: converged fd {f_fd} vs generator {f_gen}"
    if not _close(float(delta), 1.0 / math.sqrt(exact), DELTA_REL_TOL):
        return FAILED, f"N={n}: delta_theta {delta} vs {1.0 / math.sqrt(exact)!r}"
    if recorded_dim is not None and int(dim_used) != recorded_dim:
        return FAILED, f"N={n}: dim_used {dim_used} vs recorded {recorded_dim}"
    return None


def _same_case(case: dict, row: dict, n: int) -> bool:
    return (row["strategy"] == case["strategy"] and int(row["m"]) == case["m"]
            and int(row["N"]) == n and float(row["theta1"]) == case["theta1"]
            and float(row["theta2"]) == case["theta2"])


def check_qfi(case: dict, rows, refs: dict):
    if len(rows) != 1 or not _same_case(case, rows[0], case["n"]):
        return FAILED, "qfi row does not echo its config"
    row = rows[0]
    recorded = refs["qfi_dim_used"].get(case["key"])
    return _estimate(case, case["n"], row["F"], row["F_gen"], row["delta_theta"],
                     row["converged"], row["dim_used"], recorded)


def check_sweep(case: dict, rows, refs: dict):
    ns = case["n_values"]
    if len(rows) != len(ns) or not all(_same_case(case, r, n) for r, n in zip(rows, ns)):
        return FAILED, "sweep rows do not echo their configs"
    recorded = refs["sweep_dim_used"].get(case["key"]) or [None] * len(ns)
    flagged = None
    for row, n, dim in zip(rows, ns, recorded):
        verdict = _estimate(case, n, row["F_fd"], row["F_gen"], row["delta_theta"],
                            row["converged"], row["dim_used"], dim)
        if verdict and verdict[0] == FAILED:
            return verdict
        flagged = flagged or verdict
    return flagged


def check_ratio(case: dict, rows, refs: dict):
    m, theta1 = case["m"], case["theta1"]
    if [(int(r["m"]), int(r["N"])) for r in rows] != [(m, n) for n in case["n_values"]]:
        return FAILED, "ratio rows do not match the requested grid"
    formula = (m + 1) / 2.0 ** (m + 2)
    for row in rows:
        n = int(row["N"])
        if float(row["ratio_formula"]) != formula:
            return FAILED, f"N={n}: formula {row['ratio_formula']} vs {formula!r}"
        below_gate = n * abs(theta1) < LARGE_N_GATE
        if below_gate != (row["ratio_measured"] == ""):
            return FAILED, f"N={n}: large-N gate applied wrongly"
        if not below_gate:
            exact = precision_ratio(m, n, theta1)
            if not _close(float(row["ratio_measured"]), exact, EXACT_REL_TOL):
                return FAILED, f"N={n}: ratio {row['ratio_measured']} vs exact {exact!r}"
    return None


def check_bch_table(case: dict, rows, refs: dict):
    got = [[r[c] for c in ("m", "n", "variant", "power", "coeff_re", "coeff_im")]
           for r in rows]
    if got != refs["bch_table"]:
        return FAILED, "bch-table rows differ from the recorded table"
    return None


def check_factorization(case: dict, rows, refs: dict):
    recorded = refs["factorization"]
    if len(rows) != len(recorded):
        return FAILED, "factorization-check row count differs"
    for row, (m, variant, lam, dim, residual, columns) in zip(rows, recorded):
        key = (int(row["m"]), row["variant"], float(row["lambda_im"]), int(row["dim"]))
        if key != (m, variant, lam, dim):
            return FAILED, f"factorization row {key} out of order"
        if int(row["columns_checked"]) != columns:
            return FAILED, f"{key}: columns_checked {row['columns_checked']} vs {columns}"
        # round-off residuals move with BLAS threading; a factor 10 does not
        if not float(row["residual"]) <= max(10 * residual, 1e-13):
            return FAILED, f"{key}: residual {row['residual']} vs recorded {residual!r}"
    return None


CLI_CHECKS = {
    "qfi": check_qfi,
    "sweep": check_sweep,
    "ratio": check_ratio,
    "bch-table": check_bch_table,
    "factorization-check": check_factorization,
}


def classify_cli(command: str, case: dict, exit_code: int, stdout: str, refs: dict):
    """(status, reason) of one CLI op from its exit code and CSV output."""
    status = EXIT_STATUS.get(exit_code, FAILED)
    if status != OK:
        return status, f"exit {exit_code}"
    try:
        verdict = CLI_CHECKS[command](case, _rows(stdout), refs)
    except (ValueError, KeyError) as exc:
        return FAILED, f"unreadable output: {exc!r}"
    return verdict or (OK, "")


def classify_claim(result) -> tuple:
    if result.passed:
        return OK, ""
    return FAILED, f"claim {result.number} FAIL: {result.details}"
