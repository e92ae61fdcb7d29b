"""Acceptance gate: every acceptance criterion at its stated tolerance.

The whole suite runs once through the real `claims` CLI command (so
this also certifies headless operation and the exit code), and each criterion
then asserts its own PASS row, printing one line per criterion.  Criterion
details (measured values, tolerances) travel in the CSV details column.
"""

import csv
import io

import pytest

from cvmet import cli

CRITERIA = {
    1: "switch linear QFI matches theta2^2 N^4 + 4 N^2 Var(X) (rel 1e-3)",
    2: "cs linear QFI: Fock/generator agree, equal 16 N^4 theta1^2 + 16 N^2 Var(P), theta2-free",
    3: "precision ratios 1/4 (2%), 3/16 (5%), 1/8 (5%) at the gated largest N",
    4: "delta theta2 scaling slope -(m+1) within 0.05, both strategies, m in {1,2,3}",
    5: "ordering coefficients exact vs oracle; factorization residual < 1e-7 at d=128",
    6: "generic builders match factorized closed forms, fidelity >= 1 - 1e-7",
    7: "composite realization equals cs under theta_j = T G_j / 2N, fidelity >= 1 - 1e-12",
    8: "optomech delta^2 g: slope -6 +- 0.2, plateau < 10%, quantum bound respected",
    9: "property suite: gauge invariance, positivity, conservation, commutator, CSV determinism",
}


@pytest.fixture(scope="module")
def claims_run(tmp_path_factory):
    out_path = tmp_path_factory.mktemp("claims") / "claims.csv"
    exit_code = cli.main(["claims", "--out", str(out_path)])
    body = out_path.read_text().split("\n", 1)[1]
    rows = list(csv.DictReader(io.StringIO(body)))
    by_number = {int(row["claim"]): row for row in rows}
    return exit_code, by_number


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(claims_run, number):
    _, results = claims_run
    row = results[number]
    line = f"[criterion {number}] {row['status']}: {CRITERIA[number]} -- {row['details']}"
    print(line)
    assert row["status"] == "PASS", line


def test_claims_command_exits_zero(claims_run):
    exit_code, results = claims_run
    assert len(results) == len(CRITERIA)
    assert exit_code == 0
