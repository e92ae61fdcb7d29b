"""A standing guard over the input space of the CLI (ROADMAP item 3).

A seeded grid of `qfi`, `sweep`, `ratio`, `factorization-check` and
`optomech` configs runs through `cli.main`, and every run must

* exit 0, 1 or 2, never 3 ("internal contract violation"): an input that
  is only numerically hard gets exit 2 with a reason;
* print, for a converged `qfi` or `sweep` row with a finite F_gen, an F
  within 1e-3 relative of that independent value;
* name its reason on stderr for an exit 2 and for every row it reports
  `converged=false`.

The dense P^m of the generator bands fails its Hermiticity check at m = 3
from d = 512, at m = 4 from d = 128 (ROADMAP item 3).  The ROADMAP's
smallest such inputs stay in the grid as strict xfails, which a fix turns
into passes that must then be unmarked: two theta2 inputs remain, and
`qfi --set m=3 --set estimate=theta1`, which exited 3 there until every
theta1 row went to the momentum nodes, is a plain case.  The seeded rows
keep to the inputs the dense P^m holds (Fock-route rows at m <= 2,
factorization checks at d <= 64), and to small N and theta1 on the Fock
route, where a row that climbs to d = 1024 costs about a second, so the
guard runs in about 2 s.
"""

import contextlib
import csv
import io
import json
import math
import random

import pytest

from cvmet import cli

SEED = 2026
PROBES = ({"kind": "vacuum"}, {"kind": "fock", "n": 3},
          {"kind": "coherent", "alpha_re": 0.6, "alpha_im": -0.4},
          {"kind": "squeezed_vacuum", "r": 0.4})
STRATEGIES = ("switch", "coherent_superposition")
ITEM_3 = pytest.mark.xfail(strict=True, reason="ROADMAP item 3")


def _argv(command: str, **sets) -> tuple:
    return (command,) + tuple(arg for key, value in sets.items()
                              for arg in ("--set", f"{key}={json.dumps(value)}"))


def _grid() -> list:
    rng = random.Random(SEED)

    def estimate(m_top, n_range, theta1_range):
        return dict(strategy=rng.choice(STRATEGIES), m=rng.randint(1, m_top),
                    estimate=rng.choice(("theta1", "theta2")),
                    n_queries=rng.randint(*n_range),
                    theta1=round(rng.uniform(*theta1_range), 4),
                    theta2=round(rng.uniform(0.02, 0.3), 4), probe=rng.choice(PROBES))

    cases = []
    # Fock-route rows (theta2) and node rows (theta1); and rows shifted past
    # the reach at every m up to 5, which the momentum nodes take
    cases += [_argv("qfi", **estimate(2, (1, 6), (0.02, 0.3))) for _ in range(14)]
    cases += [_argv("qfi", **estimate(5, (40, 80), (1.2, 2.0))) for _ in range(8)]
    for _ in range(3):
        sets = estimate(2, (1, 1), (0.02, 0.3))
        del sets["n_queries"]
        first = rng.randint(1, 4)
        cases.append(_argv("sweep", **sets, sweep={"param": "n_queries",
                                                    "values": [first, first + 2, first + 4]}))
    for _ in range(3):
        cases.append(_argv("ratio", ratio={"m_values": sorted(rng.sample(range(1, 6), 2)),
                                           "theta1": round(rng.uniform(0.3, 1.2), 4),
                                           "n_values": [4, rng.randint(8, 30), 64]},
                           probe=rng.choice(PROBES)))
    for _ in range(3):
        cases.append(_argv("factorization-check", factorization={"cases": [
            [rng.randint(1, 4), round(rng.uniform(-0.3, 0.3), 3), rng.choice((32, 64)),
             rng.choice(("AB", "BA"))] for _ in range(2)]}))
    for _ in range(3):
        cases.append(_argv("optomech", optomech={"tau": round(rng.uniform(0.1, 2.5), 3),
                                                 "g": round(rng.uniform(0.01, 0.1), 3),
                                                 "probe": rng.choice(PROBES)}))
    exit_3 = ((0, _argv("qfi", m=4)),
              (2, _argv("sweep", strategy="coherent_superposition", m=3, theta1=0.05,
                        theta2=0.05, sweep={"param": "n_queries",
                                            "values": list(range(2, 13))})))
    return ([pytest.param(argv, id=f"{argv[0]}-{i}") for i, argv in enumerate(cases)]
            + [pytest.param(_argv("qfi", m=3, estimate="theta1"), id="qfi-theta1-m3")]
            + [pytest.param(argv, marks=ITEM_3, id=f"{argv[0]}-exit3-{i}")
               for i, argv in exit_3])


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _estimate_rows(command: str, stdout: str) -> list:
    """(F, F_gen, converged) of every row of a `qfi` or `sweep` CSV."""
    body = list(csv.DictReader(io.StringIO(stdout.split("\n", 1)[1])))
    f_column = "F" if command == "qfi" else "F_fd"
    return [(float(row[f_column]), float(row["F_gen"]), row["converged"] == "true")
            for row in body]


@pytest.mark.filterwarnings("ignore:scaling fit")  # optomech's r^2 warning is its output
@pytest.mark.parametrize("argv", _grid())
def test_every_input_exits_with_a_reason_and_a_checked_value(argv):
    code, stdout, stderr = _run(argv)
    assert code in (0, 1, 2), stderr
    if code == 2:
        assert any(line.startswith("cvmet: ") and line.split(": ", 2)[-1].strip()
                   for line in stderr.splitlines()), stderr
    if code != 0 or argv[0] not in ("qfi", "sweep"):
        return
    rows = _estimate_rows(argv[0], stdout)
    assert rows
    for f, f_gen, converged in rows:
        if converged and math.isfinite(f_gen):
            assert abs(f - f_gen) <= 1e-3 * abs(f_gen), (f, f_gen)
    unconverged = sum(not converged for _, _, converged in rows)
    prefix = "cvmet: not converged: "
    reasons = [line for line in stderr.splitlines()
               if line.startswith(prefix) and line.removeprefix(prefix).strip()]
    assert len(reasons) == unconverged, stderr
