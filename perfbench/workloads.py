"""The four workloads as lists of ops, generated from the seed.

Each op is one call into a public entry point: `cvmet.cli.main(argv)` or one
`cvmet.claims.claim_*` function.  The seed (with the pass index) permutes the
op order and jitters theta1 and theta2 by up to +-0.25 %, a band inside which
every op's `dim_used` stays at its recorded value (the checks verify that it
did).  The program only ever sees the generated argv.

Why these four:

* claims: the nine acceptance claims, the ROADMAP's headline end-to-end
  target; claim 8 (optomech, about 200 eigh(256)) dominates it.
* qfi_large_dim: fd-route `qfi` cases whose doubling loop climbs to d = 256
  and 512, where eigh and the d^3 checks dominate; it also holds the m = 3,
  N = 24 case that exits 3 at the seed (ROADMAP 2a).
* sweep_small_dim: many small propagators at d = 128 through `sweep`, where
  Operator verification, quadratures, literal gate application and
  Richardson steps weigh most; the m = 3 coherent-superposition sweep exits 3
  at the seed.
* exact_route: `ratio`, `bch-table` and `factorization-check`, the exact
  generator algebra with almost no eigh; the bypass on which eigh and
  propagator changes should show no change.  It is sized by the width of its
  input grid, never by repeating identical calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

JITTER = 0.0025
CS = "coherent_superposition"

QFI_CASES = ((2, 8, 0.3, 0.05), (2, 10, 0.3, 0.05), (2, 12, 0.3, 0.05),
             (3, 24, 1.2, 0.05))                      # (m, N, theta1, theta2), all CS
SWEEP_STRATEGIES = ("switch", CS)
SWEEP_M = (1, 2, 3)
SWEEP_N = tuple(range(2, 13))
SWEEP_THETA = 0.05
RATIO_M = (1, 2, 3, 4, 5)
RATIO_N = tuple(range(4, 65))
RATIO_THETA1 = 0.75
BCH_M = tuple(range(1, 11))
FACTORIZATION_CASES = tuple([m, lam, 128, variant]
                            for variant in ("AB", "BA")
                            for m, lam in ((1, 0.3), (2, 0.3), (3, 0.1)))
CLAIMS = ("claim_1_switch_linear_qfi", "claim_2_cs_linear_qfi",
          "claim_3_precision_ratios", "claim_4_scaling_exponents",
          "claim_5_zassenhaus", "claim_6_factorized_state_oracles",
          "claim_7_composite_equality", "claim_8_optomech_scaling",
          "claim_9_property_suite")


@dataclass(frozen=True)
class Op:
    """One call: `argv` for `cvmet.cli.main`, or the name of a claim function."""

    id: str
    argv: tuple = ()
    claim: str = ""
    case: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "claim"


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def _sets(**fields) -> tuple:
    out = ()
    for key, value in fields.items():
        out += ("--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return out


def _claims(rng):
    return [Op(name, claim=name) for name in CLAIMS]


def _qfi(rng):
    ops = []
    for m, n, theta1, theta2 in QFI_CASES:
        case = {"key": f"m={m},N={n}", "strategy": CS, "m": m, "n": n,
                "theta1": _jitter(rng, theta1), "theta2": _jitter(rng, theta2)}
        argv = ("qfi",) + _sets(strategy=CS, m=m, n_queries=n,
                                theta1=case["theta1"], theta2=case["theta2"])
        ops.append(Op(f"qfi {case['key']}", argv, case=case))
    return ops


def _sweep(rng):
    ops = []
    values = ", ".join(str(n) for n in SWEEP_N)
    for strategy in SWEEP_STRATEGIES:
        for m in SWEEP_M:
            case = {"key": f"{strategy},m={m}", "strategy": strategy, "m": m,
                    "n_values": list(SWEEP_N), "theta1": _jitter(rng, SWEEP_THETA),
                    "theta2": _jitter(rng, SWEEP_THETA)}
            argv = ("sweep",) + _sets(strategy=strategy, m=m, theta1=case["theta1"],
                                      theta2=case["theta2"])
            argv += ("--set", f'sweep={{"param": "n_queries", "values": [{values}]}}')
            ops.append(Op(f"sweep {case['key']}", argv, case=case))
    return ops


def _exact(rng):
    ops = []
    for m in RATIO_M:
        case = {"m": m, "theta1": _jitter(rng, RATIO_THETA1), "n_values": list(RATIO_N)}
        section = (f'ratio={{"m_values": [{m}], "theta1": {case["theta1"]!r}, '
                   f'"n_values": [{", ".join(str(n) for n in RATIO_N)}]}}')
        ops.append(Op(f"ratio m={m}", ("ratio", "--set", section), case=case))
    bch = f'bch={{"m_values": [{", ".join(str(m) for m in BCH_M)}], "variants": ["AB", "BA"]}}'
    ops.append(Op("bch-table", ("bch-table", "--set", bch)))
    cases = ", ".join(f'[{m}, {lam}, {dim}, "{variant}"]'
                      for m, lam, dim, variant in FACTORIZATION_CASES)
    ops.append(Op("factorization-check",
                  ("factorization-check", "--set", f'factorization={{"cases": [{cases}]}}')))
    return ops


BUILDERS = {
    "claims": _claims,
    "qfi_large_dim": _qfi,
    "sweep_small_dim": _sweep,
    "exact_route": _exact,
}


def ops_for(workload: str, seed: int, pass_index: int) -> list:
    """The ops of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    ops = BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops
