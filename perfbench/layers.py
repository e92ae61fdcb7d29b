"""Which end-to-end metric each per-layer metric should move, and where.

Written down before any optimisation lands, so that a later change which
claims a gain on one layer can be held to the workload and end-to-end metric
named here (and to "no change" on the workloads that bypass the layer).
`BENCHMARK.json` cannot carry this mapping, so it lives here; the self-tests
check that the two name the same per-layer metrics.
"""

from __future__ import annotations

from workloads import BUILDERS


def _names(prefix: str, *stats: str) -> tuple:
    return tuple(f"{prefix}.{stat}" for stat in stats)


EIGH_DIMS = (64, 128, 256, 512, 1024)

# (per-layer metric names, end-to-end metrics they should move, workloads)
GROUPS = (
    # numpy.linalg.eigh as cvspace calls it; no change expected on exact_route
    (_names("cvspace.eigh", "calls", "s", "d3_work",
            *(f"calls_d{d}" for d in EIGH_DIMS)),
     ("wall_s", "cpu_s"), ("qfi_large_dim", "claims")),
    # propagator assembly, Operator verification, quadratures, powers, probes;
    # on qfi_large_dim mostly through the d^3 unitarity re-check
    (_names("cvspace.propagator", "calls", "s", "self_s")
     + _names("cvspace.Operator", "calls", "s")
     + _names("cvspace.build_quadrature", "calls", "s")
     + _names("cvspace.operator_power", "calls", "s")
     + _names("cvspace.prepare_probe", "calls"),
     ("wall_s",), ("sweep_small_dim", "qfi_large_dim")),
    # the dimension-doubling loop; evals / calls is its useful-to-attempted ratio
    (_names("cvspace.converge_dimension", "calls", "evals", "unconverged", "s"),
     ("wall_s",), ("qfi_large_dim",)),
    (_names("strategies.switch_output", "calls", "s", "self_s")
     + _names("strategies.cs_output", "calls", "s", "self_s"),
     ("wall_s",), ("sweep_small_dim",)),
    (_names("strategies.factorized", "calls", "s"),
     ("wall_s",), ("claims",)),
    (_names("qfi.qfi_fd", "calls", "s", "builds", "richardson_steps", "unconverged")
     + _names("qfi.qfi_converged", "calls", "s"),
     ("wall_s",), ("sweep_small_dim", "qfi_large_dim")),
    (_names("qfi.qfi_generator", "calls", "s"),
     ("wall_s",), ("exact_route",)),
    # the qfi and sweep commands fill F_asym on every row; ratio never calls it
    (_names("qfi.asymptotic_qfi", "calls", "s"),
     ("wall_s",), ("sweep_small_dim",)),
    # exact algebra; claims reaches it through claims 5 and 6
    (_names("bch.zassenhaus_term", "calls", "s")
     + _names("bch.phase_derivative_generator", "calls", "s")
     + _names("bch.PPoly.to_matrix", "calls", "s")
     + _names("bch.exp_antihermitian", "calls", "s")
     + _names("bch.verify_factorization", "calls", "s"),
     ("wall_s",), ("exact_route", "claims")),
    # optomech (claim 8); no change expected elsewhere
    (_names("applications.homodyne_g_variance", "calls", "s")
     + _names("applications.optomech_state", "calls", "s"),
     ("wall_s", "cpu_s"), ("claims",)),
    (tuple(f"claims.claim_{k}.s" for k in range(1, 10)),
     ("wall_s",), ("claims",)),
    (("cli.command.s", "cli.csv_text.s"),
     ("wall_s",), ("qfi_large_dim", "sweep_small_dim", "exact_route")),
    # median over passes of a pass's traced minus its untraced wall_s; and the
    # pass's span count times the measured cost of one traced no-op call, a
    # steadier estimate of the same cost when it is below the wall_s spread
    (("trace.overhead_s", "trace.span_cost_s"),
     ("wall_s",), tuple(BUILDERS)),
)

MOVES = {name: (metrics, workloads)
         for names, metrics, workloads in GROUPS for name in names}
