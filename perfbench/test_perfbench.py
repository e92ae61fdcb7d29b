"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCH = json.load(fh)
REFS = checks.load_references()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

QFI_COLUMNS = ("strategy,m,N,theta1,theta2,parameter,method,F,F_gen,F_asym,"
               "step_used,delta_theta,converged,dim_used")


def _qfi_output(case, f_fd=None, f_gen=None, converged="true", dim=None):
    exact = checks.qfi_theta2(case["strategy"], case["m"], case["n"], case["theta1"])
    f_fd = exact if f_fd is None else f_fd
    f_gen = exact if f_gen is None else f_gen
    dim = REFS["qfi_dim_used"][case["key"]] if dim is None else dim
    row = (f"{case['strategy']},{case['m']},{case['n']},{case['theta1']!r},"
           f"{case['theta2']!r},theta2,finite_difference,{f_fd!r},{f_gen!r},1.0,"
           f"0.0001,{1 / math.sqrt(f_fd)!r},{converged},{dim}")
    return f"# cvmet 0.1.0\n{QFI_COLUMNS}\n{row}\n"


CASE = {"key": "m=2,N=8", "strategy": "coherent_superposition", "m": 2, "n": 8,
        "theta1": 0.3, "theta2": 0.05}


@pytest.mark.parametrize("kwargs, status", [
    ({}, checks.OK),
    ({"converged": "false"}, checks.FLAGGED),
    ({"f_fd": 1.01 * 80826.7776}, checks.FAILED),          # converged but wrong
    ({"f_gen": float("nan")}, checks.FAILED),
    ({"dim": 128}, checks.FAILED),                         # dim_used moved
])
def test_classifier_on_qfi_rows(kwargs, status):
    got, _ = checks.classify_cli("qfi", CASE, 0, _qfi_output(CASE, **kwargs), REFS)
    assert got == status


@pytest.mark.parametrize("code, status", [(1, checks.FAILED), (2, checks.FLAGGED),
                                          (3, checks.FAILED)])
def test_classifier_on_exit_codes(code, status):
    assert checks.classify_cli("qfi", CASE, code, "", REFS) == (status, f"exit {code}")


def test_classifier_on_claims_and_unreadable_output():
    class Result:
        number, passed, details = 8, False, "slope off"
    assert checks.classify_claim(Result)[0] == checks.FAILED
    Result.passed = True
    assert checks.classify_claim(Result)[0] == checks.OK
    assert checks.classify_cli("qfi", CASE, 0, "garbage", REFS)[0] == checks.FAILED


def test_known_failures_name_real_ops():
    ids = {op.id for w in workloads.BUILDERS for op in workloads.ops_for(w, 0, 0)}
    assert set(REFS["known_failures"]) <= ids


def test_closed_form_matches_the_linear_laws():
    # m = 1: switch theta1^2 N^4 + 4 N^2 Var(P), cs 16 N^4 theta1^2 + 16 N^2 Var(P)
    for n in (2, 5, 9):
        assert checks.qfi_theta2("switch", 1, n, 0.1) == pytest.approx(
            0.01 * n ** 4 + 2 * n ** 2, rel=1e-14)
        assert checks.qfi_theta2("coherent_superposition", 1, n, 0.1) == pytest.approx(
            0.16 * n ** 4 + 8 * n ** 2, rel=1e-14)


def test_self_time_on_nested_spans():
    spans = [  # (id, parent, op, name, start, end)
        (0, None, "op", "a", 0.0, 10.0),
        (1, 0, "op", "b", 1.0, 4.0),
        (2, 1, "op", "c", 2.0, 3.0),
        (3, 0, "op", "c", 5.0, 7.0),
        (4, 3, "op", "c", 5.5, 6.0),     # re-entrant: not counted twice inclusive
    ]
    stats = tracer.layer_stats(spans, {"x.count": 3})
    assert stats["a.self_s"] == pytest.approx(10 - 3 - 2)
    assert stats["b.self_s"] == pytest.approx(3 - 1)
    assert stats["c.self_s"] == pytest.approx(1 + 1.5 + 0.5)
    assert stats["c.s"] == pytest.approx(1 + 2)
    assert (stats["a.calls"], stats["c.calls"], stats["x.count"]) == (1, 3, 3)
    assert tracer.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == \
        pytest.approx(10 - 5 - 1)


def test_metric_names_and_units():
    names = ([w["name"] for w in BENCH["workloads"]]
             + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_every_layer_metric_names_what_it_should_move():
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    names = {w["name"] for w in BENCH["workloads"]}
    assert set(layers.MOVES) == {m["name"] for m in BENCH["per_layer"]}
    for name, (moves, where) in layers.MOVES.items():
        assert moves and set(moves) <= end_to_end, name
        assert where and set(where) <= names, name


def test_seed_permutes_and_jitters_within_the_band():
    for workload in workloads.BUILDERS:
        first = workloads.ops_for(workload, 7, 0)
        assert first == workloads.ops_for(workload, 7, 0)
        assert sorted(op.id for op in first) == sorted(
            op.id for op in workloads.ops_for(workload, 8, 0))
    orders = {tuple(op.id for op in workloads.ops_for("claims", s, 0)) for s in range(5)}
    assert len(orders) > 1
    for op in workloads.ops_for("qfi_large_dim", 3, 1):
        nominal = next(c for c in workloads.QFI_CASES if f"m={c[0]},N={c[1]}" == op.case["key"])
        assert abs(op.case["theta1"] / nominal[2] - 1) <= workloads.JITTER
        assert abs(op.case["theta2"] / nominal[3] - 1) <= workloads.JITTER
        assert f"theta1={op.case['theta1']!r}" in op.argv


def test_tracer_sees_every_call_site_and_restores_them():
    import numpy as np
    from cvmet import cvspace, strategies
    from cvmet.strategies import StrategyConfig

    originals = (strategies.propagator, cvspace.propagator, np.linalg.eigh,
                 cvspace.Operator.__post_init__)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert strategies.propagator is cvspace.propagator is not originals[1]
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=2, m=1,
                             strategy="coherent_superposition")
        strategies.cs_output(cfg, 16)
    finally:
        trace.uninstall()
    assert (strategies.propagator, cvspace.propagator, np.linalg.eigh,
            cvspace.Operator.__post_init__) == originals
    stats = tracer.layer_stats(trace.spans, trace.counts)
    assert stats["cvspace.propagator.calls"] == stats["cvspace.eigh.calls"] == 2
    assert stats["cvspace.eigh.d3_work"] == 2 * 16 ** 3
    assert stats["strategies.cs_output.calls"] == 1
    assert stats["cvspace.Operator.calls"] > 2


def test_blas_threads_are_fixed_whatever_the_caller_sets(monkeypatch):
    nproc = str(len(os.sched_getaffinity(0)))
    for inherited in ("1", "64", "junk"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
        env = run._blas_env()
        assert all(env[var] == nproc for var in run.BLAS_THREAD_VARS)


def test_blas_thread_count_is_read_or_reported_unknown():
    threads = worker.blas_threads()
    assert threads == "unknown" or (isinstance(threads, int) and threads >= 1)


def test_a_traced_call_costs_more_than_a_plain_one():
    assert tracer.span_cost(calls=2000, batches=3) > 0
