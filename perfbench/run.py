"""cvmet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/cvmet`.  Each workload is a
closed loop: one client makes back-to-back calls into cvmet's public entry
points and checks every output before the call counts as done (see
`workloads.py` and `checks.py`).  A run repeats passes over the workload's ops,
each pass in a fresh process (`worker.py`), for as long as another pass fits
in S seconds; a fresh process per pass means no pass profits from work cached
by an earlier one.

`--trace 0` reports the end-to-end metrics of `BENCHMARK.json`, measured with
tracing off:

* setup_s      median, over every pass process and the set-up-only processes
               spread through the run (at least 21 samples in all), of the
               time from starting the process to the first op being ready
               (import cvmet, config load, first LAPACK call)
* wall_s       median over passes of the wall time spent in the ops of a pass
* cpu_s        median over passes of process CPU time (user + sys, all BLAS
               threads) spent in the same ops
* ops_ok_frac  share of attempted ops that exited 0 with every output checked
* peak_rss_mb  median over passes of the peak resident set of the pass process

`--trace 1` runs each pass twice on the same inputs, untraced and traced, and
reports the per-layer metrics: counts from the first traced pass (they repeat
exactly for a seed), times as medians over traced passes, and
`trace.overhead_s`, the median over passes of a pass's traced minus its
untraced `wall_s`.  That difference is often lost in the run-to-run spread of
`wall_s`, so `trace.span_cost_s` also estimates the tracer's cost directly: a
pass's span count times the measured cost of one traced no-op call.  Spans go
to `.perfbench/` in the checkout.

Every pass runs with the BLAS thread count set to the number of usable CPUs,
whatever the caller's environment says; the run fails if the BLAS library
reports more threads, and says so if it cannot tell.  The last line
of standard output is the JSON result; the lines before it are a readable
report and the environment record.  Ops listed in `references.json` as known
failures at the seed still count against `ops_ok_frac` and are reported, but
not as `failed`: `failed` counts outcomes the references do not expect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES_PER_PASS = 2
SETUP_SAMPLES = 21  # at least this many set-up times per untraced run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT = 170.0  # seconds for the whole run


class RunError(Exception):
    pass


def _blas_env() -> dict:
    """The caller's environment with every BLAS thread count set to nproc.

    Whatever the caller's shell sets is overridden, so two runs on one machine
    always use the same number of BLAS threads.
    """
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def _worker(args, env, deadline):
    """Run one worker process; (its JSON line, seconds from start to ready)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} ran past the time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def run(workload, seed, seconds, traced, env):
    """Passes while another fits in `seconds`; (untraced, traced, set-up times).

    Untraced runs start SETUP_PROBES_PER_PASS set-up-only processes before
    each pass, and more at the end up to SETUP_SAMPLES, so the set-up samples
    spread over the run.
    """
    begun = time.monotonic()
    deadline = begun + TIME_LIMIT
    out_dir = os.path.join(ROOT, ".perfbench")
    if traced:
        os.makedirs(out_dir, exist_ok=True)
    plain, spans, setups = [], [], []
    while True:
        k = len(plain)
        for _ in range(0 if traced else SETUP_PROBES_PER_PASS):
            setups.append(_worker(["--setup-only"], env, deadline)[1])
        args = ["--workload", workload, "--seed", str(seed), "--pass", str(k)]
        result, setup = _worker(args, env, deadline)
        plain.append(result)
        setups.append(setup)
        if traced:
            path = os.path.join(out_dir, f"spans-{workload}-seed{seed}-pass{k}.jsonl")
            spans.append(_worker(args + ["--trace", path], env, deadline)[0])
        elapsed = time.monotonic() - begun
        if elapsed * (k + 2) / (k + 1) > seconds:
            break
    for _ in range(0 if traced else SETUP_SAMPLES - len(setups)):
        setups.append(_worker(["--setup-only"], env, deadline)[1])
    return plain, spans, setups


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(plain, setups) -> dict:
    ops = [op for p in plain for op in p["ops"]]
    return {"setup_s": statistics.median(setups),
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "ops_ok_frac": sum(op["status"] == "ok" for op in ops) / len(ops),
            "peak_rss_mb": _median(plain, "maxrss_kb") / 1024.0}


def per_layer(plain, spans, bench) -> dict:
    metrics = {}
    for spec in bench["per_layer"]:
        name = spec["name"]
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(
                t["wall_s"] - p["wall_s"] for p, t in zip(plain, spans))
        elif spec["unit"] == "s":
            metrics[name] = statistics.median(p["layers"].get(name, 0.0) for p in spans)
        else:
            metrics[name] = spans[0]["layers"].get(name, 0)
    return metrics


def report(workload, seed, plain, spans, ops, metrics, units):
    counts = {s: sum(op["status"] == s for op in ops) for s in ("ok", "flagged", "failed")}
    print(f"workload {workload}, seed {seed}: {len(plain)} pass(es)"
          + (f" untraced and {len(spans)} traced" if spans else "")
          + f", {len(ops)} ops: {counts['ok']} ok, {counts['flagged']} flagged, "
          f"{counts['failed']} failed")
    if not spans:
        for name, value in metrics.items():
            print(f"  {name:<16} {value:.6g} {units[name]}")
        print(f"  {'ops_failed_frac':<16} {counts['failed'] / len(ops):.6g} ratio")
    seen = set()
    for op in ops:
        if op["status"] != "ok" and (op["id"], op["reason"]) not in seen:
            seen.add((op["id"], op["reason"]))
            known = " (known failure at the seed)" if op["known"] else ""
            print(f"  {op['status']}: {op['id']}: {op['reason']}{known}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "cvmet", "__init__.py")):
        print(f"no cvmet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = _blas_env()
    try:
        plain, spans, setups = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), env)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    machine = plain[0]["env"]
    threads = machine["blas_threads"]
    if threads != "unknown" and threads > machine["nproc"]:
        print(f"BLAS uses {threads} threads on {machine['nproc']} CPUs", file=sys.stderr)
        return 1

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = per_layer(plain, spans, bench) if args.trace else end_to_end(plain, setups)
    units = {spec["name"]: spec["unit"] for spec in specs}
    ops = [op for p in plain + spans for op in p["ops"]]
    report(args.workload, args.seed, plain, spans, ops, metrics, units)
    print(f"BLAS threads: {threads}" + (" (could not be read, so not checked against nproc)"
                                        if threads == "unknown" else
                                        f" of {machine['nproc']} CPUs"))
    print(json.dumps({"environment": machine}))
    failed = sum(op["status"] == "failed" and not op["known"] for op in ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
