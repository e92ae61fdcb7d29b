"""One pass of one workload in a fresh process; `run.py` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --pass K [--trace PATH]
    python3 perfbench/worker.py --setup-only

The process sets up first (import cvmet, load a config, make the first LAPACK
call) and records the monotonic clock when that is done, so the parent can
time set-up from before it started the process.  It then runs the ops of the
pass back to back, checks each output, and prints one JSON line.  With
`--trace PATH` it installs the tracer, writes its spans to PATH after the
pass and adds the per-layer statistics to the JSON line.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def set_up():
    """Import cvmet from this checkout, load a config, make one LAPACK call."""
    sys.path.insert(0, SRC)
    import numpy as np
    import cvmet
    from cvmet import cli

    if not os.path.abspath(cvmet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cvmet imported from {cvmet.__file__}, not from {SRC}")
    cli.load_config("qfi", None, [])
    np.linalg.eigh(np.eye(2))
    return time.monotonic()


THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads", "mkl_get_max_threads")


def blas_threads():
    """Thread count of the BLAS library this process has loaded, or "unknown".

    Asks every loaded shared library whose path names a BLAS (found in
    /proc/self/maps, so a wheel, system or conda OpenBLAS and MKL all count).
    """
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if ".so" in line and ("blas" in line.lower() or "mkl" in line)})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def environment() -> dict:
    """Versions, BLAS vendor and the BLAS thread count this process really uses."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model}


def run_op(op, refs):
    """Call the op, check its output; (status, reason, wall s, cpu s)."""
    import contextlib
    import io

    import checks
    from cvmet import claims, cli

    out = io.StringIO()
    error = None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if op.claim:
            result = getattr(claims, op.claim)()
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        error = exc
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if error is not None:
        status, reason = checks.FAILED, f"raised {error!r}"
    elif op.claim:
        status, reason = checks.classify_claim(result)
    else:
        status, reason = checks.classify_cli(op.command, op.case, code, out.getvalue(), refs)
    return status, reason, wall, cpu


def main(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", metavar="PATH")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import json
    import resource

    ready = set_up()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import checks
    import tracer
    import workloads

    refs = checks.load_references()
    known = refs["known_failures"]
    ops = workloads.ops_for(args.workload, args.seed, args.pass_index)
    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    results = []
    try:
        for op in ops:
            if trace:
                trace.op = op.id
            status, reason, wall, cpu = run_op(op, refs)
            results.append({"id": op.id, "status": status, "reason": reason,
                            "known": status == checks.FAILED
                            and known.get(op.id, {}).get("reason") == reason,
                            "wall_s": wall, "cpu_s": cpu})
    finally:
        if trace:
            trace.uninstall()
    summary = {"ready": ready, "ops": results,
               "wall_s": sum(r["wall_s"] for r in results),
               "cpu_s": sum(r["cpu_s"] for r in results),
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "env": environment()}
    if trace:
        summary["layers"] = tracer.layer_stats(trace.spans, trace.counts)
        summary["layers"]["trace.span_cost_s"] = len(trace.spans) * tracer.span_cost()
        trace.write_spans(args.trace)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
