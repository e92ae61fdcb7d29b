"""Span and counter recording around cvmet's layer functions, from outside `src/`.

Modules bind layer functions by name (`from .cvspace import propagator`), so
patching `cvspace.propagator` alone would miss the copies held by
`strategies`, `bch` and `applications`.  `Tracer.install` therefore replaces
every module attribute, dict value and tuple element that *is* the original
function, plus three methods and `numpy.linalg.eigh`, and `uninstall` puts
each one back.

Spans are (span_id, parent_id, op_id, name, start, end) tuples kept in memory
and written out only after the measured pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import statistics
import sys
import time
from collections import Counter, defaultdict


def _eigh_counts(tracer, args, kwargs):
    d = args[0].shape[-1]
    tracer.counts["cvspace.eigh.d3_work"] += d ** 3
    tracer.counts[f"cvspace.eigh.calls_d{d}"] += 1
    return args, kwargs


def _count_calls_of_first_arg(key):
    """Before-hook: count every call of the callable passed as the first argument."""
    def before(tracer, args, kwargs):
        fn, counts = args[0], tracer.counts

        def counted(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)
        return (counted,) + args[1:], kwargs
    return before


def _fd_outcome(tracer, est):
    tracer.counts["qfi.qfi_fd.richardson_steps"] += len(est.diagnostics["step_history"])
    tracer.counts["qfi.qfi_fd.unconverged"] += not est.converged


def _dimension_outcome(tracer, scan):
    tracer.counts["cvspace.converge_dimension.unconverged"] += not scan.converged


# (module, function, span name, before hook, after hook)
FUNCTIONS = (
    ("cvspace", "propagator", "cvspace.propagator", None, None),
    ("cvspace", "build_quadrature", "cvspace.build_quadrature", None, None),
    ("cvspace", "operator_power", "cvspace.operator_power", None, None),
    ("cvspace", "prepare_probe", "cvspace.prepare_probe", None, None),
    ("cvspace", "converge_dimension", "cvspace.converge_dimension",
     # converge_dimension(evaluate, ...): one evaluate call per dimension tried
     _count_calls_of_first_arg("cvspace.converge_dimension.evals"), _dimension_outcome),
    ("strategies", "switch_output", "strategies.switch_output", None, None),
    ("strategies", "cs_output", "strategies.cs_output", None, None),
    ("strategies", "switch_output_factorized", "strategies.factorized", None, None),
    ("strategies", "cs_output_factorized", "strategies.factorized", None, None),
    # qfi_fd(builder, theta0, ...): one builder call per state built
    ("qfi", "qfi_fd", "qfi.qfi_fd", _count_calls_of_first_arg("qfi.qfi_fd.builds"),
     _fd_outcome),
    ("qfi", "qfi_converged", "qfi.qfi_converged", None, None),
    ("qfi", "qfi_generator", "qfi.qfi_generator", None, None),
    ("qfi", "asymptotic_qfi", "qfi.asymptotic_qfi", None, None),
    ("bch", "zassenhaus_term", "bch.zassenhaus_term", None, None),
    ("bch", "phase_derivative_generator", "bch.phase_derivative_generator", None, None),
    ("bch", "exp_antihermitian", "bch.exp_antihermitian", None, None),
    ("bch", "verify_factorization", "bch.verify_factorization", None, None),
    ("applications", "homodyne_g_variance", "applications.homodyne_g_variance", None, None),
    ("applications", "optomech_state", "applications.optomech_state", None, None),
)

# (module, class, method, span name)
METHODS = (
    ("cvspace", "Operator", "__post_init__", "cvspace.Operator"),
    ("bch", "PPoly", "to_matrix", "bch.PPoly.to_matrix"),
    ("cli", "CommandOutput", "csv_text", "cli.csv_text"),
)

CLAIM_NAME = re.compile(r"claim_(\d+)_")


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by the child intervals."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def layer_stats(spans, counts) -> dict:
    """`<span>.calls`, inclusive `<span>.s` and `<span>.self_s`, plus the counters.

    Inclusive time counts only the outermost span of a name, so a layer that
    re-enters itself is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    stats = defaultdict(float)
    calls = Counter()
    for sid, parent, _op, name, start, end in spans:
        calls[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += self_time(start, end, children[sid])
        ancestor = parent
        while ancestor is not None and by_id[ancestor][3] != name:
            ancestor = by_id[ancestor][1]
        if ancestor is None:
            stats[f"{name}.s"] += end - start
    return {**stats, **calls, **counts}


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Seconds a traced call adds to a call of a no-op: median over batches."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        end = time.perf_counter()
        costs.append(((middle - start) - (end - middle)) / calls)
    return statistics.median(costs)


class Tracer:
    """Records spans and counts while installed; restores cvmet on uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._ids = itertools.count()
        self._restore = []

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if after is not None:
                after(self, result)
            return result

        return traced

    def _rebind(self, modules, original, replacement):
        """Point every module-level reference to `original` at `replacement`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((setattr, mod, attr, value))
                    setattr(mod, attr, replacement)
                elif isinstance(value, dict) and any(v is original for v in value.values()):
                    for key, v in list(value.items()):
                        if v is original:
                            self._restore.append((dict.__setitem__, value, key, v))
                            value[key] = replacement
                elif isinstance(value, tuple) and any(v is original for v in value):
                    self._restore.append((setattr, mod, attr, value))
                    setattr(mod, attr, tuple(replacement if v is original else v
                                             for v in value))

    def install(self):
        import numpy as np
        from cvmet import claims, cli

        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "cvmet" or name.startswith("cvmet.")]
        targets = [(getattr(sys.modules[f"cvmet.{mod}"], fn), span, before, after)
                   for mod, fn, span, before, after in FUNCTIONS]
        for attr, fn in vars(claims).items():
            match = CLAIM_NAME.match(attr)
            if match and callable(fn):
                targets.append((fn, f"claims.claim_{match.group(1)}", None, None))
        for command_fn in cli.COMMAND_TABLE.values():
            targets.append((command_fn, "cli.command", None, None))
        for original, span, before, after in targets:
            self._rebind(modules, original, self.wrap(span, original, before, after))

        for mod, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"cvmet.{mod}"], cls_name)
            original = cls.__dict__[method]
            self._restore.append((setattr, cls, method, original))
            setattr(cls, method, self.wrap(span, original))

        self._restore.append((setattr, np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self.wrap("cvspace.eigh", np.linalg.eigh, _eigh_counts)

    def uninstall(self):
        while self._restore:
            setter, owner, key, value = self._restore.pop()
            setter(owner, key, value)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
