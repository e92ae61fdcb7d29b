"""Batch front end: JSON config in, CSV (plus optional JSON mirror) out.

Usage: cvmet <command> [--config path.json] [--set key=value]... [--out path.csv]
                       [--json path.json]

Commands: qfi, sweep, ratio, bch-table, factorization-check, optomech, claims.
Exit codes: 0 success, 1 validation failure, 2 an input outside the
numerical envelope or a parameter that cannot be estimated there, 3 internal
contract violation.

Every floating-point value is rendered with 17 significant digits; two runs
of the same config produce byte-identical CSV bodies (the leading version
line is excluded from that comparison).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import __version__
from .applications import (
    DEFAULT_OPTOMECH,
    DEFAULT_OPTOMECH_SWEEP,
    MIN_FIT_POINTS,
    OptomechParams,
    fit_scaling,
    homodyne_g_variance,
)
from .bch import FACTORIZATION_GUARD, VARIANTS, verify_factorization, zassenhaus_term
from .cvspace import FockDim, ProbeSpec
from .errors import (
    ContractViolationError,
    CvmetError,
    EnvelopeError,
    InvalidDimensionError,
    UnidentifiableParameterError,
    ValidationError,
)
from .qfi import (
    RATIO_N_SWEEP,
    RATIO_THETA1,
    THETA1,
    THETA2,
    asymptotic_qfi,
    crb_precision,
    precision_ratio,
    qfi_converged,
    qfi_generator,
    ratio_formula,
)
from .strategies import StrategyConfig

SWEEP_COLUMNS = ("N", "m", "theta1", "theta2", "strategy", "F_fd", "F_gen",
                 "F_asym", "delta_theta", "converged", "dim_used")


def format_value(value) -> str:
    """Fixed rendering: floats at 17 significant digits, booleans in lower case."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def render_fraction(frac: Fraction) -> str:
    """Exact decimal when the denominator is 2^a 5^b, else the exact ratio."""
    den = frac.denominator
    two, five = 0, 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return f"{frac.numerator}/{frac.denominator}"
    shift = max(two, five)
    scaled = frac.numerator * 10 ** shift // frac.denominator
    if shift == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


@dataclass
class CommandOutput:
    columns: tuple
    rows: list
    extras: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        buf = io.StringIO()
        buf.write(f"# cvmet {__version__}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format_value(v) for v in row])
        return buf.getvalue()

    def json_payload(self) -> dict:
        payload = {"columns": list(self.columns),
                   "rows": [[format_value(v) for v in row] for row in self.rows]}
        payload.update(self.extras)
        return payload


DEFAULT_CONFIG = {
    "command": None,
    "strategy": "switch",
    "theta1": 0.1,
    "theta2": 0.1,
    "n_queries": 4,
    "m": 1,
    "estimate": "theta2",
    "probe": {"kind": "vacuum"},
    "nu": 1,
    "sweep": {"param": "n_queries", "values": [2, 4, 6, 8]},
    "ratio": {"m_values": [1, 2, 3], "theta1": RATIO_THETA1,
              "n_values": list(RATIO_N_SWEEP)},
    "bch": {"m_values": [1, 2, 3, 4], "variants": list(VARIANTS)},
    "factorization": {"cases": [[1, 0.3, 128, "AB"], [2, 0.3, 128, "AB"],
                                [3, 0.1, 128, "AB"]]},
    "optomech": {"g": DEFAULT_OPTOMECH.g, "mass": DEFAULT_OPTOMECH.mass,
                 "omega_c": DEFAULT_OPTOMECH.omega_c, "tau": DEFAULT_OPTOMECH.tau,
                 "probe": {"kind": "vacuum"},
                 "n_values": list(DEFAULT_OPTOMECH_SWEEP)},
}
PROBE_KEYS = ("kind", "n", "alpha_re", "alpha_im", "r")  # only "kind" has a default


@contextlib.contextmanager
def _config_values():
    """Scope in which config values become typed objects; a bad one exits 1.

    The errors caught are what a malformed value raises on conversion: wrong
    JSON shape, failed number conversion, missing key, or a constructor's own
    check.  Computation stays outside the scope, so a ContractViolationError
    it raises still exits 3.
    """
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError,
            ContractViolationError, InvalidDimensionError) as exc:
        raise ValidationError(f"invalid config value: {exc}") from exc


def _real(value) -> float:
    """A finite real config number; JSON's NaN, Infinity, true and false are rejected."""
    if isinstance(value, bool):  # float(True) would pass as 1.0
        raise TypeError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _integer(value, low: int = 1) -> int:
    """An integral config number >= low; 2.5 is rejected, never truncated."""
    number = _real(value)
    if not number.is_integer() or number < low:
        raise ValueError(f"expected an integer >= {low}, got {value!r}")
    return int(number)


def _one_of(value, choices: tuple):
    if value not in choices:
        raise ValueError(f"expected one of {choices}, got {value!r}")
    return value


def _list(values) -> list:
    """A config list; a string or a scalar is rejected, never iterated."""
    if not isinstance(values, list):
        raise TypeError(f"expected a JSON list, got {values!r}")
    return values


def _increasing(values, cast, least: int = 1) -> list:
    """A typed config list of at least `least` strictly increasing values."""
    typed = [cast(value) for value in _list(values)]
    if len(typed) < least or any(a >= b for a, b in zip(typed, typed[1:])):
        raise ValueError(f"expected >= {least} strictly increasing values, got {values!r}")
    return typed


def _probe_from(spec: dict) -> ProbeSpec:
    kind = spec["kind"]
    if kind == "vacuum":
        return ProbeSpec.vacuum()
    if kind == "fock":
        return ProbeSpec.fock(_integer(spec["n"], low=0))
    if kind == "coherent":
        return ProbeSpec.coherent(complex(_real(spec.get("alpha_re", 0.0)),
                                          _real(spec.get("alpha_im", 0.0))))
    if kind == "squeezed_vacuum":
        return ProbeSpec.squeezed_vacuum(_real(spec["r"]))
    raise ValidationError(f"unknown probe kind {kind!r}")


def _estimate_settings(config: dict):
    """(StrategyConfig, estimated parameter, nu) of the qfi and sweep commands."""
    which = _one_of(config["estimate"], (THETA1, THETA2))
    cfg = StrategyConfig(theta1=_real(config["theta1"]),
                         theta2=_real(config["theta2"]),
                         n_queries=_integer(config["n_queries"]),
                         m=_integer(config["m"]),
                         strategy=config["strategy"],
                         probe=_probe_from(config["probe"]))
    return cfg, which, _integer(config["nu"])


def _estimate_row(cfg: StrategyConfig, which: str, nu: int):
    fd = qfi_converged(cfg, which)
    try:
        f_gen = qfi_generator(cfg, which).value
    except CvmetError:
        f_gen = float("nan")
    try:
        f_asym = asymptotic_qfi(cfg, which).value
    except CvmetError:
        f_asym = float("nan")
    if "reason" in fd.diagnostics:
        print(f"cvmet: not converged: {fd.diagnostics['reason']}", file=sys.stderr)
    delta = crb_precision(fd, nu).delta_theta
    dim_used = fd.diagnostics.get("dim_used", 0)
    return fd, f_gen, f_asym, delta, dim_used


def cmd_qfi(config: dict) -> CommandOutput:
    with _config_values():
        cfg, which, nu = _estimate_settings(config)
    fd, f_gen, f_asym, delta, dim_used = _estimate_row(cfg, which, nu)
    columns = ("strategy", "m", "N", "theta1", "theta2", "parameter", "method",
               "F", "F_gen", "F_asym", "step_used", "delta_theta", "converged",
               "dim_used")
    row = (cfg.strategy, cfg.m, cfg.n_queries, cfg.theta1, cfg.theta2, which,
           fd.method, fd.value, f_gen, f_asym,
           "" if fd.step_used is None else fd.step_used, delta,
           fd.converged, dim_used)
    return CommandOutput(columns, [row],
                         {"query_accounting": cfg.query_accounting()})


def cmd_sweep(config: dict) -> CommandOutput:
    with _config_values():
        param = _one_of(config["sweep"]["param"], ("n_queries", "theta1", "theta2", "m"))
        base, which, nu = _estimate_settings(config)
        cast = _integer if param in ("n_queries", "m") else _real
        cfgs = [replace(base, **{param: value})
                for value in _increasing(config["sweep"]["values"], cast)]
    rows, methods = [], []
    for cfg in cfgs:
        fd, f_gen, f_asym, delta, dim_used = _estimate_row(cfg, which, nu)
        rows.append((cfg.n_queries, cfg.m, cfg.theta1, cfg.theta2, cfg.strategy,
                     fd.value, f_gen, f_asym, delta, fd.converged, dim_used))
        methods.append(fd.method)
    # the frozen columns name no route: `methods` says which one gave each F_fd
    return CommandOutput(SWEEP_COLUMNS, rows,
                         {"parameter": which, "nu": nu, "methods": methods,
                          "query_accounting": base.query_accounting()})


def cmd_ratio(config: dict) -> CommandOutput:
    with _config_values():
        section = config["ratio"]
        theta1 = _real(section["theta1"])
        m_values = [_integer(m) for m in _list(section["m_values"])]
        n_values = [_integer(n) for n in _list(section["n_values"])]
        probe = _probe_from(config["probe"])
    rows = []
    skipped = []
    for m in m_values:
        for n, measured in zip(n_values, precision_ratio(m, theta1, n_values, probe=probe)):
            if measured is None:
                skipped.append((m, n))
                measured = ""  # below the large-N gate: flagged, not faked
            rows.append((m, n, measured, ratio_formula(m)))
    extras = {"theta1": theta1, "skipped_below_gate": skipped}
    return CommandOutput(("m", "N", "ratio_measured", "ratio_formula"), rows, extras)


def cmd_bch_table(config: dict) -> CommandOutput:
    with _config_values():
        m_values = [_integer(m) for m in _list(config["bch"]["m_values"])]
        variants = [_one_of(v, VARIANTS) for v in _list(config["bch"]["variants"])]
    rows = []
    for m in m_values:
        for variant in variants:
            for n in range(2, m + 2):
                poly = zassenhaus_term(m, n, variant)
                for power, coeff in poly.coeffs:
                    rows.append((m, n, variant, power,
                                 render_fraction(coeff.re), render_fraction(coeff.im)))
    return CommandOutput(("m", "n", "variant", "power", "coeff_re", "coeff_im"), rows)


def cmd_factorization_check(config: dict) -> CommandOutput:
    with _config_values():
        # at d <= FACTORIZATION_GUARD every level is in the guarded band
        cases = [(_integer(m), _real(lam), FockDim(_integer(dim, low=FACTORIZATION_GUARD + 1)),
                  _one_of(variant, VARIANTS))
                 for m, lam, dim, variant in _list(config["factorization"]["cases"])]
    rows = []
    for m, lam_im, dim, variant in cases:
        check = verify_factorization(m, lam_im, dim, variant)
        rows.append((m, variant, lam_im, dim.d, check.residual, check.columns_checked))
    return CommandOutput(
        ("m", "variant", "lambda_im", "dim", "residual", "columns_checked"), rows)


def cmd_optomech(config: dict) -> CommandOutput:
    with _config_values():
        section = config["optomech"]
        params = OptomechParams(
            g=_real(section["g"]),
            mass=_real(section["mass"]),
            omega_c=_real(section["omega_c"]),
            tau=_real(section["tau"]),
            n_steps=1,
            mirror_probe=_probe_from(section["probe"]))
        n_values = _increasing(section["n_values"], _integer, least=MIN_FIT_POINTS)
    rows = [(n, homodyne_g_variance(replace(params, n_steps=n))) for n in n_values]
    fit = fit_scaling(rows)
    extras = {"scaling_fit": {"slope": format_value(fit.slope),
                              "intercept": format_value(fit.intercept),
                              "r_squared": format_value(fit.r_squared)}}
    return CommandOutput(("N", "delta2_g"), rows, extras)


def cmd_claims(config: dict) -> CommandOutput:
    from . import claims  # local import: claims drives CLI output for determinism

    results = claims.run_all()
    rows = [(r.number, r.title, "PASS" if r.passed else "FAIL", r.details)
            for r in results]
    extras = {"all_passed": all(r.passed for r in results)}
    return CommandOutput(("claim", "title", "status", "details"), rows, extras)


COMMAND_TABLE = {
    "qfi": cmd_qfi,
    "sweep": cmd_sweep,
    "ratio": cmd_ratio,
    "bch-table": cmd_bch_table,
    "factorization-check": cmd_factorization_check,
    "optomech": cmd_optomech,
    "claims": cmd_claims,
}


def _merge(config: dict, update: dict, path: tuple = ()) -> None:
    """The one merge rule of `--config` and `--set`: an object merges into a
    section key by key at every depth, any other value replaces.  A key that
    DEFAULT_CONFIG (or PROBE_KEYS, in a probe section) lacks exits 1."""
    known = PROBE_KEYS if path[-1:] == ("probe",) else config
    for key, value in update.items():
        where = ".".join(path + (key,))
        if key not in known:
            raise ValidationError(f"unknown config key {where!r}")
        if not isinstance(config.get(key), dict):
            config[key] = value
        elif isinstance(value, dict):
            _merge(config[key], value, path + (key,))
        else:
            raise ValidationError(f"config section {where!r} takes a JSON object")


def load_config(command: str, config_path: str | None, overrides) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ValidationError("config must be a JSON object")
        _merge(config, user)
    for key, raw in overrides or []:
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        for part in reversed(key.split(".")):
            value = {part: value}
        _merge(config, value)
    if config["command"] not in (None, command):
        raise ValidationError(
            f"config command {config['command']!r} conflicts with CLI command {command!r}")
    config["command"] = command
    return config


def run(command: str, config: dict, out_path: str | None = None,
        json_path: str | None = None) -> int:
    output = COMMAND_TABLE[command](config)
    text = output.csv_text()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(output.json_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if command == "claims":
        for number, title, status, details in output.rows:
            print(f"[claim {number}] {status}: {title} -- {details}", file=sys.stderr)
        if not output.extras["all_passed"]:
            return 2
    if command == "optomech":
        print(f"scaling fit: {output.extras['scaling_fit']}", file=sys.stderr)
    if "query_accounting" in output.extras:
        print(f"query accounting: {output.extras['query_accounting']}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvmet",
        description="continuous-variable metrology strategy simulator")
    parser.add_argument("command", choices=list(COMMAND_TABLE))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config field (dot paths allowed)")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--json", dest="json_path", help="JSON mirror output path")
    args = parser.parse_args(argv)

    try:
        overrides = []
        for item in args.overrides:
            if "=" not in item:
                raise ValidationError(f"--set needs KEY=VALUE, got {item!r}")
            overrides.append(tuple(item.split("=", 1)))
        config = load_config(args.command, args.config, overrides)
        return run(args.command, config, args.out, args.json_path)
    except ValidationError as exc:
        print(f"cvmet: validation error: {exc}", file=sys.stderr)
        return 1
    except EnvelopeError as exc:
        print(f"cvmet: outside the numerical envelope: {exc}", file=sys.stderr)
        return 2
    except UnidentifiableParameterError as exc:
        print(f"cvmet: unidentifiable parameter: {exc}", file=sys.stderr)
        return 2
    except CvmetError as exc:
        print(f"cvmet: internal contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
