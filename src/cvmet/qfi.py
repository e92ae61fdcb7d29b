"""Quantum Fisher information of the strategy outputs by four routes.

For a pure family |psi(theta)> the figure of merit is
F = 4(<d psi|d psi> - |<d psi|psi>|^2), estimated by

  exact_fock       the exact theta2 derivative of the truncated Fock-basis
                   state (`output_derivative`) in the doubling loop of
                   `qfi_converged`, where `route` finds a basis
  exact_nodes      every other row: each branch's derivative generator, a
                   polynomial in P (plus s X for theta1), on one exact grid
                   of momentum nodes sized from its degree
  generator_exact  per-branch derivative generators, polynomials in one
                   quadrature, as exact probe moments on Gauss-Hermite nodes,
                   one N grid per call, no N's value depending on the grid
  asymptotic       the closed leading-order laws, for cross-checks

None takes a step: `qfi_fd`, the central difference with a mandatory
Richardson check, is the generic estimator for any one-parameter builder
(claims 1, 2 and 9).  Both node routes, and the probe variances of the
closed forms, are 4 Var over an even two-branch mixture of polynomials in
one quadrature, summed by one evaluator, `_mixture_qfi`, in the probe's
centred node t (Q = c + s t), so they keep their digits at any probe centre
c.  The routes derive their polynomials independently (`node_phases` and
`theta1_generators`, `bch.phase_derivative_generator`): F against F_gen
checks that algebra where F_gen covers the row.

Each refusal is an EnvelopeError, decided in one place: a node grid past
NODE_CAP where the node table is built (`cvspace`), and a value past the
float range at run time, as it is computed.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import bch
from .cvspace import (
    DIM_CAP,
    DIM_REL_TOL,
    DIM_START,
    ProbeSpec,
    _node_table,
    converge_dimension,
    prepare_probe,
    richardson,
)
from .errors import (
    ContractViolationError,
    EnvelopeError,
    TruncationLeakageError,
    UnidentifiableParameterError,
    UnsupportedConfigurationError,
)
from .strategies import (
    COHERENT_SUPERPOSITION,
    SWITCH,
    THETA1,
    THETA2,
    QState,
    StrategyConfig,
    encoding,
    momentum_shift,
    node_phases,
    output_derivative,
    theta1_generators,
)


@dataclass(frozen=True)
class QfiEstimate:
    """QFI value with the method that produced it and its diagnostics."""

    value: float
    method: str
    step_used: float | None = None
    converged: bool = True
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PrecisionResult:
    """Cramer-Rao precision delta theta = 1/sqrt(nu F) for nu repetitions."""

    delta_theta: float
    nu: int
    source: QfiEstimate


def _state_vector(state) -> np.ndarray:
    if isinstance(state, QState):
        return state.amplitudes
    return np.asarray(state, dtype=complex)


def qfi_from_derivative(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """4(<dpsi|dpsi> - |<dpsi|psi>|^2) for a normalized psi."""
    return float(4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(dpsi, psi)) ** 2))


def qfi_fd(builder: Callable[[float], object], theta0: float) -> QfiEstimate:
    """Central-difference QFI with the mandatory Richardson check of `richardson`.

    The builder must be a deterministic map from the scalar to a state; the
    eigendecomposition propagators downstream are smooth in the parameter, so
    no gauge jumps enter the difference.  The centre state builder(theta0) is
    built once and shared by every step; each step h then builds
    theta0 +- h, on the ladder h0 / 2^k with h0 = 1e-4 max(1, |theta0|).  A
    failed check is reported as unconverged with every step in the
    diagnostics.
    """
    psi0 = _state_vector(builder(theta0))

    def estimate(h: float) -> float:
        dpsi = (_state_vector(builder(theta0 + h)) - _state_vector(builder(theta0 - h))) / (2 * h)
        return qfi_from_derivative(psi0, dpsi)

    value, converged, history = richardson(estimate, 1e-4 * max(1.0, abs(theta0)))
    h, f_h, f_h2, resid = history[-1]
    return QfiEstimate(value, "finite_difference", step_used=h, converged=converged,
                       diagnostics={"richardson_residual": resid,
                                    "f_h": f_h, "f_h2": f_h2,
                                    "step_history": history})


def _within_float_range(estimator):
    """The estimator, with F past the float range an EnvelopeError: where a
    power or a sum overflows (Python's OverflowError, numpy's raised as
    FloatingPointError) or F comes out infinite.  A nan F is returned as is."""
    @functools.wraps(estimator)
    def checked(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
        with np.errstate(over="raise"), contextlib.suppress(OverflowError, FloatingPointError):
            est = estimator(cfg, which_param)
            if not math.isinf(est.value):
                return est
        raise EnvelopeError(f"F of {estimator.__name__} overflows the float range "
                            f"at m={cfg.m}, N={cfg.n_queries:g}")
    return checked


# --- the two-branch evaluator and the exact generator route -----------------

def _mixture_qfi(branches, table) -> tuple:
    """(F, gap) per row: F = 4 Var Phi over the even mixture of two real
    polynomials Phi_0, Phi_1 in one probe quadrature Q, and <Phi_0 - Phi_1>.

    `branches` holds each branch's coefficients by ascending power of Q, one
    row per N; `table` is the probe's centred node table (t, w, c, s),
    Q = c + s t, exact to the degree of Phi^2.  Each polynomial, and the
    difference of the two coefficient lists, is re-expanded about c (a
    Taylor shift: coefficient k is Phi^(k)(c) s^k / k!), and F =
    2 sum_b Var_t(Phi_b) + <Phi_0 - Phi_1>^2, each variance from the terms
    k >= 1 alone: no step subtracts two values of size |c|^m.  Every step is
    elementwise and each moment the 1-D dot of one row with w, so no row
    depends on another.  An infinite coefficient is an OverflowError.
    """
    t, w, c, s = table
    a = np.array(branches, dtype=float)  # (branch, row, power)
    if np.isinf(a).any():
        raise OverflowError("branch coefficients pass the float range")
    a = np.concatenate([a, a[:1] - a[1:]])
    for low in range(a.shape[2] - 1):
        for k in range(a.shape[2] - 2, low - 1, -1):
            a[..., k] += c * a[..., k + 1]
    u, tail = s * t, np.zeros(a.shape[:2] + t.shape)
    for k in range(a.shape[2] - 1, 0, -1):  # Horner, the terms k >= 1 on the nodes
        tail = (tail + a[..., k, None]) * u
    mean = np.vecdot(tail, w)
    spread = np.vecdot((tail[:2] - mean[:2, :, None]) ** 2, w)
    gap = a[2, :, 0] + mean[2]
    return 2.0 * (spread[0] + spread[1]) + gap * gap, gap


def _branch_generators(cfg: StrategyConfig, which_param: str, n: int) -> tuple:
    """(g_0, g_1), the coefficients by power of P (of X for theta1) of each
    branch's derivative generator at N = n.

    The branch derivative is -i g_b acting inside the branch, with g_b a real
    polynomial in one quadrature whose moments are taken on the bare probe
    (every surrounding factor commutes with g_b or is unitary in the
    conjugate variable and drops out).
    """
    strategy = encoding(cfg.strategy)
    if which_param == THETA2:
        if strategy == COHERENT_SUPERPOSITION:
            g = bch.phase_derivative_generator(cfg.m, cfg.theta1, n, "cs_branch")
            return g, tuple(-c for c in g)
        return ((0.0,) * cfg.m + (float(n),),
                bch.phase_derivative_generator(cfg.m, cfg.theta1, n, "switch_branch"))
    if which_param == THETA1:
        if cfg.m != 1:
            raise UnsupportedConfigurationError(
                "the exact generator route covers theta1 at m = 1 only; use qfi_converged")
        if strategy == COHERENT_SUPERPOSITION:
            # probe-frame generators 2N X +- 2N^2 theta2: the 2N X query term
            # picks up the +-2N theta2 momentum-displacement shift of X plus
            # the -+2N^2 theta2 derivative of the reordering phase
            return (2 * n * n * cfg.theta2, 2.0 * n), (-2 * n * n * cfg.theta2, 2.0 * n)
        # switch: X-moments of branch 0 see X shifted by +N theta2 through U2^N
        return (n * n * cfg.theta2, float(n)), (0.0, float(n))
    raise UnsupportedConfigurationError(f"unknown parameter {which_param!r}")


def _generator_grid(cfg: StrategyConfig, which_param: str, n_values) -> list:
    """F of `qfi_generator_grid`, unchecked for the float range: the branch
    generators of every N, one row each, through `_mixture_qfi` on the
    probe's P nodes (X for theta1) of degree 2 deg g_b: exact, no basis."""
    if not n_values:
        return []
    branches = [np.array(b) for b in
                zip(*(_branch_generators(cfg, which_param, n) for n in n_values))]
    symbol = "P" if which_param == THETA2 else "X"
    values, gaps = _mixture_qfi(branches, _node_table(cfg.probe, symbol, branches[0].shape[1])[:4])
    leading = encoding(cfg.strategy) == COHERENT_SUPERPOSITION and which_param == THETA2
    # the leading-order squared-expectation form 4 <g>^2, for regression only
    return [QfiEstimate(value, "generator_exact", converged=True,
                        diagnostics={"expectation_squared_form": gap * gap} if leading else {})
            for value, gap in zip(values.tolist(), gaps.tolist())]


def qfi_generator_grid(cfg: StrategyConfig, which_param: str, n_values) -> list:
    """Exact QFI from symbolic branch generators and probe moments
    (`_generator_grid`) at every N of `n_values`, in one call; cfg.n_queries
    is not read.  Each N's value is bitwise the one `qfi_generator` gives it
    alone: it does not depend on the grid around it.  Where some F passes the
    float range, the grid is run again point by point, so the EnvelopeError
    names the first such N in grid order."""
    with np.errstate(over="raise"), contextlib.suppress(OverflowError, FloatingPointError):
        estimates = _generator_grid(cfg, which_param, n_values)
        if not any(math.isinf(est.value) for est in estimates):
            return estimates
    return [qfi_generator(replace(cfg, n_queries=n), which_param) for n in n_values]


@_within_float_range
def qfi_generator(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
    """`qfi_generator_grid` at the one point N = cfg.n_queries."""
    return _generator_grid(cfg, which_param, [cfg.n_queries])[0]


# --- asymptotic closed forms --------------------------------------------------

def _probe_variance(probe: ProbeSpec, which: str) -> float:
    """Var(X) or Var(P) of the probe, s^2 Var(t) on its centred nodes: a
    quarter of `_mixture_qfi` of the branches Q, Q."""
    linear = [(0.0, 1.0)]
    return float(_mixture_qfi([linear, linear], _node_table(probe, which, 2)[:4])[0][0]) / 4


@_within_float_range
def asymptotic_qfi(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
    """Closed-form leading-order information, with probe variances where they enter.

    Linear case keeps the subleading variance term; for m > 1 the pure
    leading order in N is evaluated (only the second coupling is covered
    there).  The linear coherent-superposition value carries the corrected
    dependence on the *other* coupling, matching the exact generator route.
    Each N-power term is the square of a product built up from theta N, so
    no partial product passes the float range before F does.
    """
    n, m = float(cfg.n_queries), cfg.m
    strategy = encoding(cfg.strategy)
    if m == 1:  # the other coupling, and the variance of the conjugate quadrature
        other, which = (cfg.theta2, "X") if which_param == THETA1 else (cfg.theta1, "P")
        span = n if strategy == SWITCH else 2 * n  # each branch's query time
        value = (other * span * span) ** 2 + 4 * _probe_variance(cfg.probe, which) * span * span
        return QfiEstimate(value, "asymptotic")
    if which_param != THETA2:
        raise UnsupportedConfigurationError(
            "asymptotic forms for m > 1 cover the second coupling only")
    root = (cfg.theta1 * n) ** m * n  # theta1^m N^(m+1)
    if strategy == SWITCH:
        value = root ** 2
    else:
        value = (2.0 ** (m + 2) * root / (m + 1)) ** 2
    return QfiEstimate(value, "asymptotic")


# --- orchestration ------------------------------------------------------------

def route(cfg: StrategyConfig, which_param: str) -> int | None:
    """The estimator of a row, decided from its config alone: the first
    dimension of the Fock doubling loop, or None for `qfi_nodes`.

    Every theta1 row goes to the nodes.  A theta2 row starts the Fock route
    at the first d = DIM_START 2^k <= DIM_CAP whose basis holds the probe
    (`prepare_probe`; none: the nodes), unless the reach rule sends it to
    the nodes: each eigenvalue of the truncated P at d lies inside
    sqrt(2d + 1), and the exact motion P(t) = P - theta1 t moves the probe's
    momentum bulk rigidly down by `momentum_shift`.  That bulk is centred at
    c (sqrt(2) Im alpha for a coherent probe, else 0) with half-width
    s sqrt(2n + 1) (n = 0 but for Fock(n), s = e^r for a squeezed probe,
    else 1), so past |c - shift| + s sqrt(2n + 1) > sqrt(2 DIM_CAP + 1) the
    final state has weight where no basis up to DIM_CAP has support.
    """
    if which_param != THETA2:
        return None
    probe = cfg.probe
    start = DIM_START
    while start <= DIM_CAP:
        try:
            prepare_probe(probe, start)
            break
        except TruncationLeakageError:
            start *= 2
    if start <= DIM_CAP:
        centre = math.sqrt(2.0) * probe.alpha.imag if probe.kind == "coherent" else 0.0
        stretch = math.exp(probe.r) if probe.kind == "squeezed_vacuum" else 1.0
        extent = abs(centre - momentum_shift(cfg)) + stretch * math.sqrt(2 * probe.n + 1)
        if not extent > math.sqrt(2 * DIM_CAP + 1):
            return start
    return None


@_within_float_range
def qfi_nodes(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
    """Exact QFI of theta1 or theta2 on momentum nodes.

    theta2: branch b is the probe times e^{-i theta2 Phi_b(P)}, Phi_b free
    of theta2 (`node_phases`), so d psi = -i (Phi - mu) psi exactly, mu the
    state's mean, and F = 4 Var Phi over the even mixture of the branches
    (`_mixture_qfi`).  theta1: d psi_b = -i U_b (s X + f_b(P)) phi
    (`theta1_generators`); every shipped probe is a real function of p
    times e^{-i x0 p}, so <{X, f(P)}> = 2 x0 <f(P)>, the cross terms cancel
    and F = 4 s^2 Var X + 4 Var f.  Each term is e^{-t^2} times a
    polynomial of degree 2 deg + 2n in the base node t, so one grid of
    G = deg + 1 + n nodes (n for Fock(n)) sums it exactly, built before any
    coefficient: converged by construction, with G as `dim_used`.
    """
    if which_param not in (THETA1, THETA2):
        raise ContractViolationError(f"unknown parameter {which_param!r}")
    theta2 = which_param == THETA2
    table = _node_table(cfg.probe, "P", cfg.m + theta2)[:4]  # deg Phi_b = m, deg f_b = m - 1
    span, polys = (0.0, node_phases(cfg)) if theta2 else theta1_generators(cfg)
    value = float(_mixture_qfi([[poly] for poly in polys], table)[0][0])
    if span:
        value += 4 * span * span * _probe_variance(cfg.probe, "X")
    return QfiEstimate(value, "exact_nodes", diagnostics={"dim_used": table[0].size})


def qfi_converged(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
    """Exact QFI of the Fock-basis state with the dimension-doubling loop
    wrapped around it.

    `route` decides the row from its config: a theta1 row, and a theta2 row
    no basis up to DIM_CAP can hold, go to `qfi_nodes` and build no Fock
    state.  Otherwise the loop starts at the d `route` returns and at each
    d builds the state once with its exact theta2 derivative
    (`output_derivative`): no step, no Richardson.  Converged means the
    value stopped moving under doubling; an unconverged estimate names the
    d it reached in `diagnostics["reason"]`.
    """
    start = route(cfg, which_param)
    if start is None:
        return qfi_nodes(cfg, which_param)

    def at_dim(d: int) -> float:
        psi, dpsi = output_derivative(cfg, d)
        return qfi_from_derivative(psi.amplitudes, dpsi)

    scan = converge_dimension(at_dim, start=start)
    diagnostics = {"dim_used": scan.dim_used, "dim_history": scan.history}
    if not scan.converged:
        diagnostics["reason"] = (f"the value still moved by more than {DIM_REL_TOL:g} "
                                 f"relative when doubling to d={scan.dim_used}")
    return QfiEstimate(scan.value, "exact_fock", converged=scan.converged,
                       diagnostics=diagnostics)


def crb_precision(f: QfiEstimate, nu: int = 1) -> PrecisionResult:
    """delta theta = 1/sqrt(nu F); non-positive information is not estimable."""
    if f.value <= 0:
        raise UnidentifiableParameterError(
            f"QFI {f.value!r} is not positive; the parameter is unidentifiable")
    if nu < 1:
        raise UnidentifiableParameterError("repetition count nu must be >= 1")
    return PrecisionResult(1.0 / math.sqrt(nu * f.value), nu, f)


LARGE_N_FACTOR = 10.0


def _gate_floor(probe: ProbeSpec) -> float:
    """10 (|<P>_probe| + 1), the least N |theta1| of the large-N regime,
    <P> read as the centre c of the probe's P node table."""
    return LARGE_N_FACTOR * (abs(_node_table(probe, "P", 1)[2]) + 1.0)


def large_n_gate(cfg: StrategyConfig) -> bool:
    """Declared large-N regime: N |theta1| >= 10 (|<P>_probe| + 1)."""
    return cfg.n_queries * abs(cfg.theta1) >= _gate_floor(cfg.probe)


def ratio_formula(m: int) -> float:
    """(m+1)/2^{m+2}, the closed-form precision ratio of the two strategies."""
    return (m + 1) / 2.0 ** (m + 2)


# Shipped ratio regime (recorded, not tunable at run time): N|theta1| reaches
# 18 at the top point.  Claim 3 and the `ratio` command default both read it.
RATIO_THETA1 = 0.75
RATIO_N_SWEEP = tuple(range(4, 25, 2))


def precision_ratio(m: int, theta1: float, n_values,
                    probe: ProbeSpec = ProbeSpec.vacuum()) -> list:
    """delta theta2 (coherent superposition) / delta theta2 (switch) at each N
    of `n_values`, exact route.

    Both generator-route estimates are evaluated at theta2 = 0.05 with the
    same probe, over the whole grid in one call each (`qfi_generator_grid`);
    each N's ratio does not depend on the grid around it.  An N outside the
    declared large-N regime gets None, so sweep drivers flag and skip it
    rather than report an off-regime number.
    """
    if not n_values:
        return []
    # at the least N, StrategyConfig refuses an N < 1 as it would that N alone
    cs_cfg = StrategyConfig(theta1=theta1, theta2=0.05, n_queries=min(n_values),
                            m=m, strategy=COHERENT_SUPERPOSITION, probe=probe)
    qs_cfg = replace(cs_cfg, strategy=SWITCH)
    floor = _gate_floor(probe)
    gated = [n for n in n_values if n * abs(theta1) >= floor]
    try:
        pairs = zip(qfi_generator_grid(cs_cfg, THETA2, gated),
                    qfi_generator_grid(qs_cfg, THETA2, gated))
    except EnvelopeError:  # point by point: the error of the first N in grid order
        pairs = ((qfi_generator(replace(cs_cfg, n_queries=n), THETA2),
                  qfi_generator(replace(qs_cfg, n_queries=n), THETA2)) for n in gated)
    ratios = {n: crb_precision(f_cs).delta_theta / crb_precision(f_qs).delta_theta
              for n, (f_cs, f_qs) in zip(gated, pairs)}
    return [ratios.get(n) for n in n_values]
