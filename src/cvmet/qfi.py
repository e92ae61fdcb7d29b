"""Quantum Fisher information of the strategy outputs by four routes.

For a pure family |psi(theta)> the figure of merit is
F = 4(<d psi|d psi> - |<d psi|psi>|^2), estimated by

  exact_fock       the exact derivative of the truncated Fock-basis state
                   (`output_derivative`) in the doubling loop of
                   `qfi_converged`, where `route` finds a basis
  exact_nodes      every other row: theta2 enters each branch on momentum
                   nodes as the phase e^{-i theta2 Phi_b}, so d psi =
                   -i Phi_b psi exactly, on one grid sized from its degree
  generator_exact  per-branch derivative generators, polynomials in one
                   quadrature, as exact probe moments on Gauss-Hermite nodes,
                   one N grid per call, no N's value depending on the grid
  asymptotic       the closed leading-order laws, for cross-checks

None takes a step: `qfi_fd`, the central difference with a mandatory
Richardson check, is the generic estimator for any one-parameter builder
(claims 2 and 9).  Both node routes take expectation-of-square <g^2>, which
satisfies the pure-state formula exactly, each generator centred on the
state's mean first; the leading-order |<g>|^2 is reported in the
diagnostics.

Each refusal is an EnvelopeError, decided in one place: a theta1 row that
neither exact_fock nor exact_nodes takes in `route`, from the config alone;
a node grid past NODE_CAP where the node table is built (`cvspace`); and a
value past the float range at run time, as it is computed.
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
    converge_dimension,
    prepare_probe,
    probe_amplitudes,
    probe_on_nodes,
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


# --- exact generator route ---------------------------------------------------

def _branch_generators(cfg: StrategyConfig, which_param: str, n: int):
    """(coefficients by power, quadrature symbol, sigma) of each branch at N = n.

    The branch derivative is -i sigma_b g_b acting inside the branch, with
    g_b a real polynomial in one quadrature whose moments are taken on the
    bare probe (every surrounding factor commutes with g_b or is unitary in
    the conjugate variable and drops out).
    """
    strategy = encoding(cfg.strategy)
    if which_param == THETA2:
        if strategy == COHERENT_SUPERPOSITION:
            g = bch.phase_derivative_generator(cfg.m, cfg.theta1, n, "cs_branch")
            return [(g, "P", +1.0), (g, "P", -1.0)]
        g0 = (0.0,) * cfg.m + (float(n),)
        g1 = bch.phase_derivative_generator(cfg.m, cfg.theta1, n, "switch_branch")
        return [(g0, "P", +1.0), (g1, "P", +1.0)]
    if which_param == THETA1:
        if cfg.m != 1:
            raise UnsupportedConfigurationError(
                "the exact generator route covers theta1 only in the linear case; "
                "use qfi_converged for theta1 with m > 1")
        if strategy == COHERENT_SUPERPOSITION:
            # probe-frame generators 2N X +- 2N^2 theta2: the 2N X query term
            # picks up the +-2N theta2 momentum-displacement shift of X plus
            # the -+2N^2 theta2 derivative of the reordering phase
            g_plus = (2 * n * n * cfg.theta2, 2.0 * n)
            g_minus = (-2 * n * n * cfg.theta2, 2.0 * n)
            return [(g_plus, "X", +1.0), (g_minus, "X", +1.0)]
        # switch: X-moments of branch 0 see X shifted by +N theta2 through U2^N
        g0 = (n * n * cfg.theta2, float(n))
        g1 = (0.0, float(n))
        return [(g0, "X", +1.0), (g1, "X", +1.0)]
    raise UnsupportedConfigurationError(f"unknown parameter {which_param!r}")


def _generator_grid(cfg: StrategyConfig, which_param: str, n_values) -> list:
    """F of `qfi_generator_grid`, unchecked for the float range.

    F = 4 (1/2) sum_b <(g_b - sigma_b mu)^2>, mu = (1/2) sum_b sigma_b <g_b>
    the mixture mean, taken out before squaring (sigma_b = +-1).  g_b acts on
    P (on X for the linear theta1 case), so each moment is a weighted sum over
    the probe's nodes (`probe_on_nodes` at degree 2 deg g_b): exact, no basis.
    Each branch's rows, one per N, are built as one (len(N) x nodes) array,
    elementwise, and `np.vecdot` takes each row's moment by the 1-D dot w . row
    of a lone N (a matrix-vector product G @ w sums in another order).
    """
    if not n_values:
        return []
    tables = []
    for branch in zip(*(_branch_generators(cfg, which_param, n) for n in n_values)):
        coeffs = np.array([c for c, _, _ in branch])
        _, symbol, sigma = branch[0]
        q, w = probe_on_nodes(cfg.probe, symbol, 2 * (coeffs.shape[1] - 1))
        g = np.zeros((len(branch), q.size))
        for c in coeffs.T[::-1]:  # Horner
            g = g * q + c[:, None]
        tables.append((w, g, sigma, np.vecdot(g, w), np.vecdot(g * g, w)))
    _, _, sigmas, means, sq_means = zip(*tables)
    mu = sum(s * m for s, m in zip(sigmas, means)) / len(tables)
    values = 4.0 * sum(np.vecdot((g - s * mu[:, None]) ** 2, w)
                       for w, g, s, _, _ in tables) / len(tables)
    leading = encoding(cfg.strategy) == COHERENT_SUPERPOSITION and which_param == THETA2
    estimates = []
    for value, mean, sq_mean in zip(values.tolist(), zip(*(a.tolist() for a in means)),
                                    zip(*(a.tolist() for a in sq_means))):
        diagnostics = {"branch_means": mean, "branch_square_means": sq_mean}
        if leading:  # leading-order squared-expectation form, for regression only
            diagnostics["expectation_squared_form"] = 4.0 * mean[0] ** 2
        estimates.append(QfiEstimate(value, "generator_exact", converged=True,
                                     diagnostics=diagnostics))
    return estimates


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
    """Var(X) or Var(P) of the probe, exact on its quadrature nodes."""
    q, w = probe_on_nodes(probe, which, 2)
    return float(w @ (q * q)) - float(w @ q) ** 2


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
    if m == 1:
        var_x = _probe_variance(cfg.probe, "X")
        var_p = _probe_variance(cfg.probe, "P")
        if strategy == SWITCH:
            if which_param == THETA1:
                value = (cfg.theta2 * n * n) ** 2 + 4 * var_x * n * n
            else:
                value = (cfg.theta1 * n * n) ** 2 + 4 * var_p * n * n
        else:
            if which_param == THETA1:
                value = (4 * cfg.theta2 * n * n) ** 2 + 16 * var_x * n * n
            else:
                value = (4 * cfg.theta1 * n * n) ** 2 + 16 * var_p * n * n
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

    The Fock route starts at the first d = DIM_START 2^k <= DIM_CAP at which
    `prepare_probe` holds the probe.  The reach rule then sends the row to
    the nodes when the branches carry the probe's momentum bulk past the
    basis at DIM_CAP.  Every eigenvalue of the truncated P at d is a zero of
    the Hermite polynomial H_d, scaled, and lies inside sqrt(2d + 1), the
    classical turning point of level d (energy (X^2 + P^2)/2 = d + 1/2).  The
    probe's momentum bulk is centred at c (sqrt(2) Im alpha for a coherent
    probe, else 0) with half-width s sqrt(2n + 1): the turning point of
    Fock(n) (n = 0 for every other kind), stretched by s = e^r for a squeezed
    probe, whose momentum width is e^r times the vacuum's (s = 1 otherwise).
    The exact Heisenberg motion P(t) = P - theta1 t moves that bulk rigidly
    down by `momentum_shift`, so when |c - shift| + s sqrt(2n + 1) passes
    sqrt(2 DIM_CAP + 1), the final state has weight where no basis up to
    DIM_CAP has support.  A node row of theta1, which moves the node grid,
    is taken by neither route: an EnvelopeError.
    """
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
    if which_param != THETA2:
        raise EnvelopeError(
            f"no Fock basis up to d={DIM_CAP} holds this row, and the momentum-node "
            f"route covers theta2 only ({which_param} moves the node grid)")
    return None


@_within_float_range
def qfi_nodes(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
    """Exact QFI of theta2 on momentum nodes.

    Branch b is the probe's node amplitudes phi over sqrt(2) times
    e^{-i theta2 Phi_b(q)} (`node_phases`), Phi_b free of theta2, so
    d psi = -i (Phi - mu) psi exactly, centred on the state's mean mu (a
    constant adds only a global phase), and F = 4 sum_b sum_j |phi_j|^2 / 2
    (Phi_b - mu)^2.  Each term is e^{-t^2} times a polynomial of degree
    2m + 2n in the base node t, so one grid of G = m + 1 + n nodes (n for
    Fock(n)) sums it exactly: converged by construction, with G as
    `dim_used`.  A grid past NODE_CAP is refused where the node table is
    built, an F past the float range as it is computed.  theta1 moves the
    grid: `route` refuses a theta1 row before it gets here.
    """
    if which_param != THETA2:
        raise ContractViolationError(
            f"qfi_nodes covers theta2 only, got {which_param!r}; qfi.route refuses the rest")
    q, phi, _ = probe_amplitudes(cfg.probe, cfg.m + 1, 0.0)
    density = np.abs(phi) ** 2 / 2
    phases = node_phases(cfg, q)
    mu = sum(density @ phase for phase in phases)
    value = 4.0 * sum(density @ (phase - mu) ** 2 for phase in phases)
    return QfiEstimate(float(value), "exact_nodes", diagnostics={"dim_used": q.size})


def qfi_converged(cfg: StrategyConfig, which_param: str) -> QfiEstimate:
    """Exact QFI of the Fock-basis state with the dimension-doubling loop
    wrapped around it.

    `route` runs first and decides the row from its config: a row no basis
    up to DIM_CAP can hold goes to `qfi_nodes` and never builds a Fock
    state, and a theta1 row no route takes is refused there.  Otherwise the
    loop starts at the d `route` returns, the smallest doubling of DIM_START
    whose basis holds the probe, and at each d builds the state once with
    its exact derivative (`output_derivative`): no step, no Richardson.
    Converged means the value stopped moving under doubling; an unconverged
    estimate names the d it reached in `diagnostics["reason"]`.  The
    generator route needs no loop: see `qfi_generator`.
    """
    start = route(cfg, which_param)
    if start is None:
        return qfi_nodes(cfg, which_param)

    def at_dim(d: int) -> float:
        psi, dpsi = output_derivative(cfg, d, which_param)
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
    """10 (|<P>_probe| + 1), the least N |theta1| of the large-N regime."""
    q, w = probe_on_nodes(probe, "P", 1)
    return LARGE_N_FACTOR * (abs(float(w @ q)) + 1.0)


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
