"""Headless acceptance suite: every acceptance check behind the `claims`
CLI command and the acceptance test module, one function per claim.

Each claim returns a ClaimResult with the measured numbers in `details`, so
a failure is diagnosable from the one-line report.  Tolerances are pinned
here, not in the callers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .applications import (
    DEFAULT_OPTOMECH,
    DEFAULT_OPTOMECH_SWEEP,
    fit_scaling,
    homodyne_g_variance,
    optomech_fisher,
    optomech_state,
)
from .bch import nested_commutator_oracle, verify_factorization, zassenhaus_term
from .cvspace import FockDim, ProbeSpec, build_quadrature
from .qfi import (
    RATIO_N_SWEEP,
    RATIO_THETA1,
    THETA1,
    THETA2,
    crb_precision,
    precision_ratio,
    qfi_converged,
    qfi_fd,
    qfi_generator,
    ratio_formula,
)
from .strategies import (
    COHERENT_SUPERPOSITION,
    SWITCH,
    CompositeParams,
    QState,
    StrategyConfig,
    composite_output,
    cs_output,
    cs_output_factorized,
    switch_output,
    switch_output_factorized,
)


@dataclass(frozen=True)
class ClaimResult:
    number: int
    title: str
    passed: bool
    details: str


def _rel_err(measured: float, expected: float) -> float:
    return abs(measured - expected) / max(abs(expected), 1e-300)


# Shipped regime for the scaling comparison (recorded, not tunable at run
# time): every point stays above the large-N gate.
SCALING_THETA1 = 1.2
SCALING_N_SWEEP = tuple(range(14, 27, 2))


def claim_1_switch_linear_qfi() -> ClaimResult:
    """Switch, m=1: the Fock-basis QFI of the first coupling (`qfi_converged`,
    exact derivative, dimension doubling) reproduces theta2^2 N^4 + 4 N^2 Var(X)
    to relative 1e-3 for N in {2,4,6,8}."""
    worst = 0.0
    rows = []
    for n in (2, 4, 6, 8):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=n, m=1, strategy=SWITCH)
        est = qfi_converged(cfg, THETA1)
        expected = cfg.theta2 ** 2 * n ** 4 + 4 * n ** 2 * 0.5
        err = _rel_err(est.value, expected)
        worst = max(worst, err)
        rows.append(f"N={n}: F={est.value:.6f} vs {expected:.6f} (rel {err:.2e})")
        if not est.converged:
            return ClaimResult(1, "switch linear QFI", False, f"non-converged at N={n}")
    return ClaimResult(1, "switch linear QFI", worst <= 1e-3,
                       f"worst rel err {worst:.2e}; " + "; ".join(rows))


def claim_2_cs_linear_qfi() -> ClaimResult:
    """Coherent superposition, m=1: the Fock-basis QFI (`qfi_converged`, exact
    derivative) and the generator route agree (rel 1e-3), both equal
    16 N^4 theta1^2 + 16 N^2 Var(P), and the value depends on theta1, not
    theta2 (cross-sweep constant to rel 1e-6; a Richardson fd at d = 128
    corroborates that).  Every build asks `generator_spectrum` for its m = 1
    branch theta1 X + theta2 P, a rotation of the one cached X spectrum per
    dimension, taken as a phase frame on it (`Spectrum.in_frame`): the rows
    over N share it with no eigh, no eigenvector copy and no orthonormality
    check of their own."""
    worst_pair = worst_formula = 0.0
    for n in (2, 4, 6, 8):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=n, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        fock = qfi_converged(cfg, THETA2)
        gen = qfi_generator(cfg, THETA2)
        expected = 16 * n ** 4 * cfg.theta1 ** 2 + 16 * n ** 2 * 0.5
        worst_pair = max(worst_pair, _rel_err(fock.value, gen.value))
        worst_formula = max(worst_formula, _rel_err(gen.value, expected),
                            _rel_err(fock.value, expected))
    # cross-sweep: vary theta2 at fixed theta1; the converged estimates must
    # not move (the exact generator is theta2-free; a finite difference, the
    # one estimator here that shares no code with the exact derivative, is
    # checked loosely as a non-symbolic corroboration)
    base = None
    spread_gen = 0.0
    spread_fd = 0.0
    fd_vals = []
    for theta2 in (0.02, 0.05, 0.1):
        cfg = StrategyConfig(theta1=0.1, theta2=theta2, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        gen = qfi_generator(cfg, THETA2).value
        fd_vals.append(qfi_fd(
            lambda t, c=cfg: cs_output(replace(c, theta2=t), FockDim(128)),
            theta2).value)
        if base is None:
            base = gen
        spread_gen = max(spread_gen, _rel_err(gen, base))
    spread_fd = (max(fd_vals) - min(fd_vals)) / max(fd_vals)
    passed = worst_pair <= 1e-3 and worst_formula <= 1e-3 and spread_gen <= 1e-6
    return ClaimResult(2, "coherent-superposition linear QFI", passed,
                       f"Fock/gen worst rel {worst_pair:.2e}; formula worst rel "
                       f"{worst_formula:.2e}; theta2 cross-sweep spread {spread_gen:.2e} "
                       f"(fd corroboration spread {spread_fd:.2e})")


def claim_3_precision_ratios() -> ClaimResult:
    """delta theta2 ratios cs/switch: 1/4 +-2% (m=1), 3/16 +-5% (m=2),
    1/8 +-5% (m=3), each at the largest N passing the large-N gate."""
    tolerances = {1: 0.02, 2: 0.05, 3: 0.05}
    parts = []
    passed = True
    for m, tol in tolerances.items():
        ratios = precision_ratio(m, RATIO_THETA1, RATIO_N_SWEEP)
        n_star, measured = max((n, r) for n, r in zip(RATIO_N_SWEEP, ratios) if r is not None)
        target = ratio_formula(m)
        err = abs(measured / target - 1.0)
        passed = passed and err <= tol
        parts.append(f"m={m} (N={n_star}): {measured:.6f} vs {target:.6f} "
                     f"(dev {err:.2%}, tol {tol:.0%})")
    return ClaimResult(3, "precision ratios cs/switch", passed, "; ".join(parts))


def claim_4_scaling_exponents() -> ClaimResult:
    """log-log slope of delta theta2 versus N is -(m+1) +- 0.05 for
    m in {1,2,3} and both strategies."""
    parts = []
    passed = True
    for m in (1, 2, 3):
        for strategy in (COHERENT_SUPERPOSITION, SWITCH):
            points = []
            for n in SCALING_N_SWEEP:
                cfg = StrategyConfig(theta1=SCALING_THETA1, theta2=0.05, n_queries=n,
                                     m=m, strategy=strategy)
                est = qfi_generator(cfg, THETA2)
                points.append((n, crb_precision(est).delta_theta))
            fit = fit_scaling(points)
            err = abs(fit.slope + (m + 1))
            passed = passed and err <= 0.05
            parts.append(f"m={m} {strategy}: slope {fit.slope:+.4f} "
                         f"(target {-(m + 1)}, |err| {err:.4f}, r2 {fit.r_squared:.5f})")
    return ClaimResult(4, "scaling exponents", passed, "; ".join(parts))


def claim_5_zassenhaus() -> ClaimResult:
    """Closed-form coefficients equal the nested-commutator oracle exactly,
    the two variants satisfy C'_n = -(n-1) C_n exactly, and the matrix
    factorization residual stays below 1e-7 at d=128 with |lambda| <= 0.3."""
    for m in range(1, 7):
        for n in range(2, m + 3):
            if zassenhaus_term(m, n, "AB") != nested_commutator_oracle(m, n):
                return ClaimResult(5, "operator-ordering suite", False,
                                   f"closed form != oracle at m={m}, n={n}")
            lhs = zassenhaus_term(m, n, "BA")
            rhs = zassenhaus_term(m, n, "AB").scale(-(n - 1))
            if lhs != rhs:
                return ClaimResult(5, "operator-ordering suite", False,
                                   f"variant relation failed at m={m}, n={n}")
    residues = []
    worst = 0.0
    for m, lam in ((1, 0.3), (2, 0.3), (3, 0.1)):
        for variant in ("AB", "BA"):
            res = verify_factorization(m, lam, FockDim(128), variant).residual
            worst = max(worst, res)
            residues.append(f"m={m} {variant} lam={lam}i: {res:.2e}")
    return ClaimResult(5, "operator-ordering suite", worst < 1e-7,
                       f"max residual {worst:.2e}; " + "; ".join(residues[:4]))


def claim_6_factorized_state_oracles() -> ClaimResult:
    """Generic builders, which apply each query block as one exponent and read
    no bch table, match the factorized closed forms with fidelity >= 1 - 1e-7
    on a 3x3 coupling grid, N = 6, m in {1, 2}."""
    dim = FockDim(128)
    worst = 0.0
    for m in (1, 2):
        for theta1 in (0.02, 0.06, 0.1):
            for theta2 in (0.02, 0.06, 0.1):
                cfg = StrategyConfig(theta1=theta1, theta2=theta2, n_queries=6, m=m,
                                     strategy=SWITCH)
                f_sw = switch_output(cfg, dim).fidelity(switch_output_factorized(cfg, dim))
                cs_cfg = replace(cfg, strategy=COHERENT_SUPERPOSITION)
                f_cs = cs_output(cs_cfg, dim).fidelity(cs_output_factorized(cs_cfg, dim))
                worst = max(worst, 1.0 - f_sw, 1.0 - f_cs)
    return ClaimResult(6, "factorized-state oracles", worst <= 1e-7,
                       f"max fidelity defect {worst:.2e} over 18 grid points")


def claim_7_composite_equality() -> ClaimResult:
    """Composite-model output equals the coherent-superposition state under
    theta_j = T G_j / 2N with fidelity >= 1 - 1e-12."""
    worst = 0.0
    for (g1, g2, t, n) in ((0.4, 0.4, 1.0, 4), (0.3, 0.6, 2.0, 5)):
        params = CompositeParams(g1=g1, g2=g2, t=t, n_queries=n)
        theta1, theta2 = params.thetas()
        cfg = StrategyConfig(theta1=theta1, theta2=theta2, n_queries=n, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        dim = FockDim(128)
        fid = composite_output(params, ProbeSpec.vacuum(), dim).fidelity(
            cs_output(cfg, dim))
        worst = max(worst, 1.0 - fid)
    return ClaimResult(7, "composite realization equality", worst <= 1e-12,
                       f"max fidelity defect {worst:.2e}")


def claim_8_optomech_scaling() -> ClaimResult:
    """Shipped optomech defaults: delta^2 g slope -6 +- 0.2 over the N sweep,
    delta^2 g * g^2 N^6 plateaus within 10% over the top half, and the
    homodyne variance never beats the quantum bound 1/F_g."""
    p0 = DEFAULT_OPTOMECH
    rows = []
    crb_ok = True
    crb_note = ""
    for n in DEFAULT_OPTOMECH_SWEEP:
        p = replace(p0, n_steps=int(n))
        d2 = homodyne_g_variance(p)
        rows.append((n, d2))
        bound = 1.0 / optomech_fisher(p)
        if d2 < bound * (1.0 - 1e-9):
            crb_ok = False
            crb_note = f"; CRB violated at N={n}: {d2:.3e} < {bound:.3e}"
    fit = fit_scaling(rows)
    plateau = [d2 * p0.g ** 2 * n ** 6 for n, d2 in rows]
    top = plateau[len(plateau) // 2:]
    relvar = (max(top) - min(top)) / (sum(top) / len(top))
    slope_ok = abs(fit.slope + 6.0) <= 0.2
    plateau_ok = relvar < 0.10
    return ClaimResult(8, "optomech inverse-sixth-power window",
                       slope_ok and plateau_ok and crb_ok,
                       f"slope {fit.slope:+.4f} (r2 {fit.r_squared:.5f}), plateau rel "
                       f"variation {relvar:.2%}, CRB respected at all "
                       f"{len(rows)} points{crb_note}")


def _phase_injected(builder, phase: complex):
    def build(theta):
        state = builder(theta)
        return QState(state.control_dim, state.fock, phase * state.amplitudes)

    return build


def claim_9_property_suite() -> ClaimResult:
    """Gauge invariance, non-negativity with an exact zero for a flat builder,
    photon-number conservation, the truncated commutator structure, and CSV
    determinism, all in one headless pass."""
    problems = []

    cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=3, m=1,
                         strategy=COHERENT_SUPERPOSITION)
    dim = FockDim(64)
    builder = lambda t: cs_output(replace(cfg, theta2=t), dim)
    f_plain = qfi_fd(builder, cfg.theta2)
    f_phase = qfi_fd(_phase_injected(builder, np.exp(0.4j)), cfg.theta2)
    if abs(f_plain.value - f_phase.value) > 1e-10 * max(1.0, abs(f_plain.value)):
        problems.append(f"gauge variance {abs(f_plain.value - f_phase.value):.2e}")
    if f_plain.value < 0:
        problems.append("negative QFI")

    frozen = builder(cfg.theta2)
    f_zero = qfi_fd(lambda t: frozen, cfg.theta2)
    if f_zero.value != 0.0:
        problems.append(f"flat builder QFI {f_zero.value!r} != 0")

    state = optomech_state(replace(DEFAULT_OPTOMECH, n_steps=12))
    dm = state.fock.d
    leak = float(np.abs(state.amplitudes[2 * dm:]).max())
    if leak != 0.0:
        problems.append(f"photon leakage {leak:.2e}")

    for d in (8, 32, 128):
        x = build_quadrature(d, "X").mat
        p = build_quadrature(d, "P").mat
        comm = x @ p - p @ x
        expect = 1j * np.eye(d)
        expect[d - 1, d - 1] = 1j * (1 - d)
        if np.abs(comm - expect).max() > 1e-12:
            problems.append(f"commutator structure off at d={d}")

    if _sweep_csv_body() != _sweep_csv_body():
        problems.append("CSV bodies differ between identical runs")

    return ClaimResult(9, "property suite", not problems,
                       "all properties hold" if not problems else "; ".join(problems))


def _sweep_csv_body() -> str:
    """One small sweep through the real CSV pipeline, version line stripped."""
    from . import cli  # local import keeps claims importable from cli

    config = cli.load_config("sweep", None, [("sweep", '{"param": "n_queries", '
                                                       '"values": [2, 3, 4]}')])
    return cli.cmd_sweep(config).csv_text().split("\n", 1)[1]


ALL_CLAIMS = (
    claim_1_switch_linear_qfi,
    claim_2_cs_linear_qfi,
    claim_3_precision_ratios,
    claim_4_scaling_exponents,
    claim_5_zassenhaus,
    claim_6_factorized_state_oracles,
    claim_7_composite_equality,
    claim_8_optomech_scaling,
    claim_9_property_suite,
)


def run_all():
    return [fn() for fn in ALL_CLAIMS]
