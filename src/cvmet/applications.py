"""Optomechanical coupling estimation by homodyne readout, plus the log-log
scaling fitter shared by all precision sweeps.

The model is a single cavity photon dispersively pushing a low-frequency
mirror (harmonic term dropped in the free-particle limit): over time N tau
the two photon branches evolve under P^2/2m and omega_c + P^2/2m + g X, and
the cavity quadrature X_cav = (a + a^dag)/sqrt(2) carries the interference
signal Re<phi_0|phi_1>/sqrt(2).  The mirror has no Fock basis: its branches
are closed forms on a fixed grid of Gauss-Hermite momentum nodes, where both
propagators act exactly.  The variance of g follows from the error transfer
formula delta^2 g = Var(X_cav) / |d<X_cav>/dg|^2.

Shipped defaults: g = 0.07, mass = 1.1, omega_c = 2 pi / tau, tau = 0.2,
vacuum mirror probe, N in {8, 10, ..., 24}.  The cavity detuning is locked
to a full 2 pi turn per step so the stroboscopic homodyne signal is not
aliased by the bare cavity rotation, and the mass puts the sweep at the
kinetic/displacement crossover where the interference phase accumulates as
N^3 and delta^2 g tracks its N^-6 window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cvspace import (
    MOMENTUM_NODES,
    NORM_TOL,
    FockDim,
    ProbeSpec,
    build_quadrature,
    probe_amplitudes,
    richardson,
)
from .errors import (
    ContractViolationError,
    DomainError,
    EnvelopeError,
    NonConvergenceError,
    UnidentifiableParameterError,
)
from .strategies import QState

OVERLAP_REL_TOL = 1e-6  # largest relative move of <b0|b1> allowed on twice the nodes
# Photon amplitude stays in {|0>, |1>}, so three cavity levels already give
# exact X_cav and X_cav^2 elements there; more levels only cost time.
CAVITY_DIM = FockDim(3)
MIN_FIT_POINTS = 4


@dataclass(frozen=True)
class OptomechParams:
    """Radiation-pressure estimation setup.

    `mass` is the effective mirror mass (named to avoid clashing with the
    nonlinearity order used elsewhere); `n_steps` plays the role of N.
    """

    g: float
    mass: float
    omega_c: float
    tau: float
    n_steps: int
    mirror_probe: ProbeSpec = ProbeSpec.vacuum()

    def __post_init__(self):
        if self.mass <= 0:
            raise ContractViolationError("mirror mass must be positive")
        if self.tau <= 0:
            raise ContractViolationError("step time tau must be positive")
        if self.n_steps < 1:
            raise ContractViolationError("n_steps must be a positive integer")


DEFAULT_OPTOMECH = OptomechParams(g=0.07, mass=1.1, omega_c=2 * math.pi / 0.2,
                                  tau=0.2, n_steps=8)
DEFAULT_OPTOMECH_SWEEP = tuple(range(8, 25, 2))


def _mirror_branches(p: OptomechParams, nodes: int = MOMENTUM_NODES):
    """The mirror branches on the momentum grid of `probe_amplitudes`.

    With X = i d/dp both propagators act exactly over T = N tau: e^{-iT P^2/2m}
    is the phase T p^2/2m, and e^{-iT(omega_c + P^2/2m + g X)} moves psi(p)
    to psi(p + gT) under omega_c T + T p^2/2m + g T^2 p/2m + g^2 T^3/6m."""
    t_total = p.n_steps * p.tau
    shift = p.g * t_total
    q, phi = probe_amplitudes(p.mirror_probe, nodes, 0.0)
    _, moved = probe_amplitudes(p.mirror_probe, nodes, shift)
    kinetic = np.exp(-1j * t_total * q ** 2 / (2 * p.mass))
    coupled = np.exp(-1j * (p.omega_c * t_total + shift * t_total * q / (2 * p.mass)
                            + shift ** 2 * t_total / (6 * p.mass)))
    return kinetic * phi, coupled * kinetic * moved


def optomech_state(p: OptomechParams) -> QState:
    """Two-branch output (|0> e^{-iH0 Nt}|phi> + |1> e^{-iH1 Nt}|phi>)/sqrt(2)
    on (CAVITY_DIM Fock levels) x (mirror momentum grid); the photon number
    is conserved, so levels >= 2 stay exactly empty.

    EnvelopeError when a branch's grid norm misses 1 by more than NORM_TOL
    (the momentum shift g N tau leaves the grid), or when <b0|b1> moves by
    more than OVERLAP_REL_TOL relative on twice the nodes: past the kinetic
    phases it keeps e^{-ikp}, k = g (N tau)^2 / 2m, and the node sum aliases
    to a smooth wrong value once k nears sqrt(2 MOMENTUM_NODES)."""
    b0, b1 = _mirror_branches(p)
    reference = np.vdot(*_mirror_branches(p, 2 * MOMENTUM_NODES))
    miss = max(abs(np.vdot(b, b).real - 1.0) for b in (b0, b1))
    gap = abs(np.vdot(b0, b1) - reference)
    if not (miss <= NORM_TOL and gap <= OVERLAP_REL_TOL * abs(reference)):
        raise EnvelopeError(f"mirror branches leave the {b0.size}-node momentum grid: norm "
                            f"misses 1 by {miss:.3e}, <b0|b1> moves by {gap:.3e} on twice the nodes")
    amps = np.concatenate([b0, b1, np.zeros_like(b0)]) / math.sqrt(2)
    return QState(CAVITY_DIM.d, FockDim(b0.size), amps)


def cavity_moment(state: QState, k: int = 1) -> float:
    """<X_cav^k> on the cavity register of an optomech output state."""
    x_cav = build_quadrature(CAVITY_DIM, "X")
    blocks = state.amplitudes.reshape(state.control_dim, -1)
    work = blocks
    for _ in range(k):
        work = x_cav.mat @ work
    val = complex(np.vdot(blocks, work))
    if abs(val.imag) > 1e-10:
        raise ContractViolationError("cavity quadrature moment grew an imaginary part")
    return val.real


def cavity_mean(p: OptomechParams) -> float:
    return cavity_moment(optomech_state(p), 1)


def homodyne_g_variance(p: OptomechParams) -> float:
    """Error-transfer variance of g from the cavity quadrature readout.

    delta^2 g = (<X^2> - <X>^2) / |d<X>/dg|^2 with the derivative taken by
    central differences under the `richardson` step-halving check; a failed
    check raises NonConvergenceError.  A vanishing derivative means g is
    unidentifiable at this operating point.
    """
    state = optomech_state(p)
    mean = cavity_moment(state, 1)
    second = cavity_moment(state, 2)

    def slope(step: float) -> float:
        up = cavity_mean(replace(p, g=p.g + step))
        dn = cavity_mean(replace(p, g=p.g - step))
        return (up - dn) / (2 * step)

    derivative, converged, history = richardson(slope, 1e-4 * max(1.0, abs(p.g)))
    if not converged:
        raise NonConvergenceError(
            f"derivative Richardson check failed; (h, f_h, f_h2, residual) = {history}")
    if derivative == 0.0:
        raise UnidentifiableParameterError(
            "d<X_cav>/dg vanished; g cannot be estimated at this point")
    return (second - mean ** 2) / derivative ** 2


@dataclass(frozen=True)
class ScalingFit:
    """Ordinary least squares on (log N, log y) with its r^2."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple  # ((log N, log y), ...)


def fit_scaling(points) -> ScalingFit:
    """OLS power-law fit; at least MIN_FIT_POINTS strictly positive (N, y) pairs.

    No robustification: a bad r^2 (below 0.9) warns instead of being
    silently absorbed.
    """
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < MIN_FIT_POINTS:
        raise DomainError(f"scaling fit needs >= {MIN_FIT_POINTS} points, got {len(pts)}")
    if any(n <= 0 or y <= 0 for n, y in pts):
        raise DomainError("scaling fit needs strictly positive N and y")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    design = np.vstack([np.ones_like(x), x]).T
    (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([intercept, slope])
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(max(r2, 0.0), 1.0)
    if r2 < 0.9:
        warnings.warn(f"scaling fit r^2 = {r2:.3f}: data is far from a power law")
    return ScalingFit(float(slope), float(intercept), r2,
                      tuple(zip(x.tolist(), y.tolist())))

