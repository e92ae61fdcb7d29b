"""Optomechanical coupling estimation by homodyne readout, plus the log-log
scaling fitter shared by all precision sweeps.

The model is a single cavity photon dispersively pushing a low-frequency
mirror (harmonic term dropped in the free-particle limit): over time N tau
the two photon branches evolve under P^2/2m and omega_c + P^2/2m + g X, and
the cavity quadrature X_cav = (a + a^dag)/sqrt(2) carries the interference
signal Re<phi_0|phi_1>/sqrt(2).  The variance of g follows from the error
transfer formula delta^2 g = Var(X_cav) / |d<X_cav>/dg|^2, with <phi_0|phi_1>
and its g-derivative in closed form (`mirror_overlap`): no step, no grid.
The quantum bound 1/F_g (`optomech_fisher`) is exact too: the branches and
the g-derivative of the coupled one are closed forms on a fixed grid of
Gauss-Hermite momentum nodes, where both propagators act exactly.  The
output state on that grid (`optomech_state`) is the oracle of F_g, which
the tests difference.

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
from dataclasses import dataclass

import numpy as np

from .cvspace import (
    MOMENTUM_NODES,
    NORM_TOL,
    FockDim,
    ProbeSpec,
    _node_table,
    probe_amplitudes,
)
from .errors import (
    ContractViolationError,
    DomainError,
    EnvelopeError,
    UnidentifiableParameterError,
)
from .strategies import QState

# Photon amplitude stays in {|0>, |1>}, so three cavity levels already give
# exact X_cav and X_cav^2 elements there; more levels only cost time.
CAVITY_DIM = FockDim(3)
MIN_FIT_POINTS = 4
EPS = float(np.finfo(float).eps)
READOUT_ROUNDING_TOL = 1e-6  # largest share of Re(o') the phase rounding may take


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


def _mirror_branches(p: OptomechParams):
    """The mirror branches b0, b1 and the g-derivative of b1 on the momentum
    grid of `probe_amplitudes`.

    With X = i d/dp both propagators act exactly over T = N tau: e^{-iT P^2/2m}
    is the phase T p^2/2m, and e^{-iT(omega_c + P^2/2m + g X)} moves psi(p)
    to psi(p + s), s = gT, under Theta = omega_c T + s T p/2m + s^2 T/6m.  b0
    is free of g, and d b1/dg = T psi'(p + s) - i T^2 (p/2m + s/3m) psi(p + s)
    times b1's phases, with psi' exact from the node table.

    EnvelopeError when a branch's grid norm misses 1 by more than NORM_TOL
    (the momentum shift g N tau leaves the grid)."""
    t_total = p.n_steps * p.tau
    shift = p.g * t_total
    q, phi, _ = probe_amplitudes(p.mirror_probe, MOMENTUM_NODES, 0.0)
    _, moved, d_moved = probe_amplitudes(p.mirror_probe, MOMENTUM_NODES, shift)
    kinetic = np.exp(-1j * t_total * q ** 2 / (2 * p.mass))
    coupled = np.exp(-1j * (p.omega_c * t_total + shift * t_total * q / (2 * p.mass)
                            + shift ** 2 * t_total / (6 * p.mass)))
    b0, b1 = kinetic * phi, coupled * kinetic * moved
    miss = max(abs(np.vdot(b, b).real - 1.0) for b in (b0, b1))
    if not miss <= NORM_TOL:
        raise EnvelopeError(f"mirror branches leave the {b0.size}-node momentum grid: "
                            f"norm misses 1 by {miss:.3e}")
    d_angle = t_total * t_total * (q / (2 * p.mass) + shift / (3 * p.mass))
    return b0, b1, coupled * kinetic * (t_total * d_moved - 1j * d_angle * moved)


def optomech_state(p: OptomechParams) -> QState:
    """Two-branch output (|0> e^{-iH0 Nt}|phi> + |1> e^{-iH1 Nt}|phi>)/sqrt(2)
    on (CAVITY_DIM Fock levels) x (mirror momentum grid); the photon number
    is conserved, so levels >= 2 stay exactly empty.

    EnvelopeError when the branches leave the grid (`_mirror_branches`).
    The node sum of <b0|b1> aliases once k = g (N tau)^2 / 2m nears
    sqrt(2 MOMENTUM_NODES), so the readout takes it from `mirror_overlap`;
    this state is the oracle of F_g, which `optomech_fisher` takes exactly."""
    b0, b1, _ = _mirror_branches(p)
    amps = np.concatenate([b0, b1, np.zeros_like(b0)]) / math.sqrt(2)
    return QState(CAVITY_DIM.d, FockDim(b0.size), amps)


def optomech_fisher(p: OptomechParams) -> float:
    """F_g of `optomech_state`, exact: only b1 depends on g, so
    F_g = 4(<d psi|d psi> - |<d psi|psi>|^2) = 2<db1|db1> - |<db1|b1>|^2,
    with db1 = d b1/dg from `_mirror_branches` (its EnvelopeError included):
    no step, no Richardson."""
    _, b1, d_b1 = _mirror_branches(p)
    return float(2.0 * np.vdot(d_b1, d_b1).real - abs(np.vdot(d_b1, b1)) ** 2)


def _laguerre(n: int, u: float) -> tuple:
    """e^{-u/2} L_n(u) and its u-derivative e^{-u/2} (L_n' - L_n/2) by the
    three-term recurrences of L_k and L_k', rescaled each step with the scale
    kept as a log, so no power of u overflows (|e^{-u/2} L_n(u)| <= 1)."""
    l0, l1, d0, d1, log_scale = 0.0, 1.0, 0.0, 0.0, -u / 2
    for k in range(n):
        a = 2 * k + 1 - u
        l0, l1, d0, d1 = l1, (a * l1 - k * l0) / (k + 1), d1, (a * d1 - l1 - k * d0) / (k + 1)
        scale = max(abs(l0), abs(l1), abs(d0), abs(d1)) or 1.0
        l0, l1, d0, d1 = l0 / scale, l1 / scale, d0 / scale, d1 / scale
        log_scale += math.log(scale)
    return l1 * math.exp(log_scale), (d1 - l1 / 2) * math.exp(log_scale)


def mirror_overlap(p: OptomechParams) -> tuple:
    """<b0|b1> and its g-derivative in closed form.

    With T = N tau, s = gT and k = gT^2/2m the kinetic phases cancel:
    <b0|b1> = e^{-i(omega_c T - sk/6)} chi, chi = <phi|e^{-i(sX + kP)}|phi>
    the probe's characteristic function, exp(-i(s<X> + k<P>) - (s^2 Var X +
    k^2 Var P)/2) on the Gaussian probes (none has X-P covariance) and
    e^{-u/2} L_n(u), u = (s^2 + k^2)/2, on fock(n).  The moments come from
    the probe's degree-2 node table (its node cap kept), on the centred t of
    Q = c + w t, so no step subtracts two values of size |c|; the derivative
    is the product rule.  Overflowing inputs give NaN, never a numpy warning."""
    t_total = p.n_steps * p.tau
    ds, dk = t_total, t_total * t_total / (2 * p.mass)  # s = g ds, k = g dk
    s, k = p.g * ds, p.g * dk
    spec = p.mirror_probe
    (mean_x, var_x), (mean_p, var_p) = (
        (centre + width * (w @ t), width * width * (w @ (t - w @ t) ** 2))
        for t, w, centre, width in (_node_table(spec, axis, 2)[:4] for axis in "XP"))
    with np.errstate(all="ignore"):
        if spec.kind == "fock":
            chi, chi_u = _laguerre(spec.n, (s * s + k * k) / 2)
            d_chi = chi_u * (s * ds + k * dk)
        else:
            chi = np.exp(-1j * (s * mean_x + k * mean_p) - (s * s * var_x + k * k * var_p) / 2)
            d_chi = chi * (-1j * (ds * mean_x + dk * mean_p) - (s * ds * var_x + k * dk * var_p))
        phase = np.exp(-1j * (p.omega_c * t_total - s * k / 6))
        d_phase = 1j * (ds * k + s * dk) / 6
        return complex(phase * chi), complex(phase * (d_chi + d_phase * chi))


def homodyne_g_variance(p: OptomechParams) -> float:
    """Error-transfer variance of g from the cavity quadrature readout.

    On the one-photon branch pair <X_cav> = Re<b0|b1>/sqrt(2) and
    <X_cav^2> = 1, so delta^2 g = (1 - Re(o)^2/2) / (Re(o')^2/2) with o and
    o' = do/dg from `mirror_overlap`.  A slope that vanishes, is not finite
    or underflows leaves no finite positive delta^2 g: g is unidentifiable.

    Vanished includes a Re(o') within the rounding of o's phase: its angle
    omega_c T - sk/6 is rounded to a few eps of its size, which turns that
    share of |o'| into Re(o').  At g = 0, where omega_c T = 2 pi N makes
    Re(o') exactly 0, it reads 2e-15 to 2.3e-14 of |o'| on the shipped sweep.
    Just above that bound delta^2 g would carry a relative error near twice
    the rounding over |Re(o')|, so a share above READOUT_ROUNDING_TOL is
    refused as imprecise: 3e-2 with a coherent(0.3+0.2i) mirror at
    g = 1e-12, against 4e-13 at the shipped g = 0.07.
    """
    overlap, slope = mirror_overlap(p)
    rate = slope.real
    t_total = p.n_steps * p.tau
    angle = p.omega_c * t_total - p.g * t_total * p.g * t_total * t_total / (12 * p.mass)
    rounding = 4 * EPS * max(1.0, abs(angle)) * abs(slope)
    vanished = abs(rate) <= rounding
    share = 2 * rounding / abs(rate) if abs(rate) > rounding else math.inf
    gain = rate * rate / 2
    precise = gain > 0 and share <= READOUT_ROUNDING_TOL
    d2 = (1.0 - overlap.real * overlap.real / 2) / gain if precise else math.inf
    if not 0 < d2 < math.inf:
        reason = ("is not finite" if not (math.isfinite(rate) and math.isfinite(overlap.real))
                  else "vanished" if vanished and overlap != 0.0
                  else (f"is imprecise: the phase rounding is {share:.1e} of it "
                        f"(limit {READOUT_ROUNDING_TOL:g})")
                  if READOUT_ROUNDING_TOL < share < math.inf
                  else "underflows in double precision")
        raise UnidentifiableParameterError(
            f"d<X_cav>/dg {reason}; g cannot be estimated at this point")
    return d2


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

