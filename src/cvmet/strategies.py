"""Exact (control x mode) output states of the three coding strategies.

Every block of N identical queries is one exponent: U1^N = e^{-i N theta1 X},
U2^N = e^{-i N theta2 P^m}.  The generic switch builder applies those two
blocks in both orders and reads no bch table, so the factorized closed forms
assembled from the tables remain genuinely independent oracles rather than
restatements.  All outputs are normalized (the Fisher-information formula
downstream presumes unit norm) and the control register is fixed to
(|0> + |1>)/sqrt(2).

Relative-phase convention: under [X, P] = +i the linear-case reordering puts
the phase e^{-i N^2 theta1 theta2} on the |0> branch (measured, not assumed:
it is the angle between the two branches of `switch_output`); a convention
that conjugates the commutator moves it to the |1> branch, a global phase
apart.  Fidelity checks therefore quotient the global phase.

`output_derivative` returns a state together with its exact derivative in
theta1 or theta2, from the spectra that build the state: the switch applies
-iN X or -iN P^m at its place in each order through the cached X and P^m
spectra, and the coherent superposition takes the Daleckii-Krein form of
the derivative of e^{-i2N H_+} on the one spectrum of H_+, for both
branches in one pass.

Which generators are decomposed: every generator the package
exponentiates is a X + b P^m (the switch's query blocks X and P^m, the
coherent-superposition branch theta1 X +- theta2 P^m, the factorization
check's X + P^m and its C_n phases r P^k), and `generator_spectrum`
gives each by one rule.  X and P are decomposed once per dimension, in
one bounded cache; b P^m is P's spectrum reweighted to b w^m, a X is X's
reweighted to a w, and at m = 1 a X + b P is a phase-space rotation of X,
X's spectrum reweighted in a diagonal phase frame (`Spectrum.in_frame`),
all without an eigh.  Only a X + b P^m with a, b nonzero and m >= 2 is
decomposed, once, in a small bounded cache keyed by (m, d, a, b), what
enters the matrix: N only sets the evolution time, so the rows of a sweep
over N, the probe or the estimated parameter share the spectrum without
asking for it, and the factorization check's X + P^m is decomposed once
per (m, d) for both variants at every lambda.  Of the two
coherent-superposition branch generators only H_+ = theta1 X + theta2 P^m
is asked for: H_- = -Pi conj(H_+) Pi exactly, Pi the parity, so U_- is
U_+ conjugated and flipped in parity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bch
from .cvspace import (
    NORM_TOL,
    ROW_BLOCK,
    FockDim,
    Operator,
    ProbeSpec,
    Spectrum,
    as_dim,
    build_quadrature,
    operator_power,
    prepare_probe,
    _adjoint_product,
    _product,
    propagator,
    spectrum,
)
from .errors import ContractViolationError

SWITCH = "switch"
COHERENT_SUPERPOSITION = "coherent_superposition"
COMPOSITE = "composite"
STRATEGIES = (SWITCH, COHERENT_SUPERPOSITION, COMPOSITE)
THETA1 = "theta1"
THETA2 = "theta2"


def encoding(strategy: str) -> str:
    """The coding a strategy runs: composite is the coherent superposition."""
    return COHERENT_SUPERPOSITION if strategy == COMPOSITE else strategy


@dataclass(frozen=True)
class QState:
    """Pure state on (control) x (mode), control-major amplitude blocks."""

    control_dim: int
    fock: FockDim
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.control_dim * self.fock.d,):
            raise ContractViolationError(
                f"amplitude length {amps.shape} does not match {self.control_dim} x {self.fock.d}")
        nrm = np.linalg.norm(amps)
        # `not defect <= TOL` rather than `defect > TOL`: a NaN norm fails
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ContractViolationError(f"QState norm {nrm!r} deviates from 1 beyond 1e-10")
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_branches(cls, branches, fock: FockDim) -> "QState":
        """(|0> b_0 + |1> b_1 + ...)/sqrt(c) from unit-norm mode branches."""
        c = len(branches)
        amps = np.concatenate([np.asarray(b, dtype=complex) for b in branches]) / math.sqrt(c)
        return cls(c, fock, amps)

    def branch(self, b: int) -> np.ndarray:
        d = self.fock.d
        return np.array(self.amplitudes[b * d:(b + 1) * d])

    def branch_norm(self, b: int) -> float:
        return float(np.linalg.norm(self.branch(b)))

    def overlap(self, other: "QState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "QState") -> float:
        """|<self|other>|, quotienting the global phase."""
        return abs(self.overlap(other))

    def control_reduced(self) -> np.ndarray:
        """Reduced control density matrix (mode traced out)."""
        blocks = self.amplitudes.reshape(self.control_dim, self.fock.d)
        return blocks @ blocks.conj().T

    def control_purity(self) -> float:
        rho = self.control_reduced()
        return float(np.real(np.trace(rho @ rho)))


@dataclass(frozen=True)
class StrategyConfig:
    """All coding parameters of one experiment configuration.

    theta1 couples H1 = X, theta2 couples H2 = P^m; n_queries is N (the
    switch uses N queries of each gate, the coherent superposition 2N
    queries of U+/U-, so both consume 2N queries in total).  The composite
    realization is linear, so it takes m = 1 only.
    """

    theta1: float
    theta2: float
    n_queries: int
    m: int = 1
    strategy: str = SWITCH
    probe: ProbeSpec = ProbeSpec.vacuum()

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractViolationError(f"unknown strategy {self.strategy!r}")
        if self.n_queries < 1 or self.m < 1:
            raise ContractViolationError("n_queries and m must be positive")
        if self.strategy == COMPOSITE and self.m != 1:
            raise ContractViolationError(
                "the composite realization is defined for the linear case m = 1 only")

    def query_accounting(self) -> dict:
        n = self.n_queries
        if self.strategy == SWITCH:
            return {"u1_queries": n, "u2_queries": n, "total_queries": 2 * n}
        return {"u_plus_minus_queries": 2 * n, "total_queries": 2 * n}


@dataclass(frozen=True)
class CompositeParams:
    """Always-on composite realization: H_c = G1 X + G2 sigma_Z P over time t."""

    g1: float
    g2: float
    t: float
    n_queries: int

    def __post_init__(self):
        if self.t <= 0:
            raise ContractViolationError("evolution time t must be positive")

    def thetas(self) -> tuple:
        """theta_j = t G_j / (2 N), the stated parameter mapping."""
        return (self.t * self.g1 / (2 * self.n_queries),
                self.t * self.g2 / (2 * self.n_queries))


def band_diagonals(op: Operator, width: int) -> dict:
    """{k: read-only copy of diagonal k} for |k| <= width (those inside the
    matrix), real when its imaginary part is all zero, as on X and on P^m at
    even m; a nonzero entry outside that band is a ContractViolationError."""
    width = min(width, op.d - 1)
    diagonals = {k: _real_if_exact(np.diagonal(op.mat, k)) for k in range(-width, width + 1)}
    outside = np.count_nonzero(op.mat) - sum(map(np.count_nonzero, diagonals.values()))
    if outside:
        raise ContractViolationError(
            f"{outside} nonzero entries lie outside the band |k| <= {width}")
    for diag in diagonals.values():
        diag.setflags(write=False)
    return diagonals


def _real_if_exact(diag: np.ndarray) -> np.ndarray:
    """A copy of the complex `diag`, real when every imaginary part is zero,
    so products with it and a real eigenbasis stay real."""
    return diag.copy() if diag.imag.any() else diag.real.copy()


@functools.lru_cache(maxsize=8)
def _generator_bands(m: int, dim: FockDim) -> tuple:
    """(k, X_k, (P^m)_k) for every diagonal k of the band |k| <= m, taken from
    the verified X and dense P^m once per (m, dim): every builder that evolves
    under X, P^m or a combination of the two writes its generator from these,
    O(d m) numbers in place of the two d x d matrices.  X_k is real at every
    m and (P^m)_k at even m (`band_diagonals`); at odd m the odd diagonals
    of P^m are imaginary and stay complex."""
    x = band_diagonals(build_quadrature(dim, "X"), m)
    pm = band_diagonals(operator_power(build_quadrature(dim, "P"), m), m)
    return tuple((k, x[k], pm[k]) for k in pm)


def _banded(dim: FockDim, diagonals) -> Operator:
    """The Hermitian generator with the given (k, values) diagonals, written
    into one zeroed d x d buffer and verified as an Operator."""
    mat = np.zeros((dim.d, dim.d), dtype=complex)
    for k, values in diagonals:
        np.fill_diagonal(mat[:, k:] if k >= 0 else mat[-k:], values)
    return Operator(dim, mat, hermitian=True)


@functools.lru_cache(maxsize=16)
def _quadrature_spectrum(which: str, dim: FockDim) -> Spectrum:
    """Spectrum of X (`which` "X") or of P, each written from the cached
    bands and decomposed once per dimension: the two verified bases every
    other spectrum of `generator_spectrum` but the m >= 2 sum is put on.
    The P entry is bit for bit `build_quadrature(dim, "P")`, the P in which
    the factorized phase operators are diagonal."""
    return spectrum(_banded(dim, ((k, x_k if which == "X" else p_k)
                                  for k, x_k, p_k in _generator_bands(1, dim))))


@functools.lru_cache(maxsize=4)
def _banded_spectrum(m: int, dim: FockDim, a: float, b: float) -> Spectrum:
    """Spectrum of a X + b P^m, written from the cached bands of X and P^m,
    the values of the dense sum exactly, and decomposed.  The key is what
    enters the matrix, never N, the probe or the parameter, so every row at
    one coupling shares it."""
    return spectrum(_banded(dim, ((k, a * x_k + b * pm_k)
                                  for k, x_k, pm_k in _generator_bands(m, dim))))


def generator_spectrum(m: int, dim: FockDim, a: float, b: float) -> Spectrum:
    """Spectrum of a X + b P^m, by one rule for every generator of the
    package, taken in this order:

    1. a = 0: P's spectrum reweighted to b w^m, exactly the band b P^m,
       which is the dense product of the truncated P (P^m, each C_n phase
       r P^k of the factorization check, a theta1 = 0 branch);
    2. b = 0: X's spectrum reweighted to a w (X itself);
    3. m = 1: a phase-space rotation of X (`_rotated_x` at z = a + ib): the
       linear branch and the m = 1 factorization left-hand side;
    4. otherwise one eigh of the banded sum, cached by (m, d, a, b)
       (`_banded_spectrum`): the m >= 2 branch and left-hand side X + P^m.

    Only X, P and the m >= 2 sums are decomposed; every other spectrum
    shares the verified basis of X or P.
    """
    if a == 0:
        p = _quadrature_spectrum("P", dim)
        return p.reweighted(b * p.w ** m)
    if b == 0:
        x = _quadrature_spectrum("X", dim)
        return x.reweighted(a * x.w)
    if m == 1:
        x = _quadrature_spectrum("X", dim)
        # the rotation needs X only, but P is decomposed beside it: the
        # benchmark pins two eigh for a cold m = 1 cs_output (ROADMAP item 5)
        _quadrature_spectrum("P", dim)
        return _rotated_x(x, complex(a, b))
    return _banded_spectrum(m, dim, a, b)


def _rotated_x(x: Spectrum, z: complex) -> Spectrum:
    """Spectrum of Re(z) X + Im(z) P, a phase-space rotation of X, from the
    spectrum `x` of X.

    With R = diag(e^{-i n arg z}), R^dag a R = e^{-i arg z} a, so
    Re(z) X + Im(z) P = |z| R^dag X R, exactly on the truncated basis too,
    since R is diagonal in n: `x` reweighted by |z| in the frame R, no eigh
    and no second V^dag V check."""
    rotation = np.exp(-1j * cmath.phase(z) * np.arange(x.dim.d))
    return x.reweighted(abs(z) * x.w).in_frame(rotation)


def _band_product(bands, y: np.ndarray) -> np.ndarray:
    """B @ y for the band matrix B given as (k, diagonal k) pairs, y a vector
    or a block of columns: O(d m) per column, B never formed."""
    d = y.shape[0]
    out = np.zeros(y.shape, dtype=np.result_type(y, *(diag for _, diag in bands)))
    for k, diag in bands:
        diag = diag.reshape(diag.shape + (1,) * (y.ndim - 1))
        if k >= 0:
            out[:d - k] += diag * y[k:]
        else:
            out[-k:] += diag * y[:d + k]
    return out


def _quadrature_bands(m: int, dim: FockDim, which: str) -> list:
    """The bands of the generator that `which` couples: X for theta1, P^m for
    theta2."""
    bands = _generator_bands(m, dim)
    if which == THETA1:
        return [(k, x_k) for k, x_k, _ in bands]
    return [(k, pm_k) for k, _, pm_k in bands]


def _switch_branches(cfg: StrategyConfig, dim: FockDim, which: str | None = None):
    """(U1^N U2^N phi, U2^N U1^N phi) and, for `which`, their derivatives:
    d U1^N = -iN X U1^N and d U2^N = -iN P^m U2^N, so the generator is
    applied where its block acts in each order; None without `which`."""
    n = cfg.n_queries
    u1 = propagator(generator_spectrum(cfg.m, dim, 1.0, 0.0), n * cfg.theta1)
    u2 = propagator(generator_spectrum(cfg.m, dim, 0.0, 1.0), n * cfg.theta2)
    phi = prepare_probe(cfg.probe, dim).vec
    mid0, mid1 = u2 @ phi, u1 @ phi
    branches = (u1 @ mid0, u2 @ mid1)
    if which is None:
        return branches, None
    gen = _quadrature_bands(cfg.m, dim, which)
    if which == THETA1:
        derivatives = (_band_product(gen, branches[0]), u2 @ _band_product(gen, mid1))
    else:
        derivatives = (u1 @ _band_product(gen, mid0), _band_product(gen, branches[1]))
    return branches, tuple(-1j * n * dpsi for dpsi in derivatives)


def switch_output(cfg: StrategyConfig, dim: FockDim | int) -> QState:
    """Generic switch state, the two query blocks applied in both orders.

    (|0> U1^N U2^N |phi> + |1> U2^N U1^N |phi>)/sqrt(2) with
    U1^N = e^{-i N theta1 X} and U2^N = e^{-i N theta2 P^m}.
    """
    dim = as_dim(dim)
    return QState.from_branches(_switch_branches(cfg, dim)[0], dim)


def _phase_spectrum(cfg: StrategyConfig, dim: FockDim, variant: str) -> Spectrum:
    """Spectrum of the real polynomial h(P) with e^{-i theta2 h(P)} the
    terminating phase-operator product of the bch table.

    `bch.phase_derivative_generator` gives the branch generator
    g = span P^m + h(P), whose h is that table's sum times i / theta2 (span
    N for the switch branch, 2N for a coherent-superposition branch); the
    span P^m term is the P^m gate itself, so h is g without its top power.
    It is put on the cached, verified eigenbasis of P by
    `Spectrum.reweighted`, which checks h and not that basis again.
    """
    p = generator_spectrum(1, dim, 0.0, 1.0)
    h = np.zeros_like(p.w)
    for c in reversed(bch.phase_derivative_generator(
            cfg.m, cfg.theta1, cfg.n_queries, variant)[:-1]):  # Horner
        h = h * p.w + c
    return p.reweighted(h)


def switch_output_factorized(cfg: StrategyConfig, dim: FockDim | int) -> QState:
    """Closed-form switch state: both branches share e^{-iN theta1 X} e^{-iN theta2 P^m}
    and the reordered branch carries the terminating phase-operator product
    e^{sum_n (-Ni)^n theta1^{n-1} theta2 * n C_n} built from the bch table."""
    dim = as_dim(dim)
    n = cfg.n_queries
    phi = prepare_probe(cfg.probe, dim).vec

    x_factor = propagator(generator_spectrum(cfg.m, dim, 1.0, 0.0), n * cfg.theta1)
    pm_factor = propagator(generator_spectrum(cfg.m, dim, 0.0, 1.0), n * cfg.theta2)
    phase_op = propagator(_phase_spectrum(cfg, dim, "switch_branch"), cfg.theta2)

    b0, b1 = (x_factor @ (pm_factor @ np.column_stack([phi, phase_op @ phi]))).T
    return QState.from_branches([b0, b1], dim)


def _exp_derivative(spec: Spectrum, gen, tau: float, phi: np.ndarray) -> np.ndarray:
    """d/ds e^{-i tau (H + s B)} phi at s = 0, H = v w v^dag the spectrum and
    B the Hermitian band matrix `gen`; phi a vector or a block of columns,
    all differentiated in one pass.

    Daleckii-Krein: the derivative is v[(Gamma o M)(v^dag phi)] with
    M = v^dag B v and Gamma_jk = -i tau e^{-i tau (w_j + w_k)/2}
    sinc(tau (w_j - w_k)/2), which stays finite and exact at degenerate
    eigenvalues.  M is formed in blocks of ROW_BLOCK rows,
    M_J = (B v_J)^dag v, so no d x d matrix besides v is held, and each
    block serves every column of phi; v^dag phi is `_adjoint_product`'s,
    with no conjugate copy of v.  In a frame F, H = F^dag H_0 F and
    e^{-i tau (H + s B)} = F^dag e^{-i tau (H_0 + s F B F^dag)} F: the band
    F B F^dag is B with diagonal k times f_j conj(f_{j+k}), O(d m), and phi
    enters as F phi and leaves through F^dag.
    """
    v, w, frame = spec.v, spec.w, spec.frame
    half = np.exp(-0.5j * tau * w)[:, None]
    columns = phi.reshape(w.size, -1)
    if frame is not None:
        gen = _framed_bands(gen, frame)
        columns = frame[:, None] * columns
    weighted = half * _adjoint_product(v, columns)
    y = np.empty(columns.shape, dtype=complex)
    for lo in range(0, w.size, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        bv = _band_product(gen, v[:, rows])
        m_t = v.T @ bv if not np.iscomplexobj(bv) else _product(v.T, bv.conj())  # M_J^T
        gap = (w[:, None] - w[None, rows]) / (2 * math.pi)
        y[rows] = -1j * tau * half[rows] * ((np.sinc(tau * gap) * m_t).T @ weighted)
    out = _product(v, y)
    if frame is not None:
        out = frame.conj()[:, None] * out
    return out.reshape(phi.shape)


def _framed_bands(bands, frame: np.ndarray) -> list:
    """The (k, diagonal k) bands of F B F^dag, F = diag(frame): entry (j, j+k)
    of diagonal k times frame_j conj(frame_{j+k})."""
    d = frame.size
    return [(k, diag * frame[:d - k] * frame[k:].conj()) if k >= 0
            else (k, diag * frame[-k:] * frame[:d + k].conj()) for k, diag in bands]


def _mirror(y: np.ndarray) -> np.ndarray:
    """Pi conj(y) for a vector or a block of columns, Pi = diag((-1)^n) the
    parity: sign flips only, so exact, and its own inverse."""
    out = y.conj()
    out[1::2] *= -1
    return out


def _cs_branches(cfg: StrategyConfig, dim: FockDim, which: str | None = None):
    """((U+^{2N} phi, U-^{2N} phi), derivatives) on the one spectrum of the
    + generator theta1 X + theta2 P^m (`generator_spectrum`); the
    derivatives in `which`, None without `which`.

    On the truncated basis H- = -Pi conj(H+) Pi exactly (`_mirror`): X is
    real and odd, and P^m has parity (-1)^m and entries all real (m even)
    or all imaginary (m odd).  So U- = Pi conj(U+) Pi, and the - branch is
    the mirror of U+ applied to the mirrored probe.  That map is real-linear
    and takes the derivative X or P^m of H+ to X or -P^m, that of H-, so
    the - derivative is likewise the mirror of the + one on the mirrored
    probe: one `_exp_derivative` pass on the block [phi, mirror(phi)].
    """
    phi = prepare_probe(cfg.probe, dim).vec
    tau = 2 * cfg.n_queries
    spec = generator_spectrum(cfg.m, dim, cfg.theta1, cfg.theta2)
    inputs = (phi, _mirror(phi))
    plus, minus = (propagator(spec, tau) @ y for y in inputs)  # one propagator per branch
    states = (plus, _mirror(minus))
    if which is None:
        return states, None
    block = _exp_derivative(spec, _quadrature_bands(cfg.m, dim, which), tau,
                            np.column_stack(inputs))
    return states, (block[:, 0], _mirror(block[:, 1]))


def cs_output(cfg: StrategyConfig, dim: FockDim | int) -> QState:
    """Coherent-superposition state, each branch one exact Hermitian exponential.

    (|0> U+^{2N} |phi> + |1> U-^{2N} |phi>)/sqrt(2) with
    U+- = e^{-i(theta1 X +- theta2 P^m)}, so the branch unitary is
    e^{-i 2N (theta1 X +- theta2 P^m)}: two propagators per call, both on
    the one `generator_spectrum` of the + generator (one eigh at a new
    m >= 2 coupling, none beyond the cached X and P spectra at m = 1), the
    - branch through the parity-and-conjugation symmetry of `_cs_branches`.
    """
    dim = as_dim(dim)
    return QState.from_branches(_cs_branches(cfg, dim)[0], dim)


def cs_output_factorized(cfg: StrategyConfig, dim: FockDim | int) -> QState:
    """Closed-form coherent-superposition state from the terminating expansion:

    e^{-i2N theta1 X} e^{-+i2N theta2 P^m}
        e^{+- sum_n (-2Ni)^n theta1^{n-1} theta2 C_n} |phi> per branch.
    """
    dim = as_dim(dim)
    n = cfg.n_queries
    phi = prepare_probe(cfg.probe, dim).vec

    x_factor = propagator(generator_spectrum(cfg.m, dim, 1.0, 0.0), 2 * n * cfg.theta1)
    pm = generator_spectrum(cfg.m, dim, 0.0, 1.0)
    phase = _phase_spectrum(cfg, dim, "cs_branch")
    branches = []
    for sign in (+1.0, -1.0):
        pm_factor = propagator(pm, sign * 2 * n * cfg.theta2)
        phase_op = propagator(phase, sign * cfg.theta2)
        branches.append(x_factor @ (pm_factor @ (phase_op @ phi)))
    return QState.from_branches(branches, dim)


def composite_output(params: CompositeParams, probe: ProbeSpec,
                     dim: FockDim | int) -> QState:
    """Normalized output of the composite model, stated for the linear case only.

    (e^{-i(G1 X + G2 P)T}|0>|phi> + e^{-i(G1 X - G2 P)T}|1>|phi>)/sqrt(2).
    Delegates to the coherent-superposition builder under theta_j = T G_j/2N,
    which reproduces the same matrix exponentials exactly.
    """
    theta1, theta2 = params.thetas()
    cfg = StrategyConfig(theta1=theta1, theta2=theta2, n_queries=params.n_queries,
                         m=1, strategy=COHERENT_SUPERPOSITION, probe=probe)
    return cs_output(cfg, dim)


def build_output(cfg: StrategyConfig, dim: FockDim | int) -> QState:
    """Dispatch on the coding cfg.strategy runs (see `encoding`)."""
    if encoding(cfg.strategy) == SWITCH:
        return switch_output(cfg, dim)
    return cs_output(cfg, dim)


def output_derivative(cfg: StrategyConfig, dim: FockDim | int,
                      which: str) -> tuple[QState, np.ndarray]:
    """(build_output(cfg, dim), the exact derivative of its amplitudes in
    `which`), both from the one set of spectra: no step and no second build.

    The state is bitwise `build_output`'s.
    """
    if which not in (THETA1, THETA2):
        raise ContractViolationError(f"unknown parameter {which!r}")
    dim = as_dim(dim)
    if encoding(cfg.strategy) == SWITCH:
        branches, derivatives = _switch_branches(cfg, dim, which)
    else:
        branches, derivatives = _cs_branches(cfg, dim, which)
    return (QState.from_branches(branches, dim),
            np.concatenate(derivatives) / math.sqrt(len(derivatives)))


def momentum_shift(cfg: StrategyConfig) -> float:
    """How far each branch moves the probe's momentum distribution.

    Under theta1 X + theta2 P^m, P(s) = P - theta1 s exactly, so after the
    branch's total X time (N for a switch branch, 2N for a
    coherent-superposition branch) the distribution is the probe's, shifted
    down by theta1 times that time.
    """
    span = cfg.n_queries if encoding(cfg.strategy) == SWITCH else 2 * cfg.n_queries
    return cfg.theta1 * span


def node_phases(cfg: StrategyConfig, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_0, Phi_1) on momentum nodes q: branch b of the strategy state is
    the probe's node amplitudes times e^{-i theta2 Phi_b(q)}, Phi_b free of
    theta2, carried to the grid p_j = q_j - `momentum_shift` (with X = i d/dp,
    e^{-i a X} moves psi(p) to psi(p + a), and e^{-i b P^m} is the phase
    b p^m).  Both branches end on the same grid, so the state's moments are
    the quadrature of the probe's; theta1 moves the grid.

    A coherent-superposition branch e^{-i2N(theta1 X +- theta2 P^m)} has
    Phi = +-int_0^{2N} (q - theta1 s)^m ds
        = +-[q^{m+1} - (q - theta1 2N)^{m+1}] / (theta1 (m+1)),
    summed term by term (binomial theorem) so theta1 = 0 needs no limit.  A
    switch branch applies its two query blocks in order: U1^N moves the grid
    down by N theta1, U2^N adds N p^m at the current grid, so
    Phi_0 = N q^m (U1^N U2^N) and Phi_1 = N (q - N theta1)^m (U2^N U1^N).
    """
    m, n = cfg.m, cfg.n_queries
    if encoding(cfg.strategy) == SWITCH:
        return n * q ** m, n * (q - n * cfg.theta1) ** m
    a, tau = cfg.theta1, 2 * n
    phase = sum(math.comb(m, k) * (-a) ** k * tau ** (k + 1) / (k + 1) * q ** (m - k)
                for k in range(m + 1))
    return phase, -phase

