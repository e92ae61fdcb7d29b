"""Truncated Fock-basis representation of one continuous-variable mode.

Quadrature operators, probe preparation and Hermitian-generator evolution on
a finite number basis of dimension d, plus a basis-free layer on
Gauss-Hermite nodes with one weight rule: the probe's node amplitudes
sqrt(W_j) psi(q_j), tabled with their exact derivative in momentum
(`probe_amplitudes`) and read as densities |a_j|^2 for the moments of
either quadrature (`probe_on_nodes`).  Every value is immutable after
construction and every operation is a pure function, so concurrent use
needs no coordination.

Truncation caveats: on the truncated basis [X, P] = i(I - d |d-1><d-1|), and
the top ~m rows/columns of P^m are corrupted, so callers must keep the
occupied subspace away from the boundary.  `converge_dimension` doubles d
until the requested scalar settles and reports non-convergence explicitly;
`richardson` does the same for the step of a finite difference.  The
Fock-basis QFI, the optomech readout and the optomech F_g take none (their
derivatives are exact); only the generic `qfi.qfi_fd`, the difference leg
of claims 2 and 9, does.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ContractViolationError,
    EnvelopeError,
    InvalidDimensionError,
    TruncationLeakageError,
)

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-10
LEAKAGE_TOL = 1e-10


@dataclass(frozen=True)
class FockDim:
    """Fock truncation dimension, d levels |0> .. |d-1>."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise InvalidDimensionError(f"Fock dimension must be a positive integer, got {self.d!r}")


def as_dim(dim: FockDim | int) -> FockDim:
    return dim if isinstance(dim, FockDim) else FockDim(int(dim))


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """Dense complex operator on the truncated mode, with verified flags.

    `hermitian` / `unitary` are claims checked at construction time; code
    downstream relies on the flags, never on re-inspection.
    """

    dim: FockDim
    mat: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dim", as_dim(self.dim))
        mat = np.asarray(self.mat, dtype=complex)
        d = self.dim.d
        if mat.shape != (d, d):
            raise ContractViolationError(f"operator shape {mat.shape} does not match dim {d}")
        # `not defect <= TOL` rather than `defect > TOL`: a NaN defect fails
        if self.hermitian and not np.abs(mat - mat.conj().T).max() <= HERMITICITY_TOL:
            raise ContractViolationError("hermitian flag claimed but max |A - A^dag| exceeds 1e-12")
        if self.unitary:
            defect = np.abs(mat.conj().T @ mat - np.eye(d)).max()
            if not defect <= UNITARITY_TOL:
                raise ContractViolationError(f"unitary flag claimed but |A^dag A - I| = {defect:.3e}")
        object.__setattr__(self, "mat", _frozen(mat))

    @property
    def d(self) -> int:
        return self.dim.d


@dataclass(frozen=True)
class CvState:
    """Normalized pure state of one mode, amplitudes in the number basis."""

    dim: FockDim
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=complex).reshape(-1)
        if vec.shape != (self.dim.d,):
            raise ContractViolationError(f"state length {vec.shape} does not match dim {self.dim.d}")
        nrm = np.linalg.norm(vec)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ContractViolationError(f"state norm {nrm!r} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "vec", _frozen(vec))


@dataclass(frozen=True)
class ProbeSpec:
    """Initial probe |phi> for the coded channels.

    Kinds: vacuum, fock(n), coherent(alpha), squeezed_vacuum(r).  The large-N
    comparisons downstream assume N >> theta1 <P>, which the default vacuum
    meets trivially (<P> = 0).
    """

    kind: str = "vacuum"
    n: int = 0
    alpha: complex = 0j
    r: float = 0.0

    KINDS = ("vacuum", "fock", "coherent", "squeezed_vacuum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ContractViolationError(f"unknown probe kind {self.kind!r}")

    @classmethod
    def vacuum(cls) -> "ProbeSpec":
        return cls("vacuum")

    @classmethod
    def fock(cls, n: int) -> "ProbeSpec":
        return cls("fock", n=int(n))

    @classmethod
    def coherent(cls, alpha: complex) -> "ProbeSpec":
        return cls("coherent", alpha=complex(alpha))

    @classmethod
    def squeezed_vacuum(cls, r: float) -> "ProbeSpec":
        return cls("squeezed_vacuum", r=float(r))


def lowering(dim: FockDim | int) -> np.ndarray:
    """Annihilation operator a with a|n> = sqrt(n)|n-1>."""
    d = as_dim(dim).d
    return np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)


def build_quadrature(dim: FockDim | int, which: str) -> Operator:
    """X = (a + a^dag)/sqrt(2) or P = i(a^dag - a)/sqrt(2), flagged hermitian."""
    dim = as_dim(dim)
    if dim.d < 2:
        raise InvalidDimensionError("quadrature operators need d >= 2")
    a = lowering(dim)
    if which == "X":
        mat = (a + a.conj().T) / math.sqrt(2)
    elif which == "P":
        mat = 1j * (a.conj().T - a) / math.sqrt(2)
    else:
        raise ContractViolationError(f"quadrature must be 'X' or 'P', got {which!r}")
    return Operator(dim, mat, hermitian=True)


def operator_power(op: Operator, m: int) -> Operator:
    """Repeated matrix product op^m; hermitian flag propagates from op."""
    if m < 1:
        raise ContractViolationError(f"operator power needs m >= 1, got {m!r}")
    mat = op.mat
    for _ in range(m - 1):
        mat = mat @ op.mat
    return Operator(op.dim, mat, hermitian=op.hermitian)


def _coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    amps = np.empty(d, dtype=complex)
    amps[0] = cmath.exp(-abs(alpha) ** 2 / 2)
    for k in range(1, d):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    return amps


def _squeezed_amplitudes(r: float, d: int) -> np.ndarray:
    # S(r)|0> = (1/sqrt(cosh r)) sum_n (-tanh r)^n sqrt((2n)!)/(2^n n!) |2n>
    amps = np.zeros(d, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    t = -math.tanh(r)
    for n in range(1, (d - 1) // 2 + 1):
        # ratio c_{2n}/c_{2(n-1)} = t * sqrt((2n-1)/(2n))
        amps[2 * n] = amps[2 * (n - 1)] * t * math.sqrt((2 * n - 1) / (2 * n))
    return amps


def prepare_probe(spec: ProbeSpec, dim: FockDim | int) -> CvState:
    """Build the probe state at dimension d, renormalizing truncated tails.

    Raises TruncationLeakageError when the discarded tail mass exceeds 1e-10,
    so a too-small basis is an error rather than a silently wrong state.
    """
    dim = as_dim(dim)
    d = dim.d
    if spec.kind == "vacuum":
        vec = np.zeros(d, dtype=complex)
        vec[0] = 1.0
        return CvState(dim, vec)
    if spec.kind == "fock":
        if not 0 <= spec.n < d:
            raise TruncationLeakageError(f"fock level n={spec.n} outside basis of dimension {d}")
        vec = np.zeros(d, dtype=complex)
        vec[spec.n] = 1.0
        return CvState(dim, vec)
    if spec.kind == "coherent":
        amps = _coherent_amplitudes(spec.alpha, d)
        leakage = 1.0 - float((np.abs(amps) ** 2).sum())
        if leakage > LEAKAGE_TOL:
            raise TruncationLeakageError(
                f"coherent alpha={spec.alpha} leaks {leakage:.3e} past d={d} (limit 1e-10)")
        return CvState(dim, amps / np.linalg.norm(amps))
    if spec.kind == "squeezed_vacuum":
        amps = _squeezed_amplitudes(spec.r, d)
        leakage = 1.0 - float((np.abs(amps) ** 2).sum())
        if leakage > LEAKAGE_TOL:
            raise TruncationLeakageError(
                f"squeezed r={spec.r} leaks {leakage:.3e} past d={d} (limit 1e-10)")
        return CvState(dim, amps / np.linalg.norm(amps))
    raise ContractViolationError(f"unhandled probe kind {spec.kind!r}")


NODE_CAP = 512  # largest Gauss-Hermite rule probe_on_nodes builds
MOMENTUM_NODES = 64  # base nodes (+ n for Fock(n)) of the optomech mirror's momentum grid


@functools.lru_cache(maxsize=64)
def _hermite_nodes(g: int) -> np.ndarray:
    """The G Gauss-Hermite nodes (the zeros of H_G), read-only, one table per G."""
    from numpy.polynomial.hermite import hermgauss  # loaded on first use only

    with np.errstate(all="ignore"):  # its weights overflow past G ~ 350; unused
        t, _ = hermgauss(g)
    t.setflags(write=False)
    return t


def _scaled_hermite(x: np.ndarray, n: int) -> tuple:
    """(h_{n-1}, h_n) / c and log c at x, h_k normalized against e^{-x^2} up
    to h_0 = 1, on values rescaled per point so large n cannot overflow.
    At n = 0 they are the scalars 0 and 1, which broadcast against x."""
    prev, cur, log_scale = 0.0, 1.0, 0.0
    for k in range(n):
        prev, cur = _hermite_step(k, x, prev, cur)
        scale = np.maximum(np.abs(prev), np.abs(cur))
        prev, cur = prev / scale, cur / scale
        log_scale = log_scale + np.log(scale)
    return prev, cur, log_scale


def _hermite_step(k: int, x: np.ndarray, prev: np.ndarray, cur: np.ndarray) -> tuple:
    return cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev


def _hermite_functions(x: np.ndarray, n: int) -> tuple:
    """(f_{n-1}, f_n) at x: the unit-norm Hermite functions
    f_k = pi^{-1/4} h_k e^{-x^2/2} (f_{-1} = 0), the Gaussian in the log
    scale of h_n."""
    below, at, log_scale = _scaled_hermite(x, n)
    gauss = np.exp(log_scale - x ** 2 / 2 - math.log(math.pi) / 4)
    return below * gauss, at * gauss


def _rule(spec: ProbeSpec, quadrature: str, base: int) -> tuple:
    """(t, n, c, s): G = base + n nodes t (n for Fock(n); G > NODE_CAP is an
    EnvelopeError) and the map Q = c + s t of the probe's quadrature."""
    n = spec.n if spec.kind == "fock" else 0
    if n < 0:
        raise ContractViolationError(f"fock level must be >= 0, got {n}")
    if base + n > NODE_CAP:
        raise EnvelopeError(f"{spec.kind} probe needs {base + n} Gauss-Hermite "
                            f"nodes, beyond {NODE_CAP}")
    t, centre, width = _hermite_nodes(base + n), 0.0, 1.0
    if spec.kind == "coherent":
        centre = math.sqrt(2.0) * (spec.alpha.real if quadrature == "X" else spec.alpha.imag)
    if spec.kind == "squeezed_vacuum":
        width = math.exp(-spec.r if quadrature == "X" else spec.r)
    return t, n, centre, width


def probe_on_nodes(spec: ProbeSpec, quadrature: str, degree: int) -> tuple:
    """Nodes q_j and weights w_j with sum_j w_j f(q_j) = <probe| f(Q) |probe>
    exactly for every polynomial f of degree <= `degree`, Q = X or P.

    The density of Q on each probe is a Gaussian or, for Fock(n), e^{-t^2}
    times h_n(t)^2 (degree 2n), so the Gauss-Hermite rule of
    G = degree // 2 + 1 (+ n) nodes integrates it exactly:

      vacuum           q = t
      coherent(alpha)  q = t + sqrt(2) Re alpha (X), + sqrt(2) Im alpha (P)
      squeezed(r)      q = e^{-r} t (X), e^{+r} t (P)
      fock(n)          q = t

    with w_j = |a_j|^2 = (sqrt(W_j) f_n(t_j))^2, the densities of the node
    amplitudes that `probe_amplitudes` tables (their phases have modulus 1
    and are not formed here).  These are the moments a large enough
    truncated Fock basis gives: the eigenvalues of the d x d truncated X are
    the d-point Gauss-Hermite nodes, so that basis is the Gauss-Hermite
    grid.  No basis dimension enters; a rule of more than NODE_CAP nodes
    raises EnvelopeError.  The arrays are read-only and shared: one table
    per (probe, quadrature, rule), whatever the degree within that rule.
    """
    if quadrature not in ("X", "P"):
        raise ContractViolationError(f"quadrature must be 'X' or 'P', got {quadrature!r}")
    if not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ContractViolationError(f"polynomial degree must be an integer >= 0, got {degree!r}")
    return _node_table(spec, quadrature, int(degree) // 2 + 1)


@functools.lru_cache(maxsize=64)
def _node_table(spec: ProbeSpec, quadrature: str, base: int) -> tuple:
    """(q, w) of `probe_on_nodes` on the rule of `base` (+ n) nodes, read-only
    and built once per key; an EnvelopeError is raised, never cached."""
    t, n, centre, width = _rule(spec, quadrature, base)
    amps = _root_weights(t.size) * _hermite_functions(t, n)[1]
    q, w = centre + width * t, amps * amps
    q.setflags(write=False)
    w.setflags(write=False)
    return q, w


@functools.lru_cache(maxsize=64)
def _root_weights(g: int) -> np.ndarray:
    """sqrt(w_j e^{t_j^2}) = 1 / (sqrt(G) |f_{G-1}(t_j)|), the G-node rule
    for plain integration over t (Christoffel), read-only."""
    root = 1.0 / (math.sqrt(g) * np.abs(_hermite_functions(_hermite_nodes(g), g - 1)[1]))
    root.setflags(write=False)
    return root


def probe_amplitudes(spec: ProbeSpec, nodes: int, shift: float) -> tuple:
    """The probe's node table: (p, a, a'), the grid p_j = c + s t_j of
    `probe_on_nodes`' P rule (`nodes` + n nodes), a_j = sqrt(W_j) psi(p_j +
    shift) and a'_j = sqrt(W_j) psi'(p_j + shift), W_j the weights of plain
    integration over p, so vdot(a, b) is the quadrature of <a|b>.

    psi is the probe in the P eigenbasis, with X = i d/dp: vacuum f_0(p);
    coherent(alpha) the vacuum centred at c times e^{-i x0 (p - c/2)},
    x0 = sqrt(2) Re alpha; squeezed(r) the vacuum of width e^r; fock(n)
    (-i)^n f_n(p), f_n the unit-norm Hermite function.  W_j's e^{t^2} and
    psi's Gaussian meet in one Hermite function, so nothing overflows.  psi'
    is exact, by the Hermite ladder f_n' = sqrt(2n) f_{n-1} - x f_n over the
    width, plus -i x0 psi for a coherent probe.  At shift 0 the grid norm
    is 1; a shift the grid does not cover lowers it."""
    t, n, centre, width = _rule(spec, "P", nodes)
    p = centre + width * t
    x = t + shift / width
    below, at = _hermite_functions(x, n)
    root = (-1j) ** (n % 4) * _root_weights(t.size)
    amps = root * at
    slope = root * (math.sqrt(2 * n) * below - x * at) / width
    if spec.kind == "coherent":
        x0 = math.sqrt(2.0) * spec.alpha.real
        wave = np.exp(-1j * x0 * (p + shift - centre / 2))
        amps = amps * wave
        slope = slope * wave - 1j * x0 * amps
    return p, amps, slope


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition H = v diag(w) v^dag of a verified Hermitian
    generator, or H = F^dag (v diag(w) v^dag) F in the phase frame
    F = diag(`frame`), |frame_j| = 1.

    Construction checks that `w` is real and finite and that
    ||v^dag v - I||_F <= UNITARITY_TOL / 3, which bounds max|W^dag W - I| by
    UNITARITY_TOL for W = v D v^dag, D = diag(e^{-i tau w}), at every tau:
    with E = v^dag v - I, W^dag W - I = (v v^dag - I) + v D* E D v^dag, so
    ||W^dag W - I||_2 <= eta = ||E||_2 (2 + ||E||_2) <= UNITARITY_TOL, as
    ||E||_2 <= ||E||_F.  That one d^3 product is the unitarity check of every
    propagator built from this spectrum and from every spectrum
    `reweighted` or put `in_frame` from it: it is checked once per
    eigenbasis.  A frame is checked in O(d), delta = max_j ||f_j|^2 - 1| <=
    FRAME_TOL = UNITARITY_TOL / 9.  For U = F^dag W F, U^dag U - I =
    F^dag (W^dag W - I) F + (F^dag F - I) + F^dag W^dag (F F^dag - I) W F,
    so ||U^dag U - I||_2 <= (1 + delta) eta + delta (1 + (1 + delta)(1 + eta))
    ~ (2/3 + 2/9) UNITARITY_TOL, as the Gram check gives
    eta <= 2 UNITARITY_TOL / 3 + UNITARITY_TOL^2 / 9.  `w`, `v` and the
    frame are made read-only, so one Spectrum can be cached and handed to
    every caller; `v` is real when H (before the frame) is real symmetric.
    """

    dim: FockDim
    w: np.ndarray
    v: np.ndarray
    frame: np.ndarray | None = None

    def __post_init__(self):
        d = self.dim.d
        v = np.asarray(self.v)
        if v.shape != (d, d):
            raise ContractViolationError(f"eigenvector shape {v.shape} does not match dim {d}")
        w = _eigenvalues(self.w, d)
        gram = v.conj().T @ v
        gram.flat[::d + 1] -= 1.0
        defect = np.linalg.norm(gram)
        if not defect <= UNITARITY_TOL / 3:
            raise ContractViolationError(
                f"eigenvectors are not orthonormal: ||V^dag V - I||_F = {defect:.3e}")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        if self.frame is not None:
            object.__setattr__(self, "frame", _frame_phases(self.frame, d))

    def reweighted(self, w) -> "Spectrum":
        """The Hermitian v diag(w) v^dag on this verified eigenbasis, in this
        spectrum's frame: `w` is checked (shape, real, finite) and the
        read-only `v` is shared, with no second V^dag V check, since that
        check does not depend on w.  The one way to put new eigenvalues on a
        basis, for every function of a decomposed generator."""
        w = _eigenvalues(w, self.dim.d)
        w.setflags(write=False)
        return self._sharing_v(w, self.frame)

    def in_frame(self, phases) -> "Spectrum":
        """F^dag H F for F = diag(`phases`), on this verified eigenbasis: the
        phases are checked (shape, |phases_j|^2 within FRAME_TOL of 1) in
        O(d), and `v` and `w` are shared, with no eigenvector copy and no
        second V^dag V check.  The one way to rotate a decomposed generator
        by a diagonal unitary; frames compose, F^dag (G^dag H G) F being H
        in the frame G F."""
        frame = _frame_phases(phases, self.dim.d)
        if self.frame is not None:
            frame = _frame_phases(self.frame * frame, self.dim.d)
        return self._sharing_v(self.w, frame)

    def _sharing_v(self, w: np.ndarray, frame) -> "Spectrum":
        out = object.__new__(Spectrum)
        object.__setattr__(out, "dim", self.dim)
        object.__setattr__(out, "w", w)
        object.__setattr__(out, "v", self.v)
        object.__setattr__(out, "frame", frame)
        return out


FRAME_TOL = UNITARITY_TOL / 9


def _frame_phases(phases, d: int) -> np.ndarray:
    """`phases` as a read-only complex array of d entries of modulus 1
    (||f_j|^2 - 1| <= FRAME_TOL)."""
    phases = np.array(phases, dtype=complex)
    if phases.shape != (d,):
        raise ContractViolationError(f"frame shape {phases.shape} does not match dim {d}")
    defect = np.abs(phases.real ** 2 + phases.imag ** 2 - 1.0).max()
    if not defect <= FRAME_TOL:
        raise ContractViolationError(f"frame phases are not unimodular: max ||f|^2 - 1| = "
                                     f"{defect:.3e}")
    phases.setflags(write=False)
    return phases


def _eigenvalues(w, d: int) -> np.ndarray:
    """`w` as an array, checked to hold d real, finite eigenvalues."""
    w = np.asarray(w)
    if w.shape != (d,):
        raise ContractViolationError(f"eigenvalue shape {w.shape} does not match dim {d}")
    if np.iscomplexobj(w) or not np.isfinite(w).all():
        raise ContractViolationError("spectrum eigenvalues must be real and finite")
    return w


def spectrum(generator: Operator) -> Spectrum:
    """The one eigendecomposition in the package; the real solver for real H.

    A generator whose matrix has an all-zero imaginary part (X, even powers
    of P, sums of those) is real symmetric, and the real solver decomposes
    it in a fraction of the time.
    """
    if not generator.hermitian:
        raise ContractViolationError("evolution generator must carry a verified hermitian flag")
    mat = generator.mat
    if not mat.imag.any():
        mat = mat.real
    w, v = np.linalg.eigh(mat)
    return Spectrum(generator.dim, w, v)


def _product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for complex x, with a real `a` kept real: the real and imaginary
    parts of x go through one real product instead of a complex copy of a."""
    if np.iscomplexobj(a):
        return a @ x
    x = np.ascontiguousarray(x)
    out = a @ x.reshape(x.shape[0], -1).view(np.float64)
    return out.view(complex).reshape(x.shape)


def _adjoint_product(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v^dag @ x for complex x, formed as conj(v^T conj(x)) when v is complex:
    v^T is a view, so no d x d conjugate copy of v is made, and conjugation
    is exact, so the product is bitwise that of v.conj().T @ x."""
    if np.iscomplexobj(v):
        return (v.T @ x.conj()).conj()
    return _product(v.T, x)


@dataclass(frozen=True)
class SpectralUnitary:
    """e^{-i tau H}, kept factored as the verified spectrum of H and the
    phases e^{-i tau w}.

    `u @ x` applies v (phases * (v^dag x)) to a vector or to a block of
    columns, O(d^2) per column, with the unitarity `Spectrum` verified; in a
    frame F it applies F first and F^dag last, e^{-i tau F^dag H F} =
    F^dag e^{-i tau H} F, O(d) more per column.  v^dag is formed inside the
    product (`_adjoint_product`) from a view of v, so neither the propagator
    nor a cached spectrum holds it.  `.mat` forms the dense matrix through
    that same product applied to the identity and checks it again as an
    `Operator`.
    """

    spectrum: Spectrum
    tau: float
    phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        phases = np.exp(-1j * self.tau * self.spectrum.w)
        phases.setflags(write=False)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def identity(cls, dim: FockDim) -> "SpectralUnitary":
        """The identity, exact to the last bit, without an eigendecomposition."""
        return cls(Spectrum(dim, np.zeros(dim.d), np.eye(dim.d)), 0.0)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        column = (slice(None),) + (None,) * (x.ndim - 1)
        v, frame = self.spectrum.v, self.spectrum.frame
        if frame is not None:
            x = frame[column] * x
        y = _product(v, self.phases[column] * _adjoint_product(v, x))
        return y if frame is None else frame.conj()[column] * y

    @property
    def mat(self) -> np.ndarray:
        dim = self.spectrum.dim
        return Operator(dim, self @ np.eye(dim.d), unitary=True).mat


def propagator(spec: Spectrum, tau: float) -> SpectralUnitary:
    """Unitary e^{-i tau H} on the verified spectrum of Hermitian H, the
    exact identity at tau = 0.

    Eigendecomposition rather than a series: every generator in scope is
    Hermitian, and V f(w) V^dag is unitary by construction and independent of
    eigenvector phase conventions, keeping builder outputs smooth in tau.
    The spectrum comes from `spectrum`, or from `Spectrum.reweighted` or
    `Spectrum.in_frame` on one, and serves every tau.
    """
    if tau == 0:
        return SpectralUnitary.identity(spec.dim)
    return SpectralUnitary(spec, tau)


DIM_START = 64
DIM_CAP = 1024
DIM_REL_TOL = 1e-6


@dataclass(frozen=True)
class DimensionScan:
    """Outcome of the dimension-doubling loop for one scalar target."""

    value: float
    dim_used: int
    converged: bool
    history: tuple = field(default_factory=tuple)  # ((d, value), ...)


def converge_dimension(evaluate: Callable[[int], float],
                       start: int = DIM_START) -> DimensionScan:
    """Double d from `start` until `evaluate(d)` moves by < 1e-6 relative, cap at DIM_CAP.

    Non-convergence is a first-class status, never a silently returned last
    value.
    """
    d = start
    prev = evaluate(d)
    history = [(d, prev)]
    while d < DIM_CAP:
        d *= 2
        cur = evaluate(d)
        history.append((d, cur))
        if abs(cur - prev) <= DIM_REL_TOL * max(abs(cur), abs(prev), 1e-300):
            return DimensionScan(cur, d, True, tuple(history))
        prev = cur
    return DimensionScan(prev, d, False, tuple(history))


def holding_dimension(spec: ProbeSpec) -> int:
    """The smallest d = DIM_START * 2^k <= DIM_CAP at which `prepare_probe`
    holds the probe; the TruncationLeakageError of DIM_CAP when none does."""
    d = DIM_START
    while True:
        try:
            prepare_probe(spec, d)
            return d
        except TruncationLeakageError:
            if 2 * d > DIM_CAP:
                raise
        d *= 2


FD_REL_TOL = 1e-4
FD_MAX_REDUCTIONS = 3


def richardson(estimate: Callable[[float], float], h: float):
    """Richardson extrapolation of a step-h estimate on the ladder h / 2^k.

    Returns `(value, converged, history)`.  Each step compares f(h') with
    f(h'/2) at rung h' = h / 2^k and extrapolates (4 f(h'/2) - f(h'))/3;
    converged means the pair agrees to relative 1e-4, otherwise h' is halved,
    down to the rung h / 2^FD_MAX_REDUCTIONS, and the last extrapolation is
    returned unconverged, so no estimate takes a step below
    h / 2^(FD_MAX_REDUCTIONS + 1).  `history` holds one (h', f_h', f_h'/2,
    residual) row per rung tried.
    """
    history = []
    f_h = estimate(h)
    for _ in range(FD_MAX_REDUCTIONS + 1):
        f_h2 = estimate(h / 2)
        resid = abs(f_h - f_h2) / max(abs(f_h), abs(f_h2), 1e-300)
        history.append((h, f_h, f_h2, resid))
        if resid <= FD_REL_TOL:
            break
        h, f_h = h / 2, f_h2
    h, f_h, f_h2, resid = history[-1]
    return (4.0 * f_h2 - f_h) / 3.0, resid <= FD_REL_TOL, tuple(history)
