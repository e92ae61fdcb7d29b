"""Terminating operator-ordering expansion for the pair (X, P^m).

The expansion is exact symbolic algebra over polynomials in the momentum
quadrature P, with complex-rational coefficients: factorial ratios never see
floating point.  The exact algebra stops at the tables, which are built once
per (m, variant) and cached; the couplings and the query count then enter in
floating point, when a table is turned into a derivative generator
(`phase_derivative_generator`) or substituted into a matrix.  The key facts
used throughout:

  ad_X(P^k) = [X, P^k] = i k P^{k-1}        (canonical pair, [X, P] = i)

so repeated commutators with X only lower the degree, the reordering series
terminates at order m+1, and all coefficient operators are polynomials in P
that commute with each other and with P^m.

Two factorization variants are produced, differing in which factor is pulled
to the left:

  AB:  e^{l(X+P^m)} = e^{lX} e^{lP^m} e^{l^2 C_2} ... e^{l^{m+1} C_{m+1}}
  BA:  e^{l(X+P^m)} = e^{lP^m} e^{lX} e^{l^2 C'_2} ... e^{l^{m+1} C'_{m+1}}

with the exact relation C'_n = -(n-1) C_n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable

import numpy as np

from .cvspace import (
    FockDim,
    Operator,
    SpectralUnitary,
    _adjoint_product,
    _product,
    as_dim,
    propagator,
)
from .errors import ContractViolationError, EnvelopeError

VARIANTS = ("AB", "BA")  # which factor is pulled to the left: X first, or P^m


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        return cls(Fraction(value), Fraction(0))

    def __add__(self, other) -> "ExactComplex":
        o = ExactComplex.of(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    def __mul__(self, other) -> "ExactComplex":
        o = ExactComplex.of(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __pow__(self, k: int) -> "ExactComplex":
        out = ExactComplex(Fraction(1))
        for _ in range(int(k)):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


I_UNIT = ExactComplex(Fraction(0), Fraction(1))
MINUS_I = ExactComplex(Fraction(0), Fraction(-1))


@dataclass(frozen=True)
class PPoly:
    """Polynomial sum_k c_k P^k with exact coefficients, no zero terms stored."""

    coeffs: tuple  # ((power, ExactComplex), ...) sorted by power

    @classmethod
    def from_terms(cls, terms: Iterable[tuple]) -> "PPoly":
        acc: dict[int, ExactComplex] = {}
        for power, coeff in terms:
            c = ExactComplex.of(coeff)
            if power in acc:
                acc[power] = acc[power] + c
            else:
                acc[power] = c
        return cls(tuple(sorted((p, c) for p, c in acc.items() if not c.is_zero)))

    @classmethod
    def zero(cls) -> "PPoly":
        return cls(())

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "PPoly":
        return cls.from_terms([(power, coeff)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else -1

    def __add__(self, other: "PPoly") -> "PPoly":
        return PPoly.from_terms(list(self.coeffs) + list(other.coeffs))

    def __mul__(self, other: "PPoly") -> "PPoly":
        terms = [(p1 + p2, c1 * c2) for p1, c1 in self.coeffs for p2, c2 in other.coeffs]
        return PPoly.from_terms(terms)

    def scale(self, factor) -> "PPoly":
        f = ExactComplex.of(factor)
        return PPoly.from_terms([(p, c * f) for p, c in self.coeffs])

    def is_real(self) -> bool:
        return all(c.im == 0 for _, c in self.coeffs)

    def to_matrix(self, quad_matrix: np.ndarray) -> np.ndarray:
        """Substitute a quadrature matrix for the symbol (Horner on matrices)."""
        d = quad_matrix.shape[0]
        out = np.zeros((d, d), dtype=complex)
        if self.is_zero:
            return out
        table = dict(self.coeffs)
        for power in range(self.degree, -1, -1):
            out = out @ quad_matrix
            c = table.get(power)
            if c is not None:
                out += c.to_complex() * np.eye(d)
        return out


def commutator_with_x(poly: PPoly) -> PPoly:
    """ad_X acting on a polynomial in P: c_k P^k -> i k c_k P^{k-1}."""
    return PPoly.from_terms(
        [(p - 1, c * I_UNIT * p) for p, c in poly.coeffs if p >= 1])


def nested_commutator_oracle(m: int, n: int) -> PPoly:
    """(-1)^{n-1} (1/n!) [X^{(n-1)}, P^m], built by iterating ad_X symbolically.

    n = 1 returns P^m itself (the zeroth nested commutator is the operator).
    This is the independent check for the closed-form coefficients below.
    """
    if m < 1 or n < 1:
        raise ContractViolationError("nested commutator oracle needs m >= 1, n >= 1")
    poly = PPoly.monomial(m)
    for _ in range(n - 1):
        poly = commutator_with_x(poly)
    sign = ExactComplex(Fraction((-1) ** (n - 1), factorial(n)))
    return poly.scale(sign)


def zassenhaus_term(m: int, n: int, variant: str = "AB") -> PPoly:
    """Closed-form coefficient operator of order n for the (X, P^m) pair.

    AB: (-i)^{n-1} m!/(n! (m-n+1)!) P^{m-n+1}; BA carries the extra -(n-1).
    Zero polynomial for n > m+1 (the expansion terminates).
    """
    if m < 1 or n < 2:
        raise ContractViolationError("expansion terms are defined for m >= 1, n >= 2")
    if variant not in VARIANTS:
        raise ContractViolationError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if n > m + 1:
        return PPoly.zero()
    coeff = (MINUS_I ** (n - 1)) * ExactComplex(
        Fraction(factorial(m), factorial(n) * factorial(m - n + 1)))
    if variant == "BA":
        coeff = coeff * ExactComplex(Fraction(-(n - 1)))
    return PPoly.monomial(m - n + 1, coeff)


@dataclass(frozen=True)
class ExpansionTable:
    """All non-vanishing coefficient operators for one (m, variant) pair."""

    m: int
    variant: str
    terms: tuple  # ((n, PPoly), ...) for n = 2 .. m+1

    @classmethod
    @functools.lru_cache(maxsize=64)
    def build(cls, m: int, variant: str = "AB") -> "ExpansionTable":
        """The table of (m, variant), built once in exact arithmetic and cached."""
        return cls(m, variant,
                   tuple((n, zassenhaus_term(m, n, variant)) for n in range(2, m + 2)))


def phase_derivative_generator(m: int, theta1: float, n_queries: int,
                               variant: str = "cs_branch") -> tuple:
    """Hermitian generator g of the branch derivative in the second coupling.

    The branch state is (unitaries) e^{-i theta2 g} ... |phi> with every
    theta2-dependent factor a function of P, so d/d theta2 inserts -i g with

      cs_branch:     g = 2N P^m + i * sum_n (-2Ni)^n theta1^{n-1} C_n
      switch_branch: g = N  P^m + i * sum_n (-Ni)^n  theta1^{n-1} n C_n

    The i-factors cancel exactly: i (-i)^n C_n = (-1)^n i^{n+1} C_n, the
    real weights of `_factor_weights(m, "AB")`; for the switch the sum
    collapses to N (P - N theta1)^m.  theta1 and N enter in floating point,
    each weight as span (span theta1)^(n-1): no partial product passes the
    float range before the weight does, and a weight that does raises
    OverflowError, as a float power would.  Returns the real coefficients
    (c_0, ..., c_m) of g by power of P.
    """
    if variant not in ("cs_branch", "switch_branch"):
        raise ContractViolationError(f"variant must be 'cs_branch' or 'switch_branch', got {variant!r}")
    switch = variant == "switch_branch"
    span = int(n_queries) * (1 if switch else 2)
    theta1 = float(theta1)
    coeffs = [0.0] * m + [float(span)]
    for n, power, r in _factor_weights(m, "AB"):
        coeffs[power] += (-1) ** n * r * span * (span * theta1) ** (n - 1) * (n if switch else 1)
    if not all(map(math.isfinite, coeffs)):
        raise OverflowError(f"generator coefficients pass the float range at N={n_queries:g}")
    return tuple(coeffs)


FACTORIZATION_GUARD = 16
FACTORIZATION_MASS_TOL = 1e-14


@dataclass(frozen=True)
class FactorizationCheck:
    """Residual of the factorization identity on the envelope-safe columns."""

    residual: float
    columns_checked: int


@functools.lru_cache(maxsize=64)
def _factor_weights(m: int, variant: str) -> tuple:
    """((n, power, r), ...) with i^{n+1} C_n = r P^power over the cached
    (m, variant) table, so e^{lambda^n C_n} = e^{-i lambda_im^n r P^power}
    at lambda = i lambda_im: checked real once, in exact arithmetic, then
    stored as floats."""
    rows = []
    for n, term in ExpansionTable.build(m, variant).terms:
        real = term.scale(I_UNIT ** (n + 1))
        if not real.is_real():
            raise ContractViolationError("factorization exponent is not anti-Hermitian")
        rows.extend((n, power, float(c.re)) for power, c in real.coeffs)
    return tuple(rows)


def exp_antihermitian(mat: np.ndarray, dim: FockDim) -> SpectralUnitary:
    """e^{M} for verified anti-Hermitian M, via the Hermitian generator iM."""
    if np.abs(mat + mat.conj().T).max() > 1e-10:
        raise ContractViolationError("factorization exponent is not anti-Hermitian")
    if not mat.any():
        return SpectralUnitary.identity(dim)
    herm = Operator(dim, 1j * mat, hermitian=True)
    return propagator(herm, 1.0)


def verify_factorization(m: int, lambda_im: float, dim: FockDim | int,
                         variant: str = "AB") -> FactorizationCheck:
    """Max-element residual of the factorization at lambda = i*lambda_im, with
    the number of columns it was taken over.

    Both sides are built as d x d matrices.  Purely imaginary lambda keeps
    every factor unitary (real lambda exponentiates an unbounded X and
    explodes on a truncated basis; the identity is a formal power-series
    statement, so imaginary lambda tests the same coefficients).

    The left-hand side e^{lambda(X + P^m)}, the oracle, is the "X+P" entry
    of the quadrature spectrum cache (`strategies._quadrature_spectrum`),
    one per (m, d) and shared by both variants at every lambda: an eigh of
    its own at m >= 2, sqrt(2) times X rotated by pi/4 at m = 1.  Its dense
    matrix is checked unitary as an `Operator`.  The X factor is a
    propagator on the cached X spectrum.  Every other factor is diagonal in
    the cached spectrum of P: e^{lambda P^m} on P's basis reweighted to
    w^m, and each e^{lambda^n C_n} = e^{-i lambda_im^n h_n(P)},
    h_n = i^{n+1} C_n, checked real once per table in exact arithmetic.  A
    run of consecutive such factors is one cumulative phase vector Phi on
    that basis: the partial products are v diag(Phi_k) v^dag times what
    stands to their right, and only the top FACTORIZATION_GUARD rows of
    each are formed, for its boundary mass; the run's last is formed in
    full, one d^3 product in place of two per factor.

    The truncated basis cannot represent columns whose image reaches the
    boundary, so the residual is taken over the columns for which every
    partial product of the factor chain keeps its occupation of the top
    FACTORIZATION_GUARD levels (every level, on a basis no larger than
    that) below FACTORIZATION_MASS_TOL; if no column qualifies the envelope
    is violated and the EnvelopeError message carries the smallest
    offending mass.
    """
    from . import strategies  # strategies imports bch

    weights = _factor_weights(m, variant)  # checks the variant before any eigh
    dim = as_dim(dim)
    d = dim.d
    top = max(d - FACTORIZATION_GUARD, 0)  # first level of the guarded boundary band
    tau = -float(lambda_im)  # e^{lambda H} = e^{-i tau H}

    summed = strategies._quadrature_spectrum("X+P", m, dim)
    lhs = propagator(summed, tau).mat  # e^{lam (X + P^m)}

    x, pm = strategies._mode_spectra(m, dim)
    x_u, pm_u = propagator(x, tau), propagator(pm, tau)
    factors = [x_u, pm_u] if variant == "AB" else [pm_u, x_u]
    p = strategies._quadrature_spectrum("P", 1, dim)
    for n, power, r in weights:
        factors.append(propagator(p.reweighted(r * p.w ** power), float(lambda_im) ** n))

    guard = []  # rows from `top` on of every partial product, then of the left-hand side
    part = None  # the identity
    run = []  # phases of the consecutive factors diagonal in P, right to left
    for f in reversed(factors):
        if f.spectrum.v is p.v and f.spectrum.frame is None:
            run.append(f.phases)
            continue
        part = _phase_run(p.v, run, part, guard, top)
        run = []
        part = f @ (np.eye(d) if part is None else part)
        guard.append(part[top:])
    part = _phase_run(p.v, run, part, guard, top)
    guard.append(lhs[top:])

    masses = np.array([(np.abs(rows) ** 2).sum(axis=0) for rows in guard])
    ok = (masses < FACTORIZATION_MASS_TOL).all(axis=0)
    n_ok = int(ok.sum())
    if n_ok == 0:
        raise EnvelopeError(
            f"no column of d={d} stays inside the truncation envelope "
            f"(best boundary mass {masses.min(axis=1).max():.3e} >= "
            f"{FACTORIZATION_MASS_TOL:g}); reduce |lambda| or enlarge d")
    residual = float(np.abs(lhs[:, ok] - part[:, ok]).max())
    return FactorizationCheck(residual, n_ok)


def _phase_run(v: np.ndarray, run: list, part, guard: list, top: int):
    """v diag(Phi) v^dag part for Phi the product of the phase vectors `run`
    on the basis v (`part` None: the identity), appending to `guard` the
    rows from `top` on of each partial product, (d - top) x d apiece; `part`
    itself when the run is empty."""
    if not run:
        return part
    y = v.conj().T if part is None else _adjoint_product(v, part)  # v^dag part
    phi = np.ones(v.shape[0], dtype=complex)
    for phases in run:
        phi = phi * phases
        guard.append(_product(v[top:] * phi, y))
    return _product(v, phi[:, None] * y)
