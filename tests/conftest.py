import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from cvmet import strategies


@pytest.fixture
def cold_spectra():
    """Empty the spectrum caches of `strategies`, so a test that counts
    eigendecompositions sees the same count whatever ran before it; the
    returned function empties them again."""
    def clear():
        strategies._quadrature_spectrum.cache_clear()
        strategies._banded_spectrum.cache_clear()

    clear()
    return clear


def _momentum_moments(probe, top: int) -> list:
    """<P^k> of the probe for k = 0..top, exactly.

    On the unnormalised |j) = sqrt(j!)|j> the ladder has integer entries,
    a^dag|j) = |j+1) and a|j) = j|j-1), so <n|(a^dag - a)^k|n> is the
    integer coefficient of |n) in (a^dag - a)^k |n), and with
    P = i(a^dag - a)/sqrt(2), <n|P^k|n> is that integer times (-1)^(k/2)
    over 2^(k/2) for even k (zero for odd k, by parity).  A coherent probe
    is the vacuum centred at c = sqrt(2) Im alpha, an irrational centre, so
    its moments sum_j C(k, j) c^(k-j) <0|P^j|0> are Decimals.  A squeezed
    vacuum is a Gaussian of variance e^{2r} / 2, so <P^{2k}> =
    (2k - 1)!! (e^{2r} / 2)^k, Decimals too, and its odd moments vanish.
    """
    if probe.kind == "squeezed_vacuum":
        half = (2 * Decimal(probe.r)).exp() / 2
        return [0 if k % 2 else math.prod(range(1, k, 2)) * half ** (k // 2)
                for k in range(top + 1)]
    n = probe.n if probe.kind == "fock" else 0
    moments, vec = [], {n: 1}
    for k in range(top + 1):
        moments.append(Fraction((-1) ** (k // 2) * vec.get(n, 0), 2 ** (k // 2)))
        step = {}
        for j, c in vec.items():
            step[j + 1] = step.get(j + 1, 0) + c
            if j:
                step[j - 1] = step.get(j - 1, 0) - j * c
        vec = step
    if probe.kind == "fock" or probe.kind == "vacuum":
        return moments
    assert probe.kind == "coherent", probe
    centre = Decimal(2).sqrt() * Decimal(probe.alpha.imag)
    vacuum = [Decimal(f.numerator) / f.denominator for f in moments]
    return [sum(math.comb(k, j) * centre ** (k - j) * vacuum[j] for j in range(k + 1))
            for k in range(top + 1)]


def _exact_theta2_qfi(cfg, shift=0):
    """F of theta2 from the probe's exact momentum moments, with theta1 taken
    as Fraction(theta1): no node grid, no basis, no float.  `shift` is added
    to both Phi_b, a global phase e^{-i theta2 shift}.

    Branch b is the probe times the phase e^{-i theta2 Phi_b(P)}, Phi_b free
    of theta2:
      switch                  Phi_0 = N P^m,  Phi_1 = N (P - N theta1)^m
      coherent superposition  Phi_+- = +- int_0^{2N} (P - theta1 s)^m ds
                                     = +- sum_j C(m, j) P^j (-theta1)^(m-j)
                                          (2N)^(m-j+1) / (m-j+1)
    so F = 4 Var Phi over the even mixture of the two branches,
    4 ((1/2) sum_b <Phi_b^2> - ((1/2) sum_b <Phi_b>)^2).  Fractions for the
    vacuum and Fock(n) probes; 80-digit Decimals for a coherent or squeezed
    probe.
    """
    m, n, t1 = cfg.m, cfg.n_queries, Fraction(cfg.theta1)
    if cfg.strategy == strategies.SWITCH:
        phis = [[0] * m + [n],
                [n * math.comb(m, j) * (-n * t1) ** (m - j) for j in range(m + 1)]]
    else:
        span = 2 * n
        phi = [math.comb(m, j) * (-t1) ** (m - j) * Fraction(span ** (m - j + 1), m - j + 1)
               for j in range(m + 1)]
        phis = [phi, [-c for c in phi]]
    phis = [[phi[0] + Fraction(shift)] + phi[1:] for phi in phis]
    with localcontext(prec=80):
        moments = _momentum_moments(cfg.probe, 2 * m)
        if isinstance(moments[0], Decimal):
            phis = [[Decimal(Fraction(c).numerator) / Fraction(c).denominator for c in phi]
                    for phi in phis]
        means = [sum(c * moments[j] for j, c in enumerate(phi)) for phi in phis]
        squares = [sum(a * b * moments[i + j] for i, a in enumerate(phi)
                       for j, b in enumerate(phi)) for phi in phis]
        return 4 * (sum(squares) / 2 - (sum(means) / 2) ** 2)


@pytest.fixture
def exact_theta2_qfi():
    """The exact theta2 oracle `_exact_theta2_qfi`, for every probe kind."""
    return _exact_theta2_qfi


def _exact_theta1_qfi(cfg):
    """F of theta1 from the probe's exact moments, theta1 and theta2 taken as
    Fraction(theta): no node grid, no basis, no float.  Vacuum and Fock(n)
    probes in Fractions; a coherent or squeezed probe in 80-digit Decimals.

    In the probe frame branch b is U_b phi with dU_b / d theta1 = -i U_b G_b,
    G_b = alpha X + f_b(P) Hermitian, alpha = N (switch) or 2N (coherent
    superposition) and f_b a real polynomial:
      switch                  G_0 = N X + theta2 m N^2 P^(m-1),  G_1 = N X
      coherent superposition  G_+- = 2N X +- theta2 m int_0^{2N} (2N - u)
                                                (P - theta1 u)^(m-1) du,
    the integral summed term by term: (P - theta1 u)^(m-1) =
    sum_j C(m-1, j) P^j (-theta1 u)^k, k = m-1-j, and
    int_0^T (T - u) u^k du = T^(k+2) / ((k+1)(k+2)).  So
    F = 4 ((1/2) sum_b <G_b^2> - ((1/2) sum_b <G_b>)^2), the variance of the
    branch generators over the even mixture.  The probe's momentum
    amplitudes are a global phase times e^{-i x0 p} times a real function
    psi(p) (the Hermite function of Fock(n), the Gaussian of a squeezed
    vacuum; x0 = sqrt(2) Re alpha for a coherent probe, else 0), and
    X = i d/dp, so
    <X g(P)> = x0 <g(P)> + i int psi (g psi)' dp, whose second term is
    imaginary: <{X, g(P)}> = 2 x0 <g(P)>, <X> = x0 and
    <X^2> = x0^2 + <n|(a + a^dag)^2|n> / 2 = x0^2 + n + 1/2 (e^{-2r} / 2
    for a squeezed vacuum).  Then
    <G_b> = alpha x0 + <f_b(P)> and
    <G_b^2> = alpha^2 <X^2> + 2 alpha x0 <f_b(P)> + <f_b(P)^2>, with the
    P moments of `_momentum_moments`.
    """
    m, n = cfg.m, cfg.n_queries
    t1, t2 = Fraction(cfg.theta1), Fraction(cfg.theta2)
    if cfg.strategy == strategies.SWITCH:
        alpha = n
        fs = [[0] * (m - 1) + [t2 * m * n * n], [0] * m]
    else:
        alpha, span = 2 * n, 2 * n
        f = [t2 * m * math.comb(m - 1, j) * (-t1) ** (m - 1 - j)
             * Fraction(span ** (m + 1 - j), (m - j) * (m + 1 - j)) for j in range(m)]
        fs = [f, [-c for c in f]]
    with localcontext(prec=80):
        moments = _momentum_moments(cfg.probe, 2 * (m - 1))
        x_mean, x_square = 0, Fraction(2 * cfg.probe.n + 1, 2)
        if cfg.probe.kind == "coherent":
            x_mean = Decimal(2).sqrt() * Decimal(cfg.probe.alpha.real)
            x_square = x_mean ** 2 + Decimal(1) / 2
        if cfg.probe.kind == "squeezed_vacuum":
            x_square = (-2 * Decimal(cfg.probe.r)).exp() / 2
        if isinstance(moments[0], Decimal):
            fs = [[Decimal(c.numerator) / c.denominator for c in map(Fraction, f)] for f in fs]
        f_means = [sum(c * moments[j] for j, c in enumerate(f)) for f in fs]
        means = [alpha * x_mean + mean for mean in f_means]
        squares = [alpha ** 2 * x_square + 2 * alpha * x_mean * mean
                   + sum(a * b * moments[i + j] for i, a in enumerate(f) for j, b in enumerate(f))
                   for f, mean in zip(fs, f_means)]
        return 4 * (sum(squares) / 2 - (sum(means) / 2) ** 2)


@pytest.fixture
def exact_theta1_qfi():
    """The exact theta1 oracle `_exact_theta1_qfi`, for every probe kind."""
    return _exact_theta1_qfi
