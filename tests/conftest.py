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
        strategies._cs_generator_spectrum.cache_clear()

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
    its moments sum_j C(k, j) c^(k-j) <0|P^j|0> are Decimals.
    """
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
    vacuum and Fock(n) probes; 80-digit Decimals for a coherent probe.
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
    """The exact-rational theta2 oracle `_exact_theta2_qfi`, for vacuum,
    Fock(n) and coherent probes."""
    return _exact_theta2_qfi
