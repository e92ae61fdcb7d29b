import math
from fractions import Fraction

import numpy as np
import pytest

from cvmet.bch import (
    FACTORIZATION_GUARD,
    FACTORIZATION_MASS_TOL,
    ExactComplex,
    ExpansionTable,
    FactorizationCheck,
    PPoly,
    _factor_weights,
    exp_antihermitian,
    nested_commutator_oracle,
    phase_derivative_generator,
    verify_factorization,
    zassenhaus_term,
)
from cvmet.cvspace import FockDim, build_quadrature, operator_power, propagator
from cvmet.errors import ContractViolationError, EnvelopeError
from cvmet.strategies import generator_spectrum


def poly_from(pairs):
    return PPoly.from_terms(pairs)


class TestExactComplex:
    def test_arithmetic(self):
        a = ExactComplex(Fraction(1, 3), Fraction(-1, 2))
        b = ExactComplex(Fraction(2), Fraction(1, 6))
        assert (a + b).re == Fraction(7, 3)
        assert (a * b).im == Fraction(1, 18) - Fraction(1)
        assert (-a).im == Fraction(1, 2)

    def test_minus_i_powers_cycle(self):
        minus_i = ExactComplex(Fraction(0), Fraction(-1))
        cycle = [(minus_i ** k).to_complex() for k in range(4)]
        assert cycle == [1, -1j, -1, 1j]


class TestClosedFormTerms:
    def test_linear_ab_term_is_minus_half_i(self):
        term = zassenhaus_term(1, 2, "AB")
        assert term.coeffs == ((0, ExactComplex(Fraction(0), Fraction(-1, 2))),)

    def test_m2_n2_ab(self):
        assert zassenhaus_term(2, 2, "AB") == poly_from([(1, ExactComplex(Fraction(0), Fraction(-1)))])

    def test_m2_n3_ab_scalar(self):
        assert zassenhaus_term(2, 3, "AB") == poly_from([(0, ExactComplex(Fraction(-1, 3)))])

    def test_linear_ba_term_is_plus_half_i(self):
        term = zassenhaus_term(1, 2, "BA")
        assert term.coeffs == ((0, ExactComplex(Fraction(0), Fraction(1, 2))),)

    def test_terms_vanish_past_order(self):
        assert zassenhaus_term(2, 4, "AB").is_zero
        assert zassenhaus_term(3, 7, "BA").is_zero


class TestOracle:
    def test_zeroth_commutator_is_operator_itself(self):
        assert nested_commutator_oracle(3, 1) == PPoly.monomial(3)

    def test_degree_exhaustion_gives_zero(self):
        assert nested_commutator_oracle(2, 4).is_zero

    def test_oracle_matches_closed_form_m3_n3(self):
        assert nested_commutator_oracle(3, 3) == zassenhaus_term(3, 3, "AB")

    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_form_equals_oracle_exactly(self, m):
        for n in range(2, m + 3):
            assert zassenhaus_term(m, n, "AB") == nested_commutator_oracle(m, n), (m, n)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_variant_relation_exact(self, m):
        for n in range(2, m + 2):
            assert zassenhaus_term(m, n, "BA") == zassenhaus_term(m, n, "AB").scale(-(n - 1))


def exact_derivative_generator(m, theta1, n_queries, variant):
    """The generator in exact arithmetic throughout, theta1 embedded as a
    Fraction: g = span P^m + i sum_n (-i span)^n theta1^{n-1} w_n C_n."""
    span = 2 * n_queries if variant == "cs_branch" else n_queries
    lam = ExactComplex(Fraction(0), Fraction(-span))
    g = PPoly.monomial(m, span)
    for n in range(2, m + 2):
        weight = lam ** n * ExactComplex(Fraction(theta1)) ** (n - 1)
        if variant == "switch_branch":
            weight = weight * n
        g = g + zassenhaus_term(m, n, "AB").scale(weight * ExactComplex(Fraction(0), Fraction(1)))
    return g


class TestPhaseDerivativeGenerator:
    def test_linear_cs_branch(self):
        g = phase_derivative_generator(1, 0.1, 4, "cs_branch")
        assert g[1] == pytest.approx(8.0)
        assert g[0] == pytest.approx(-3.2)

    def test_theta1_zero_leaves_query_term_only(self):
        g = phase_derivative_generator(3, 0.0, 5, "cs_branch")
        assert g == (0.0, 0.0, 0.0, 10.0)

    def test_switch_branch_collapses_to_shifted_power(self):
        # N (P - N theta1)^m for m=2, N=3, theta1=0.1: 3P^2 - 1.8P + 0.27
        g = phase_derivative_generator(2, 0.1, 3, "switch_branch")
        assert g[2] == pytest.approx(3.0, abs=1e-12)
        assert g[1] == pytest.approx(-1.8, abs=1e-12)
        assert g[0] == pytest.approx(0.27, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 6), (4, 2)])
    def test_generators_are_real(self, m, n):
        for variant in ("cs_branch", "switch_branch"):
            g = phase_derivative_generator(m, 0.37, n, variant)
            assert len(g) == m + 1 and all(type(c) is float for c in g)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("variant", ["cs_branch", "switch_branch"])
    def test_float_coefficients_match_exact_arithmetic(self, m, variant):
        for theta1, n in ((0.75, 4), (1.2, 24), (-0.3, 64)):
            exact = exact_derivative_generator(m, theta1, n, variant)
            assert exact.is_real()
            table = dict(exact.coeffs)
            g = phase_derivative_generator(m, theta1, n, variant)
            scale = max(abs(c) for c in g)
            for power, c in enumerate(g):
                want = float(table[power].re) if power in table else 0.0
                assert abs(c - want) <= 1e-15 * scale, (power, c, want)

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("variant", ["cs_branch", "switch_branch"])
    @pytest.mark.parametrize("theta1,n", [(1e-50, 10 ** 60), (1e-78, 10 ** 80)])
    def test_huge_query_counts_keep_every_coefficient_finite(self, theta1, n, variant, m):
        # span^n passes the float range although span^n theta1^(n-1) does not
        exact = dict(exact_derivative_generator(m, theta1, n, variant).coeffs)
        g = phase_derivative_generator(m, theta1, n, variant)
        for power, c in enumerate(g):
            want = float(exact[power].re) if power in exact else 0.0
            assert c == pytest.approx(want, rel=1e-12, abs=0.0), (power, c, want)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractViolationError):
            phase_derivative_generator(2, 0.1, 3, "both")


class TestPolyAlgebra:
    def test_product_convolves(self):
        p = poly_from([(1, 2), (0, 1)])
        assert (p * p) == poly_from([(2, 4), (1, 4), (0, 1)])

    def test_to_matrix_matches_manual(self):
        d = 12
        p_mat = build_quadrature(d, "P").mat
        poly = poly_from([(2, 1.5), (0, -0.25)])
        manual = 1.5 * (p_mat @ p_mat) - 0.25 * np.eye(d)
        assert np.abs(poly.to_matrix(p_mat) - manual).max() < 1e-13


def chain_factorization(m, lambda_im, d, variant):
    """`verify_factorization` with every factor applied as its own
    propagator and every partial product formed in full, d x d: the chain
    that the cumulative phase runs replace, on the same spectra."""
    dim = FockDim(d)
    top = max(d - FACTORIZATION_GUARD, 0)
    tau = -float(lambda_im)
    lhs = propagator(generator_spectrum(m, dim, 1.0, 1.0), tau).mat
    factors = [propagator(generator_spectrum(m, dim, 1.0, 0.0), tau),
               propagator(generator_spectrum(m, dim, 0.0, 1.0), tau)]
    if variant == "BA":
        factors.reverse()
    for n, power, r in _factor_weights(m, variant):
        factors.append(propagator(generator_spectrum(power, dim, 0.0, r), float(lambda_im) ** n))
    part, partials = np.eye(d, dtype=complex), []
    for f in reversed(factors):
        part = f @ part
        partials.append(part)
    ok, worst = np.ones(d, dtype=bool), 0.0
    for matrix in partials + [lhs]:
        masses = (np.abs(matrix[top:, :]) ** 2).sum(axis=0)
        ok &= masses < FACTORIZATION_MASS_TOL
        worst = max(worst, float(masses.min()))
    if not ok.any():
        raise EnvelopeError(f"best boundary mass {worst:.3e}")
    return FactorizationCheck(float(np.abs(lhs[:, ok] - part[:, ok]).max()), int(ok.sum()))


# (m, d) at which the dense P^m of the generator bands passes its Hermiticity
# check: every d below at m <= 3, d <= 64 at m = 4, d <= 32 at m = 5
CHAIN_CASES = [(m, d) for m in range(1, 6) for d in (16, 32, 64, 128)
               if d <= {4: 64, 5: 32}.get(m, 128)]


class TestFactorization:
    @pytest.mark.parametrize("lambda_im", [0.0, 0.02, 0.1, -0.3])
    @pytest.mark.parametrize("variant", ["AB", "BA"])
    @pytest.mark.parametrize("m,d", CHAIN_CASES)
    def test_phase_runs_match_the_factor_by_factor_chain(self, m, d, variant, lambda_im):
        # the same columns are kept, the residuals agree to round-off, and
        # every envelope violation of the chain is one of the runs
        try:
            want = chain_factorization(m, lambda_im, d, variant)
        except EnvelopeError:
            with pytest.raises(EnvelopeError):
                verify_factorization(m, lambda_im, FockDim(d), variant)
            return
        got = verify_factorization(m, lambda_im, FockDim(d), variant)
        assert got.columns_checked == want.columns_checked
        assert abs(got.residual - want.residual) <= 1e-13
        if lambda_im == 0.0:
            assert got.residual == want.residual == 0.0

    def test_linear_case_is_central(self):
        assert verify_factorization(1, 0.3, FockDim(64), "AB").residual < 1e-8

    def test_quadratic_case(self):
        assert verify_factorization(2, 0.2, FockDim(128), "AB").residual < 1e-7

    def test_cold_left_hand_side_is_decomposed_once_for_both_variants(self, monkeypatch,
                                                                      cold_spectra):
        # X comes from the cached spectrum of X, P^m and the C_n phases from
        # that of P; the left-hand side X + P^m runs its own eigh, once per
        # (m, d)
        dim = FockDim(128)
        generator_spectrum(2, dim, 1.0, 0.0)
        generator_spectrum(2, dim, 0.0, 1.0)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        assert verify_factorization(2, 0.2, dim, "AB").residual < 1e-7
        assert verify_factorization(2, 0.2, dim, "BA").residual < 1e-7
        lhs = build_quadrature(dim, "X").mat + operator_power(build_quadrature(dim, "P"), 2).mat
        assert len(calls) == 1
        assert np.array_equal(calls[0], lhs)

    def test_linear_left_hand_side_is_the_rotated_x_spectrum(self, monkeypatch, cold_spectra):
        # X + P = sqrt(2) R^dag X R, R = diag(e^{-i n pi/4}): at m = 1 both
        # variants decompose X and P only
        dim = FockDim(128)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        assert verify_factorization(1, 0.3, dim, "AB").residual < 1e-13
        assert verify_factorization(1, 0.3, dim, "BA").residual < 1e-13
        assert len(calls) == 2
        assert np.array_equal(calls[0], build_quadrature(dim, "X").mat.real)
        assert np.array_equal(calls[1], build_quadrature(dim, "P").mat)
        assert generator_spectrum(1, dim, 1.0, 1.0).v is generator_spectrum(1, dim, 1.0, 0.0).v

    def test_second_variant_decomposes_nothing(self, monkeypatch):
        # the left-hand side's spectrum depends on (m, d), not on the variant
        # or lambda, so a check after the other variant's runs no eigh
        verify_factorization(2, 0.2, FockDim(128), "BA")
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        assert verify_factorization(2, 0.15, FockDim(128), "AB").residual < 1e-7
        assert calls == []

    def test_lambda_zero_residual_exactly_zero(self):
        assert verify_factorization(2, 0.0, FockDim(32), "AB").residual == 0.0

    @pytest.mark.parametrize("variant", ["AB", "BA"])
    def test_both_variants_m3(self, variant):
        assert verify_factorization(3, 0.1, FockDim(128), variant).residual < 1e-7

    def test_envelope_violation_raises(self):
        with pytest.raises(EnvelopeError):
            verify_factorization(3, 0.3, FockDim(32), "AB")

    @pytest.mark.parametrize("d", [8, 12, 16])
    def test_basis_no_larger_than_the_guard_band_raises(self, d):
        # every level of such a basis lies in the guarded boundary band, so
        # no column can keep its boundary mass below the tolerance
        with pytest.raises(EnvelopeError):
            verify_factorization(1, 0.01, FockDim(d), "AB")

    def test_appending_vanished_terms_changes_nothing(self):
        # terms with n > m+1 are the zero polynomial; their exponentials are
        # the exact identity, so the factorized side cannot move
        d = 32
        extra = zassenhaus_term(2, 5, "AB").to_matrix(build_quadrature(d, "P").mat)
        assert np.array_equal(exp_antihermitian((0.3j) ** 5 * extra, FockDim(d)).mat,
                              np.eye(d))

    def test_coefficient_exponentials_commute(self):
        # all C_n are polynomials in P, so e^{sum} = prod e^{C_n}
        d = 64
        lam = 0.2j
        p_mat = build_quadrature(d, "P").mat
        total = np.zeros((d, d), dtype=complex)
        product = np.eye(d, dtype=complex)
        for n, term in ExpansionTable.build(3, "AB").terms:
            scaled = lam ** n * term.to_matrix(p_mat)
            total += scaled
            product = product @ exp_antihermitian(scaled, FockDim(d)).mat
        assert np.abs(exp_antihermitian(total, FockDim(d)).mat - product).max() < 1e-10

    def test_scaled_terms_antihermitian_for_imaginary_lambda(self):
        d = 24
        p_mat = build_quadrature(d, "P").mat
        for m in (1, 2, 3):
            for n, term in ExpansionTable.build(m, "AB").terms:
                scaled = (0.3j) ** n * term.to_matrix(p_mat)
                assert np.abs(scaled + scaled.conj().T).max() < 1e-10

    def test_non_antihermitian_exponent_rejected(self):
        with pytest.raises(ContractViolationError):
            exp_antihermitian(np.eye(4, dtype=complex), FockDim(4))


class TestExpansionTable:
    def test_tables_are_built_once(self):
        assert ExpansionTable.build(3, "BA") is ExpansionTable.build(3, "BA")

    def test_table_orders(self):
        table = ExpansionTable.build(3, "AB")
        assert [n for n, _ in table.terms] == [2, 3, 4]
        assert all(not poly.is_zero for _, poly in table.terms)
