import functools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cvmet import applications
from cvmet.applications import (
    CAVITY_DIM,
    DEFAULT_OPTOMECH,
    DEFAULT_OPTOMECH_SWEEP,
    OptomechParams,
    fit_scaling,
    homodyne_g_variance,
    mirror_overlap,
    optomech_fisher,
    optomech_state,
)
from cvmet.cvspace import (
    FockDim,
    Operator,
    ProbeSpec,
    build_quadrature,
    prepare_probe,
    propagator,
    spectrum,
)
from cvmet.errors import (
    ContractViolationError,
    DomainError,
    EnvelopeError,
    UnidentifiableParameterError,
)
from cvmet.qfi import asymptotic_qfi, crb_precision, qfi_fd
from cvmet.strategies import (
    COHERENT_SUPERPOSITION,
    QState,
    StrategyConfig,
    cs_output,
    cs_output_factorized,
    switch_output,
    switch_output_factorized,
)

PAPER_STYLE = OptomechParams(g=0.1, mass=1.0, omega_c=1.0, tau=0.2, n_steps=8)


def vacuum_overlap(p):
    """<b0|b1> for the vacuum mirror in closed form: with T = N tau, s = gT
    and k = s T / 2m, e^{-i(omega_c T + s^2 T / 6m)} e^{-(s^2 + k^2)/4} e^{iks/2}."""
    t_total = p.n_steps * p.tau
    s = p.g * t_total
    k = s * t_total / (2 * p.mass)
    return (np.exp(-1j * (p.omega_c * t_total + s ** 2 * t_total / (6 * p.mass)))
            * math.exp(-(s ** 2 + k ** 2) / 4) * np.exp(0.5j * k * s))


def cavity_moment(state, k):
    """<X_cav^k> on the cavity register of an optomech output state."""
    blocks = state.amplitudes.reshape(state.control_dim, -1)
    work = blocks
    for _ in range(k):
        work = build_quadrature(CAVITY_DIM, "X").mat @ work
    return complex(np.vdot(blocks, work))


def g_slope(f, p, h=2e-4):
    """df/dg at p by the fourth-order central difference."""
    at = [f(replace(p, g=p.g + j * h)) for j in (-2, -1, 1, 2)]
    return (at[0] - 8 * at[1] + 8 * at[2] - at[3]) / (12 * h)


class TestOptomechState:
    def test_uncoupled_branches_identical(self):
        p = replace(PAPER_STYLE, g=0.0, omega_c=0.0)
        state = optomech_state(p)
        assert np.abs(state.branch(0) - state.branch(1)).max() < 1e-12
        assert state.control_purity() == pytest.approx(1.0, abs=1e-12)

    def test_branch_overlap_decreases_with_n(self):
        overlaps = []
        for n in range(4, 17, 2):
            state = optomech_state(replace(PAPER_STYLE, n_steps=n))
            overlaps.append(abs(np.vdot(state.branch(0), state.branch(1))) * 2)
        assert all(o < 1.0 for o in overlaps)
        assert all(a > b for a, b in zip(overlaps, overlaps[1:]))

    def test_photon_number_conserved_exactly(self):
        state = optomech_state(replace(PAPER_STYLE, n_steps=10))
        dm = state.fock.d
        assert np.abs(state.amplitudes[2 * dm:]).max() == 0.0

    def test_cavity_moments_follow_the_branch_overlap(self):
        # the readout's <X_cav> = Re<b0|b1>/sqrt(2) and <X_cav^2> = 1, here
        # on the node state with the overlap taken in closed form
        p = replace(PAPER_STYLE, n_steps=10)
        state = optomech_state(p)
        overlap, _ = mirror_overlap(p)
        assert cavity_moment(state, 1) == pytest.approx(overlap.real / math.sqrt(2), abs=1e-12)
        assert cavity_moment(state, 2) == pytest.approx(1.0, abs=1e-12)

    def test_branch_leaving_the_grid_is_an_envelope_error(self):
        # g N tau = 9.6 moves the coupled branch to the edge of the 64 nodes,
        # whose outermost lies near p = 10.5: its grid norm misses 1 by 2.2e-2
        with pytest.raises(EnvelopeError, match="misses 1 by 2.2"):
            optomech_state(replace(DEFAULT_OPTOMECH, g=2.0, n_steps=24))

    def test_parameter_validation(self):
        with pytest.raises(ContractViolationError):
            OptomechParams(g=0.1, mass=-1.0, omega_c=1.0, tau=0.2, n_steps=4)


FISHER_PROBES = [ProbeSpec.vacuum(), ProbeSpec.fock(2), ProbeSpec.coherent(0.3 + 0.2j),
                 ProbeSpec.coherent(-1.1 + 0.7j), ProbeSpec.squeezed_vacuum(0.3)]


def closed_form_fisher(p):
    """F_g = 2 Var G + <G>^2 for the generator G of d b1/dg = -i G b1: with
    T = N tau, kappa = T^2/2m and s = gT, G = T X + kappa P - s T^2/6m in the
    probe frame, and no shipped probe has X-P covariance.  The moments are
    the probe's textbook ones, so this shares nothing with the node table."""
    probe = p.mirror_probe
    mean_x, mean_p, var_x, var_p = 0.0, 0.0, 0.5, 0.5
    if probe.kind == "coherent":
        mean_x, mean_p = math.sqrt(2) * probe.alpha.real, math.sqrt(2) * probe.alpha.imag
    if probe.kind == "squeezed_vacuum":
        var_x, var_p = math.exp(-2 * probe.r) / 2, math.exp(2 * probe.r) / 2
    if probe.kind == "fock":
        var_x = var_p = probe.n + 0.5
    t_total = p.n_steps * p.tau
    kappa = t_total * t_total / (2 * p.mass)
    mean_g = t_total * mean_x + kappa * mean_p - p.g * t_total ** 3 / (6 * p.mass)
    return 2 * (t_total ** 2 * var_x + kappa ** 2 * var_p) + mean_g ** 2


class TestOptomechFisher:
    @pytest.mark.parametrize("probe", FISHER_PROBES,
                             ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}-{s.r}")
    def test_matches_the_difference_of_the_state_and_the_closed_form(self, probe):
        for n in DEFAULT_OPTOMECH_SWEEP:
            p = replace(DEFAULT_OPTOMECH, n_steps=n, mirror_probe=probe)
            fisher = optomech_fisher(p)
            stepped = qfi_fd(lambda g: optomech_state(replace(p, g=g)), p.g)
            assert stepped.converged
            assert fisher == pytest.approx(stepped.value, rel=1e-9)
            assert fisher == pytest.approx(closed_form_fisher(p), rel=1e-13)

    def test_branch_leaving_the_grid_is_an_envelope_error(self):
        with pytest.raises(EnvelopeError, match="misses 1 by 2.2"):
            optomech_fisher(replace(DEFAULT_OPTOMECH, g=2.0, n_steps=24))


class TestMirrorOverlap:
    @pytest.mark.parametrize("tau", [1.0, 2.0])
    def test_matches_the_vacuum_past_the_node_aliasing(self, tau):
        # k = g T^2 / 2m reaches 10.3 at tau = 1, N = 18, and 73 at tau = 2,
        # N = 24, where the node sum aliases to 6e-5 against an exact e^{-1346}
        # (0 in floating point)
        for n in range(8, 25, 2):
            p = replace(DEFAULT_OPTOMECH, tau=tau, n_steps=n)
            exact = vacuum_overlap(p)
            assert abs(mirror_overlap(p)[0] - exact) <= 1e-12 * abs(exact)
        b0, b1, _ = applications._mirror_branches(p)
        assert abs(np.vdot(b0, b1)) > 1e-6 > abs(exact)

    @pytest.mark.parametrize("n", [0, 1, 3, 40, 300])
    def test_laguerre_matches_numpy_and_its_limit_at_zero(self, n):
        from numpy.polynomial import laguerre

        coeffs = [0] * n + [1]
        for u in (0.0, 1e-30, 0.3, 7.0, 4.0 * n + 2):
            chi, d_chi = applications._laguerre(n, u)
            value = laguerre.lagval(u, coeffs)
            slope = laguerre.lagval(u, laguerre.lagder(coeffs))
            scale = math.exp(-u / 2)
            assert chi == pytest.approx(scale * value, rel=1e-9, abs=1e-12)
            assert d_chi == pytest.approx(scale * (slope - value / 2), rel=1e-9, abs=1e-11)
        assert applications._laguerre(n, 0.0) == pytest.approx((1.0, -n - 0.5), rel=1e-12)

    def test_laguerre_past_the_overflow_of_its_polynomial(self):
        # at u = 1500, e^{-u/2} alone underflows and L_400(u) alone overflows;
        # their product is O(1e-2), here against L_n in exact arithmetic
        n, u = 400, 1500

        def exact(k):
            return sum(Fraction(math.comb(k, j) * (-u) ** j, math.factorial(j))
                       for j in range(k + 1))

        def scaled(x):  # e^{-u/2} x as a float, for an exact rational x
            size = math.log(abs(x.numerator)) - math.log(x.denominator) - u / 2
            return math.exp(size) if x > 0 else -math.exp(size)

        value = exact(n)
        slope = n * (value - exact(n - 1)) / u
        chi, d_chi = applications._laguerre(n, float(u))
        assert 1e-3 < abs(chi) < 1
        assert chi == pytest.approx(scaled(value), rel=1e-9)
        assert d_chi == pytest.approx(scaled(slope) - scaled(value) / 2, rel=1e-9)


class TestHomodyneVariance:
    def test_phase_periodicity_in_cavity_detuning(self):
        p = replace(PAPER_STYLE, n_steps=10)
        shifted = replace(p, omega_c=p.omega_c + 2 * math.pi / (p.n_steps * p.tau))
        a = homodyne_g_variance(p)
        b = homodyne_g_variance(shifted)
        assert a == pytest.approx(b, rel=1e-8)

    def test_symmetric_point_is_not_estimable(self):
        p = replace(PAPER_STYLE, g=0.0, omega_c=0.0, n_steps=6)
        with pytest.raises(UnidentifiableParameterError, match="vanished"):
            homodyne_g_variance(p)

    @pytest.mark.parametrize("change, reason", [
        ({"tau": 2.0, "n_steps": 18}, "underflows"),  # its square does
        ({"tau": 2.0, "n_steps": 24}, "underflows"),  # with the overlap
        ({"tau": 2.0, "n_steps": 24, "mirror_probe": ProbeSpec.fock(300)}, "underflows"),
        ({"g": 1e200}, "is not finite"),
        ({"mass": 1e-300}, "is not finite"),
    ], ids=["square-underflows", "overlap-underflows", "fock300", "huge-g", "tiny-mass"])
    def test_unusable_slope_is_unidentifiable_without_a_warning(self, change, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnidentifiableParameterError, match=reason):
                homodyne_g_variance(replace(DEFAULT_OPTOMECH, **change))

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_homodyne_respects_quantum_bound(self, n):
        p = replace(DEFAULT_OPTOMECH, n_steps=n)
        d2 = homodyne_g_variance(p)
        fisher = qfi_fd(lambda g: optomech_state(replace(p, g=g)), p.g)
        assert fisher.converged
        assert d2 >= (1.0 / fisher.value) * (1 - 1e-9)


MIRROR_PROBES = [ProbeSpec.vacuum(), ProbeSpec.coherent(0.4 + 0.3j),
                 ProbeSpec.coherent(-1.1 + 0.7j), ProbeSpec.squeezed_vacuum(0.3),
                 ProbeSpec.squeezed_vacuum(-0.4), ProbeSpec.fock(1), ProbeSpec.fock(3)]
ORACLE_DIM = FockDim(256)


@functools.lru_cache(maxsize=None)
def _fock_spectrum(mass, g, omega_c):
    """omega_c + P^2/2m + g X on the d = 256 truncated basis."""
    x, p = (build_quadrature(ORACLE_DIM, q).mat for q in ("X", "P"))
    h = omega_c * np.eye(ORACLE_DIM.d) + p @ p / (2 * mass) + g * x
    return spectrum(Operator(ORACLE_DIM, h, hermitian=True))


def fock_mirror_branches(p):
    """The mirror branches by eigendecomposition in a Fock basis, the oracle
    of the closed forms on momentum nodes."""
    phi = prepare_probe(p.mirror_probe, ORACLE_DIM).vec
    t_total = p.n_steps * p.tau
    return (propagator(_fock_spectrum(p.mass, 0.0, 0.0), t_total) @ phi,
            propagator(_fock_spectrum(p.mass, p.g, p.omega_c), t_total) @ phi)


def fock_overlap(p):
    return complex(np.vdot(*fock_mirror_branches(p)))


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("probe", MIRROR_PROBES, ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}-{s.r}")
class TestFockMirrorOracle:
    def test_branch_overlap_matches(self, probe, n):
        p = replace(DEFAULT_OPTOMECH, n_steps=n, mirror_probe=probe)
        fock = fock_overlap(p)
        b0, b1, _ = applications._mirror_branches(p)
        assert abs(np.vdot(b0, b1) - fock) <= 1e-11
        assert abs(mirror_overlap(p)[0] - fock) <= 1e-11

    def test_overlap_slope_matches(self, probe, n):
        p = replace(DEFAULT_OPTOMECH, n_steps=n, mirror_probe=probe)
        slope = g_slope(fock_overlap, p)
        assert abs(mirror_overlap(p)[1] - slope) <= 1e-9 * abs(slope)

    def test_homodyne_variance_and_fisher_match(self, probe, n):
        p = replace(DEFAULT_OPTOMECH, n_steps=n, mirror_probe=probe)
        overlap, slope = fock_overlap(p), g_slope(fock_overlap, p)
        in_fock = (1 - overlap.real ** 2 / 2) / (slope.real ** 2 / 2)
        assert homodyne_g_variance(p) == pytest.approx(in_fock, rel=1e-9)
        fisher = qfi_fd(lambda g: QState.from_branches(fock_mirror_branches(replace(p, g=g)),
                                                       ORACLE_DIM), p.g)
        assert fisher.converged
        assert optomech_fisher(p) == pytest.approx(fisher.value, rel=1e-9)


def test_claim_8_steps_run_no_eigendecomposition(monkeypatch):
    eigh = np.linalg.eigh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for n in (8, 10):
        p = replace(DEFAULT_OPTOMECH, n_steps=n)
        homodyne_g_variance(p)
        optomech_fisher(p)
    assert calls == []


class TestStateBuildersStayFactored:
    def test_no_dense_propagator_is_built(self, monkeypatch):
        # a propagator is applied through its spectrum; only `.mat` forms
        # (and checks) a dense unitary Operator
        built = []
        post_init = Operator.__post_init__

        def counted(self):
            if self.unitary:
                built.append(self.d)
            post_init(self)

        monkeypatch.setattr(Operator, "__post_init__", counted)
        homodyne_g_variance(DEFAULT_OPTOMECH)  # the claim-8 point, N = 8
        cfg = StrategyConfig(theta1=0.1, theta2=0.05, n_queries=3, m=2)
        for builder in (switch_output, cs_output, switch_output_factorized,
                        cs_output_factorized):
            builder(cfg, FockDim(64))
        assert built == []


class TestScalingFit:
    def test_exact_power_law(self):
        points = [(n, 7.0 * n ** -3) for n in (2, 4, 8, 16)]
        fit = fit_scaling(points)
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_has_zero_slope(self):
        fit = fit_scaling([(n, 2.5) for n in (1, 2, 3, 4, 5)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_nonlinearity_precision_slope(self):
        # delta theta2 from the closed-form information at m=2 falls as N^-3
        points = []
        for n in (20, 24, 28, 32):
            cfg = StrategyConfig(theta1=0.3, theta2=0.05, n_queries=n, m=2,
                                 strategy=COHERENT_SUPERPOSITION)
            points.append((n, crb_precision(asymptotic_qfi(cfg, "theta2")).delta_theta))
        fit = fit_scaling(points)
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            fit_scaling([(1, 1.0), (2, 0.5), (3, 0.25)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(DomainError):
            fit_scaling([(1, 1.0), (2, -0.5), (3, 0.25), (4, 0.1)])
        with pytest.raises(DomainError):
            fit_scaling([(0, 1.0), (2, 0.5), (3, 0.25), (4, 0.1)])

    def test_far_from_power_law_warns(self):
        with pytest.warns(UserWarning):
            fit_scaling([(1, 1.0), (2, 10.0), (3, 0.1), (4, 5.0)])
