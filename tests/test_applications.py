import math
from dataclasses import replace

import numpy as np
import pytest

from cvmet import applications
from cvmet.applications import (
    DEFAULT_OPTOMECH,
    OptomechParams,
    cavity_moment,
    overlap_constant_diagnostic,
    fit_scaling,
    homodyne_g_variance,
    optomech_state,
)
from cvmet.cvspace import FD_MAX_REDUCTIONS, FockDim, Operator, ProbeSpec
from cvmet.errors import (
    ContractViolationError,
    DomainError,
    NonConvergenceError,
    UnidentifiableParameterError,
)
from cvmet.qfi import QfiEstimate, asymptotic_qfi, crb_precision, qfi_fd
from cvmet.strategies import (
    COHERENT_SUPERPOSITION,
    StrategyConfig,
    cs_output,
    cs_output_factorized,
    switch_output,
    switch_output_factorized,
)

PAPER_STYLE = OptomechParams(g=0.1, mass=1.0, omega_c=1.0, tau=0.2, n_steps=8,
                             mirror_dim=FockDim(192))


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

    def test_cavity_mean_equals_branch_overlap_formula(self):
        p = replace(PAPER_STYLE, n_steps=10)
        state = optomech_state(p)
        direct = cavity_moment(state, 1)
        b0 = state.branch(0) * math.sqrt(2)
        b1 = state.branch(1) * math.sqrt(2)
        assert direct == pytest.approx(np.vdot(b0, b1).real / math.sqrt(2), abs=1e-10)

    def test_cavity_second_moment_is_unity(self):
        p = replace(PAPER_STYLE, n_steps=10)
        assert cavity_moment(optomech_state(p), 2) == pytest.approx(1.0, abs=1e-12)

    def test_envelope_violation_is_nonconvergence(self):
        cramped = replace(PAPER_STYLE, mirror_dim=FockDim(24), n_steps=24, g=0.4)
        with pytest.raises(NonConvergenceError):
            optomech_state(cramped)

    def test_parameter_validation(self):
        with pytest.raises(ContractViolationError):
            OptomechParams(g=0.1, mass=-1.0, omega_c=1.0, tau=0.2, n_steps=4)


class TestHomodyneVariance:
    def test_phase_periodicity_in_cavity_detuning(self):
        p = replace(PAPER_STYLE, n_steps=10)
        shifted = replace(p, omega_c=p.omega_c + 2 * math.pi / (p.n_steps * p.tau))
        a = homodyne_g_variance(p)
        b = homodyne_g_variance(shifted)
        assert a == pytest.approx(b, rel=1e-8)

    def test_symmetric_point_is_not_estimable(self):
        p = replace(PAPER_STYLE, g=0.0, omega_c=0.0, n_steps=6)
        with pytest.raises((UnidentifiableParameterError, NonConvergenceError)):
            homodyne_g_variance(p)

    def test_unsettled_slope_is_nonconvergence(self, monkeypatch):
        # a square-root kink at the operating point: the central difference
        # grows as h^-1/2 and never settles, so every halving is spent
        calls = []

        def kinked_mean(p):
            calls.append(p.g)
            return math.sqrt(max(p.g - PAPER_STYLE.g, 0.0))

        monkeypatch.setattr(applications, "cavity_mean", kinked_mean)
        with pytest.raises(NonConvergenceError):
            homodyne_g_variance(PAPER_STYLE)
        assert len(calls) == 2 * (FD_MAX_REDUCTIONS + 2)

    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_homodyne_respects_quantum_bound(self, n):
        p = replace(DEFAULT_OPTOMECH, n_steps=n)
        d2 = homodyne_g_variance(p)
        fisher = qfi_fd(lambda g: optomech_state(replace(p, g=g)), p.g)
        assert fisher.converged
        assert d2 >= (1.0 / fisher.value) * (1 - 1e-9)

    def test_overlap_constant_diagnostic_shape(self):
        diag = overlap_constant_diagnostic(replace(DEFAULT_OPTOMECH, n_steps=12))
        assert set(diag) == {"u_mean", "closed_form", "simulated"}
        assert diag["simulated"] > 0


def _clear_spectrum_caches():
    applications._kinetic_spectrum.cache_clear()
    applications._displaced_spectrum.cache_clear()


class TestMirrorSpectra:
    @pytest.mark.parametrize("change", [{"mass": 1.7}, {"omega_c": 2.5}, {"g": 0.13},
                                        {"mirror_dim": FockDim(160)}],
                             ids=["mass", "omega_c", "g", "mirror_dim"])
    def test_every_matrix_parameter_keys_the_cache(self, change):
        p = replace(PAPER_STYLE, n_steps=10)
        optomech_state(p)  # leaves the spectra of p cached
        cached = optomech_state(replace(p, **change)).amplitudes
        _clear_spectrum_caches()
        fresh = optomech_state(replace(p, **change)).amplitudes
        assert np.array_equal(cached, fresh)

    def test_claim_8_steps_share_six_eigendecompositions(self, monkeypatch):
        # the kinetic branch is free of g and N, the displaced branch free of
        # N; the homodyne slope and the fd QFI visit the same five g values
        eigh = np.linalg.eigh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape[-1])
            return eigh(a, *args, **kwargs)

        _clear_spectrum_caches()
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for n in (8, 10):
            p = replace(DEFAULT_OPTOMECH, n_steps=n)
            homodyne_g_variance(p)
            qfi_fd(lambda g, pp=p: optomech_state(replace(pp, g=g)), p.g)
        assert len(calls) <= 6


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
