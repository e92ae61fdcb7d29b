import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cvmet.bch import ExactComplex, PPoly, zassenhaus_term
from cvmet import cvspace, strategies
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
    EnvelopeError,
    UnidentifiableParameterError,
    UnsupportedConfigurationError,
)
from cvmet import qfi as qfi_module
from cvmet.qfi import (
    THETA1,
    THETA2,
    QfiEstimate,
    asymptotic_qfi,
    crb_precision,
    large_n_gate,
    precision_ratio,
    qfi_converged,
    qfi_fd,
    qfi_from_derivative,
    qfi_generator,
    qfi_generator_grid,
    ratio_formula,
)
from cvmet.strategies import (
    COHERENT_SUPERPOSITION,
    COMPOSITE,
    SWITCH,
    StrategyConfig,
    build_output,
    cs_output,
    output_derivative,
)


class TestFiniteDifference:
    def test_pure_momentum_displacement_on_vacuum(self):
        # single-branch family e^{-i theta P}|0>: F = 4 Var P = 2
        d = 64
        probe = prepare_probe(ProbeSpec.vacuum(), d)
        p = spectrum(build_quadrature(d, "P"))
        est = qfi_fd(lambda t: propagator(p, t) @ probe.vec, 0.3)
        assert est.converged
        assert est.value == pytest.approx(2.0, rel=1e-6)

    def test_switch_linear_first_coupling(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1, strategy=SWITCH)
        est = qfi_converged(cfg, THETA1)
        assert est.converged
        assert est.value == pytest.approx(34.56, rel=1e-4)

    def test_cs_linear_second_coupling(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_converged(cfg, THETA2)
        assert est.value == pytest.approx(168.96, rel=1e-3)
        assert est.diagnostics["dim_used"] >= 128

    def test_richardson_flags_non_smooth_builder(self):
        d = 32
        probe = prepare_probe(ProbeSpec.vacuum(), d)
        p = spectrum(build_quadrature(d, "P"))

        def kinked(theta):
            return propagator(p, theta + 0.5 * abs(theta - 0.100004)) @ probe.vec

        est = qfi_fd(kinked, 0.1)
        assert not est.converged
        assert "step_history" in est.diagnostics


def rotating_builder(w, calls):
    """theta -> (cos w theta, sin w theta), recording every theta built.

    Its step-h central-difference QFI is 4 w^2 sinc^2(w h), so Richardson
    pairs at h and h/2 differ by about (w h)^2 / 4 relative: with
    h0 = 1e-4 (theta0 = 0), w = 150 * 2^k first settles at rung k."""
    def build(theta):
        calls.append(theta)
        return np.array([math.cos(w * theta), math.sin(w * theta)])

    return build


def settling_at(k):
    return 150.0 * 2 ** k



class TestStepLadder:
    def test_centre_is_built_once_and_each_estimate_builds_two(self):
        calls = []
        est = qfi_fd(rotating_builder(settling_at(2), calls), 0.0)
        assert est.converged and len(est.diagnostics["step_history"]) == 3
        estimates = len(est.diagnostics["step_history"]) + 1
        assert calls[0] == 0.0 and calls.count(0.0) == 1
        assert len(calls) == 1 + 2 * estimates


def fixed_dim_fd(cfg, which, d):
    """Richardson fd of the plain builder at one dimension."""
    return qfi_fd(lambda t: build_output(replace(cfg, **{which: t}), d), getattr(cfg, which))


def exact_at_dim(cfg, which, d):
    psi, dpsi = output_derivative(cfg, d, which)
    return qfi_from_derivative(psi.amplitudes, dpsi)


class TestExactFock:
    """The Fock route differentiates each state exactly, from the spectra that
    build it: no step, one build per dimension."""

    @pytest.mark.parametrize("d", [64, 128])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("which", [THETA1, THETA2])
    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    def test_agrees_with_richardson_fd_of_the_same_builder(self, strategy, which, m, d):
        cfg = StrategyConfig(theta1=0.2, theta2=0.05, n_queries=2, m=m, strategy=strategy)
        fd = fixed_dim_fd(cfg, which, d)
        assert fd.converged
        assert exact_at_dim(cfg, which, d) == pytest.approx(fd.value, rel=1e-7)

    @pytest.mark.parametrize("which", [THETA1, THETA2])
    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    def test_state_is_bitwise_build_output(self, strategy, which, cold_spectra):
        # cold, then on the spectra the first build cached
        cfgs = [StrategyConfig(theta1=0.2, theta2=0.05, n_queries=n, m=2, strategy=strategy,
                               probe=ProbeSpec.coherent(0.3 + 0.2j)) for n in (2, 3)]
        for cfg in cfgs:
            psi, dpsi = output_derivative(cfg, 64, which)
            assert np.array_equal(psi.amplitudes, build_output(cfg, 64).amplitudes)
            assert np.array_equal(dpsi, output_derivative(cfg, 64, which)[1])

    @pytest.mark.parametrize("c", [0.0, 0.7, -2.5])
    def test_degenerate_generator_gives_the_closed_form(self, c):
        """H = c I: every eigenvalue repeats, Gamma is -i tau e^{-i tau c}
        everywhere, so the derivative in B is -i tau e^{-i tau c} B x (to
        rounding), where a divided difference of eigenvalues would be 0/0."""
        dim = FockDim(8)
        spec = cvspace.spectrum(Operator(dim, c * np.eye(8), hermitian=True))
        bands = [(k, x_k) for k, x_k, _ in strategies._generator_bands(2, dim)]
        x = np.exp(0.3j * np.arange(8)) / np.sqrt(8)
        b_x = build_quadrature(dim, "X").mat @ x
        for tau in (0.5, 4.0):
            dpsi = strategies._exp_derivative(spec, bands, tau, x)
            expected = -1j * tau * np.exp(-1j * tau * c) * b_x
            assert np.abs(dpsi - expected).max() <= 1e-15 * tau * np.abs(b_x).max()

    def test_coherent_superposition_row_decomposes_one_generator_per_dimension(
            self, monkeypatch, cold_spectra):
        # the + branch generator; the - branch runs on its mirrored spectrum
        calls = []
        monkeypatch.setattr(strategies, "spectrum",
                            lambda gen: calls.append(gen.d) or cvspace.spectrum(gen))
        cfg = StrategyConfig(theta1=0.3, theta2=0.05, n_queries=8, m=2,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_converged(cfg, THETA2)
        dims = [d for d, _ in est.diagnostics["dim_history"]]
        assert dims == [64, 128, 256]
        assert calls == dims

    def test_switch_row_decomposes_nothing_beyond_the_mode_spectra(self, monkeypatch,
                                                                   cold_spectra):
        # X and P once per d: P^m is P's spectrum reweighted, no eigh of its own
        calls = []
        monkeypatch.setattr(strategies, "spectrum",
                            lambda gen: calls.append(gen.mat) or cvspace.spectrum(gen))
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=2, strategy=SWITCH)
        est = qfi_converged(cfg, THETA1)
        dims = [d for d, _ in est.diagnostics["dim_history"]]
        assert len(calls) == 2 * len(dims)
        for d, x, p in zip(dims, calls[::2], calls[1::2]):
            assert np.array_equal(x, build_quadrature(d, "X").mat)
            assert np.array_equal(p, build_quadrature(d, "P").mat)
        calls.clear()
        assert qfi_converged(cfg, THETA2).converged
        assert calls == []

    def test_linear_cs_row_decomposes_nothing_beyond_the_mode_spectra(self, monkeypatch,
                                                                      cold_spectra):
        # each m = 1 branch spectrum is the cached X spectrum rotated
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape[0]) or eigh(a))
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_converged(cfg, THETA1)
        assert est.method == "exact_fock" and est.converged
        dims = [d for d, _ in est.diagnostics["dim_history"]]
        assert calls == [d for d in dims for _ in range(2)]  # X and P, once per d
        calls.clear()
        assert qfi_converged(cfg, THETA2).converged
        assert calls == []

    def test_fock_rows_take_no_difference(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fock row took a finite difference")

        monkeypatch.setattr(qfi_module, "qfi_fd", refuse)
        monkeypatch.setattr(qfi_module, "richardson", refuse)
        for strategy in (SWITCH, COHERENT_SUPERPOSITION):
            cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1, strategy=strategy)
            est = qfi_converged(cfg, THETA2)
            assert est.method == "exact_fock" and est.converged
            assert est.step_used is None and "step_history" not in est.diagnostics

    def test_history_holds_the_exact_value_of_each_dimension(self):
        cfg = StrategyConfig(theta1=0.3, theta2=0.05, n_queries=10, m=2,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_converged(cfg, THETA2)
        history = est.diagnostics["dim_history"]
        assert history == tuple((d, exact_at_dim(cfg, THETA2, d)) for d, _ in history)
        assert est.diagnostics["dim_used"] == history[-1][0] == 256
        assert est.value == history[-1][1]
        assert est.value == pytest.approx(qfi_generator(cfg, THETA2).value, rel=1e-12)

    def test_unsettled_doubling_names_its_last_dimension(self, monkeypatch):
        def drifting(cfg, d, which):  # a value that moves by 1e-3 at every doubling
            psi, dpsi = output_derivative(cfg, 64, which)
            return psi, dpsi * (1 + 1e-3 * math.log2(d))

        monkeypatch.setattr(qfi_module, "output_derivative", drifting)
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=2, m=1, strategy=SWITCH)
        est = qfi_converged(cfg, THETA2)
        assert not est.converged and est.diagnostics["dim_used"] == 1024
        assert est.diagnostics["reason"] == (
            "the value still moved by more than 1e-06 relative when doubling to d=1024")


class TestGeneratorRoute:
    def test_cs_linear_value(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_generator(cfg, THETA2)
        assert est.value == pytest.approx(168.96, rel=1e-12)
        assert est.method == "generator_exact"

    def test_switch_linear_second_coupling_matches_closed_form(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.07, n_queries=4, m=1, strategy=SWITCH)
        est = qfi_generator(cfg, THETA2)
        expected = cfg.theta1 ** 2 * 4 ** 4 + 4 * 4 ** 2 * 0.5
        assert est.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    @pytest.mark.parametrize("m", [1, 2])
    def test_oracle_triangle_fd_vs_generator(self, strategy, m):
        cfg = StrategyConfig(theta1=0.06, theta2=0.04, n_queries=3, m=m,
                             strategy=strategy)
        fd = qfi_converged(cfg, THETA2)
        gen = qfi_generator(cfg, THETA2)
        assert fd.converged and gen.converged
        assert fd.value == pytest.approx(gen.value, rel=1e-3)

    def test_theta1_linear_supported(self):
        cfg = StrategyConfig(theta1=0.08, theta2=0.06, n_queries=3, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        fd = qfi_converged(cfg, THETA1)
        gen = qfi_generator(cfg, THETA1)
        assert fd.value == pytest.approx(gen.value, rel=1e-3)

    def test_theta1_nonlinear_unsupported(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=3, m=2, strategy=SWITCH)
        with pytest.raises(UnsupportedConfigurationError):
            qfi_generator(cfg, THETA1)

    def test_composite_treated_as_cs(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1, strategy=COMPOSITE)
        est = qfi_generator(cfg, THETA2)
        assert est.value == pytest.approx(168.96, rel=1e-12)

    def test_leading_order_diagnostic_reported(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_generator(cfg, THETA2)
        # |<g>|^2 form: (2 N^2 theta1)^2 * 4 = leading term only
        assert est.diagnostics["expectation_squared_form"] == pytest.approx(
            16 * 4 ** 4 * 0.1 ** 2, rel=1e-12)


def fock_route_qfi(cfg, which, d=128):
    """The generator QFI the way the truncated basis gives it: branch
    generators in exact arithmetic, substituted into the d x d quadrature
    and applied to the prepared probe; independent of the node layer."""
    n, m, t1, t2 = cfg.n_queries, cfg.m, cfg.theta1, cfg.theta2
    cs = cfg.strategy == COHERENT_SUPERPOSITION

    def derivative(span, switch):
        g = PPoly.monomial(m, span)
        lam = ExactComplex(Fraction(0), Fraction(-span))
        for order in range(2, m + 2):
            weight = lam ** order * ExactComplex(Fraction(t1)) ** (order - 1)
            weight = weight * (order if switch else 1) * ExactComplex(Fraction(0), Fraction(1))
            g = g + zassenhaus_term(m, order, "AB").scale(weight)
        return g

    if which == THETA2:
        symbol = "P"
        branches = ([(derivative(2 * n, False), 1), (derivative(2 * n, False), -1)] if cs
                    else [(PPoly.monomial(m, n), 1), (derivative(n, True), 1)])
    else:
        symbol = "X"
        shift = 2 * n * n * t2 if cs else n * n * t2
        branches = ([(PPoly.from_terms([(1, 2 * n), (0, shift)]), 1),
                     (PPoly.from_terms([(1, 2 * n), (0, -shift)]), 1)] if cs
                    else [(PPoly.from_terms([(1, n), (0, shift)]), 1),
                          (PPoly.monomial(1, n), 1)])
    phi = prepare_probe(cfg.probe, d).vec
    quad = build_quadrature(d, symbol).mat
    means, squares = [], []
    for poly, sigma in branches:
        g_phi = poly.to_matrix(quad) @ phi
        means.append(sigma * np.vdot(phi, g_phi).real)
        squares.append(np.vdot(g_phi, g_phi).real)
    return 4.0 * (np.mean(squares) - np.mean(means) ** 2)


NODE_PROBES = [ProbeSpec.vacuum(), ProbeSpec.coherent(0.3 + 0.4j),
               ProbeSpec.coherent(-1.1 + 0.7j), ProbeSpec.squeezed_vacuum(0.3),
               ProbeSpec.squeezed_vacuum(-0.5), ProbeSpec.fock(1), ProbeSpec.fock(3)]


class TestGeneratorOnNodes:
    @pytest.mark.parametrize("probe", NODE_PROBES, ids=lambda p: f"{p.kind}-{p.n}-{p.alpha}-{p.r}")
    def test_matches_the_fock_route(self, probe):
        cases = [(m, strategy, THETA2, 0.3, n) for m in (1, 2, 3, 5)
                 for strategy in (SWITCH, COHERENT_SUPERPOSITION) for n in (3, 16)]
        cases += [(1, strategy, THETA1, 0.3, n)
                  for strategy in (SWITCH, COHERENT_SUPERPOSITION) for n in (3, 16)]
        for m, strategy, which, theta1, n in cases:
            cfg = StrategyConfig(theta1=theta1, theta2=0.07, n_queries=n, m=m,
                                 strategy=strategy, probe=probe)
            expected = fock_route_qfi(cfg, which)
            got = qfi_generator(cfg, which).value
            assert got == pytest.approx(expected, rel=1e-12), (m, strategy, which, n)

    def test_large_n_gate_reads_the_exact_momentum_mean(self):
        # <P> = sqrt(2) Im alpha = 8.49; a d = 64 basis cannot hold this probe
        probe = ProbeSpec.coherent(1.0 + 6.0j)
        phi = prepare_probe(probe, 256).vec
        p_mean = np.vdot(phi, build_quadrature(256, "P").mat @ phi).real
        assert p_mean == pytest.approx(6 * math.sqrt(2), rel=1e-12)
        for n in range(80, 100):
            cfg = StrategyConfig(theta1=1.0, theta2=0.05, n_queries=n, m=1,
                                 strategy=COHERENT_SUPERPOSITION, probe=probe)
            assert large_n_gate(cfg) == (n >= 10 * (abs(p_mean) + 1))

    def test_asymptote_on_a_high_fock_probe(self):
        # switch, m = 1: theta1^2 N^4 + 4 N^2 Var(P), Var(P) = 300.5 on Fock(300)
        cfg = StrategyConfig(theta1=0.2, theta2=0.05, n_queries=6, m=1, strategy=SWITCH,
                             probe=ProbeSpec.fock(300))
        expected = 0.2 ** 2 * 6 ** 4 + 4 * 6 ** 2 * 300.5
        assert asymptotic_qfi(cfg, THETA2).value == pytest.approx(expected, rel=1e-12)

    def test_far_centred_probe_keeps_its_digits(self, exact_theta2_qfi):
        # <P> = 1.4e6: the mixture's <g^2> and <g>^2 agree to 11 digits, so
        # each sigma_b g_b is centred on the mixture mean before squaring
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=2, strategy=SWITCH,
                             probe=ProbeSpec.coherent(1e6 + 1e6j))
        exact = float(exact_theta2_qfi(cfg))
        assert qfi_generator(cfg, THETA2).value == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("estimator", [qfi_generator, asymptotic_qfi,
                                           qfi_module.qfi_nodes])
    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    def test_overflow_is_an_envelope_error(self, estimator, strategy):
        # N^(m+1) and (N theta1)^m pass the float range: Python's float power
        # raises OverflowError there, numpy's power or product overflows
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=int(1e60), m=5,
                             strategy=strategy)
        with pytest.raises(EnvelopeError, match="overflows the float range"):
            estimator(cfg, THETA2)

    def test_nan_is_no_overflow(self, monkeypatch):
        # a nan from anything but an overflow is not hidden as one
        monkeypatch.setattr(qfi_module, "node_phases",
                            lambda cfg, q: (np.full(q.size, np.nan),) * 2)
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=24, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        assert math.isnan(qfi_module.qfi_nodes(cfg, THETA2).value)


TRIANGLE_PROBES = [ProbeSpec.vacuum(), ProbeSpec.coherent(0.3 + 0.2j), ProbeSpec.fock(2)]


class TestNodeRoute:
    """The fourth leg of the fd / generator / asymptotic triangle: the exact
    theta2 derivative of the momentum-node states, against fd in the Fock
    basis and F_gen, on small rows both routes can take."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    @pytest.mark.parametrize("probe", TRIANGLE_PROBES, ids=lambda p: p.kind)
    def test_exact_nodes_fock_fd_and_generator_agree(self, m, strategy, probe):
        cfg = StrategyConfig(theta1=0.2, theta2=0.05, n_queries=2, m=m,
                             strategy=strategy, probe=probe)
        assert qfi_module.fock_start(cfg) is not None
        fock = qfi_converged(cfg, THETA2)
        nodes = qfi_module.qfi_nodes(cfg, THETA2)
        exact = qfi_generator(cfg, THETA2).value
        assert fock.method == "exact_fock" and fock.converged
        assert nodes.method == "exact_nodes" and nodes.converged
        assert nodes.diagnostics["dim_used"] == m + 1 + probe.n
        for est in (fock, nodes):
            assert est.value == pytest.approx(exact, rel=1e-8)

    def test_rows_beyond_the_fock_reach_take_the_node_route(self):
        # <P> - theta1 2N = -57.6 lies past sqrt(2 * 1024 + 1) = 45.3
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=24, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        assert qfi_module.fock_start(cfg) is None
        assert qfi_module.fock_start(replace(cfg, theta1=0.9)) == 64   # 43.2
        # Fock(600) fits d = 1024, but its momentum half-width sqrt(1201) =
        # 34.7 carries the row past the reach (43.2 + 34.7), and its node
        # grid m + 1 + n = 604 passes NODE_CAP, so the row is refused
        fock600 = replace(cfg, theta1=0.9, probe=ProbeSpec.fock(600))
        assert qfi_module.fock_start(fock600) is None
        with pytest.raises(EnvelopeError, match="needs 604 Gauss-Hermite nodes"):
            qfi_converged(fock600, THETA2)
        # beyond the reach no basis holds the row, whatever its node grid:
        # m + 1 + n is 512 for Fock(508) at m = 3 and 513, past NODE_CAP,
        # for Fock(509), which qfi_nodes then refuses
        assert qfi_module.fock_start(replace(cfg, probe=ProbeSpec.fock(508))) is None
        assert qfi_module.fock_start(replace(cfg, probe=ProbeSpec.fock(509))) is None
        with pytest.raises(EnvelopeError, match="needs 513 Gauss-Hermite nodes"):
            qfi_converged(replace(cfg, probe=ProbeSpec.fock(509)), THETA2)
        # a coherent probe's momentum centre sqrt(2) Im alpha moves the reach
        shifted = replace(cfg, probe=ProbeSpec.coherent(10j))   # <P> = 14.1
        assert qfi_module.fock_start(shifted) == 256
        assert qfi_module.fock_start(replace(shifted, probe=ProbeSpec.coherent(-10j))) is None
        est = qfi_converged(cfg, THETA2)
        assert est.method == "exact_nodes" and est.converged
        assert est.value == pytest.approx(qfi_generator(cfg, THETA2).value, rel=1e-12)
        # the derivative is exact: no step is taken or reported
        assert est.step_used is None and "step_history" not in est.diagnostics

    @pytest.mark.parametrize("strategy, m, n, probe, exact", [
        (SWITCH, 1, 30, ProbeSpec.fock(300), 2248200),
        (COHERENT_SUPERPOSITION, 1, 15, ProbeSpec.fock(300), 2248200),
        (SWITCH, 2, 30, ProbeSpec.fock(100), None),
    ], ids=["switch-fock300", "cs-fock300", "switch-m2-fock100"])
    def test_reach_counts_the_probes_momentum_extent(self, strategy, m, n, probe, exact):
        # the branches carry the probe's momentum bulk, centre <P> and
        # half-width sqrt(2n + 1), down by theta1 N (theta1 2N): 36 + 24.5
        # (Fock(300)) and 36 + 14.2 (Fock(100)) pass sqrt(2 * 1024 + 1) =
        # 45.3, though the shift 36 alone does not
        cfg = StrategyConfig(theta1=1.2, theta2=0.1, n_queries=n, m=m, strategy=strategy,
                             probe=probe)
        assert qfi_module.fock_start(cfg) is None
        est = qfi_converged(cfg, THETA2)
        assert est.method == "exact_nodes" and est.converged
        assert est.value == pytest.approx(qfi_generator(cfg, THETA2).value, rel=1e-12)
        if exact is not None:
            assert est.value == pytest.approx(exact, rel=1e-12)
        with pytest.raises(EnvelopeError, match="covers theta2 only"):
            qfi_converged(cfg, THETA1)

    def test_reach_counts_the_squeezed_momentum_width(self):
        # a squeezed probe's momentum half-width is e^r: 43.2 + e^1 passes
        # 45.3, 43.2 + e^-1 does not
        cfg = StrategyConfig(theta1=0.9, theta2=0.05, n_queries=24, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        assert qfi_module.fock_start(replace(cfg, probe=ProbeSpec.squeezed_vacuum(1.0))) is None
        assert qfi_module.fock_start(replace(cfg, probe=ProbeSpec.squeezed_vacuum(-1.0))) == 128

    def test_seeded_grid_matches_the_generator_route(self):
        """m 1..5, N 1..400, theta1 in [0.05, 2]: every row converges and
        agrees with F_gen to 1e-12.  The node rows take Phi_b from the
        binomial sums of `node_phases`; F_gen takes its generators from the
        bch tables.  Both read the one node table of the probe, as
        amplitudes and as their densities (`probe_on_nodes`)."""
        rng = np.random.default_rng(0)
        for _ in range(60):
            cfg = StrategyConfig(theta1=rng.uniform(0.05, 2.0), theta2=rng.uniform(0.01, 1.0),
                                 n_queries=int(rng.integers(1, 401)), m=int(rng.integers(1, 6)),
                                 strategy=(SWITCH, COHERENT_SUPERPOSITION)[rng.integers(2)],
                                 probe=NODE_PROBES[rng.integers(len(NODE_PROBES))])
            est = qfi_module.qfi_nodes(cfg, THETA2)
            assert est.converged, cfg
            assert est.value == pytest.approx(qfi_generator(cfg, THETA2).value, rel=1e-12), cfg

    def test_tail_dominated_phase_row_matches_the_generator_route(self):
        # Phi_b spans many decades across the grid, where a difference
        # stepped by the outermost nodes' phase loses digits to rounding
        cfg = StrategyConfig(theta1=0.10575, theta2=0.3, n_queries=10, m=5, strategy=SWITCH,
                             probe=ProbeSpec.coherent(-1.1 + 0.7j))
        est = qfi_module.qfi_nodes(cfg, THETA2)
        assert est.converged
        assert est.value == pytest.approx(qfi_generator(cfg, THETA2).value, rel=1e-12)

    def test_node_rows_take_no_difference(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a node row took a finite difference")

        monkeypatch.setattr(qfi_module, "qfi_fd", refuse)
        monkeypatch.setattr(qfi_module, "richardson", refuse)
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=24, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi_converged(cfg, THETA2)
        assert est.method == "exact_nodes" and est.converged

    def test_one_table_is_built_on_m_plus_1_plus_n_nodes(self, monkeypatch):
        # one probe table and one set of phases on it: every table reads its
        # grid from `_rule`; m + 1 base nodes integrate the degree-2m moments
        # of Phi_b exactly
        builds, tables = [], []

        def counted(cfg, q):
            builds.append(q.size)
            return strategies.node_phases(cfg, q)

        def tabled(spec, quadrature, base, rule=cvspace._rule):
            tables.append(base + spec.n)
            return rule(spec, quadrature, base)

        monkeypatch.setattr(qfi_module, "node_phases", counted)
        monkeypatch.setattr(cvspace, "_rule", tabled)
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=24, m=3,
                             strategy=COHERENT_SUPERPOSITION, probe=ProbeSpec.fock(5))
        est = qfi_module.qfi_nodes(cfg, THETA2)
        assert builds == tables == [3 + 1 + 5]
        assert est.converged and est.diagnostics == {"dim_used": 9}

    def test_single_grid_matches_a_centred_64_base_grid(self):
        """The G-vs-2G comparison the route no longer makes on every row:
        the m + 1 (+ n) node grid against the variance of the centred
        phases on a 64 (+ n) node grid, which is exact as well, on seeded
        rows up to m = 8, N = 400 and a coherent probe centred at 1.4e6."""
        probes = [ProbeSpec.vacuum(), ProbeSpec.fock(3), ProbeSpec.fock(300),
                  ProbeSpec.coherent(-1.1 + 0.7j), ProbeSpec.coherent(1e3 - 2e3j),
                  ProbeSpec.coherent(1e6 + 1e6j), ProbeSpec.squeezed_vacuum(0.8),
                  ProbeSpec.squeezed_vacuum(-0.8)]
        rng = np.random.default_rng(23)
        for _ in range(200):
            cfg = StrategyConfig(theta1=rng.uniform(0.05, 2.0), theta2=rng.uniform(0.01, 1.0),
                                 n_queries=int(rng.integers(1, 401)), m=int(rng.integers(1, 9)),
                                 strategy=(SWITCH, COHERENT_SUPERPOSITION)[rng.integers(2)],
                                 probe=probes[rng.integers(len(probes))])
            q, phi, _ = cvspace.probe_amplitudes(cfg.probe, 64, 0.0)
            phases = np.concatenate(strategies.node_phases(cfg, q))
            density = np.abs(np.concatenate([phi, phi])) ** 2 / 2
            fine = 4 * density @ (phases - density @ phases) ** 2
            est = qfi_module.qfi_nodes(cfg, THETA2)
            assert est.converged, cfg
            assert est.value == pytest.approx(fine, rel=1e-11), cfg

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    def test_fock_rows_match_exact_rationals(self, m, strategy, exact_theta2_qfi):
        """Vacuum and Fock(n <= 8) theta2 rows against the exact-rational
        oracle, at N = 1, 24, 200 and 400: within 1e-12, for the node route
        and for F_gen alike."""
        rng = np.random.default_rng(m)
        probes = [ProbeSpec.vacuum()] + [ProbeSpec.fock(level) for level in range(1, 9)]
        for n in (1, 24, 200, 400):
            for probe in probes:
                cfg = StrategyConfig(theta1=float(rng.uniform(0.05, 2.0)), theta2=0.05,
                                     n_queries=n, m=m, strategy=strategy, probe=probe)
                exact = float(exact_theta2_qfi(cfg))
                assert qfi_module.qfi_nodes(cfg, THETA2).value == pytest.approx(
                    exact, rel=1e-12), cfg
                assert qfi_generator(cfg, THETA2).value == pytest.approx(exact, rel=1e-12), cfg

    def test_uncovered_rows_fail_before_any_build(self, monkeypatch):
        builds = []
        monkeypatch.setattr(qfi_module, "probe_amplitudes", lambda *a: builds.append(a))
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=24, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        with pytest.raises(EnvelopeError, match="covers theta2 only"):
            qfi_converged(cfg, THETA1)
        assert builds == []


INVARIANCE_PROBES = [ProbeSpec.vacuum(), ProbeSpec.fock(1), ProbeSpec.fock(5),
                     ProbeSpec.fock(8), ProbeSpec.coherent(-1.1 + 0.7j)]


class TestExactTheta1:
    """ROADMAP item 8's theta1 rationals (`exact_theta1_qfi`) against the
    exact Fock route, on the vacuum and Fock(n) probes whose moments are
    exact.  At m = 3 the theta1 rows exit 3 in the dense P^3 (ROADMAP item
    3), so the grid stops at m = 2."""

    def test_vacuum_anchors_are_the_closed_forms(self, exact_theta1_qfi):
        # vacuum, N = 4, theta = 0.1: the switch gives 2N^2 + 4 theta2^2 N^4
        # at m = 2; the coherent superposition, with T = 2N, gives
        # 2T^2 + 2 theta2^2 T^4 + (4/9) theta1^2 theta2^2 T^6
        theta = Fraction(0.1)
        switch = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=2, strategy=SWITCH)
        cs = replace(switch, strategy=COHERENT_SUPERPOSITION)
        assert exact_theta1_qfi(switch) == 2 * 4 ** 2 + 4 * theta ** 2 * 4 ** 4
        assert exact_theta1_qfi(cs) == (2 * 8 ** 2 + 2 * theta ** 2 * 8 ** 4
                                        + Fraction(4, 9) * theta ** 4 * 8 ** 6)
        assert float(exact_theta1_qfi(switch)) == pytest.approx(42.24, rel=1e-15)
        assert float(exact_theta1_qfi(cs)) == pytest.approx(221.5708444444444, rel=1e-15)
        for cfg in (switch, cs):
            est = qfi_converged(cfg, THETA1)
            assert est.method == "exact_fock" and est.converged
            assert est.value == pytest.approx(float(exact_theta1_qfi(cfg)), rel=1e-12)

    def test_linear_rationals_are_the_generator_route(self, exact_theta1_qfi):
        # at m = 1 F_gen covers theta1 from its own probe-frame generators
        for cfg in invariance_grid(12, 20, m_top=1, n_top=40):
            if cfg.probe.kind in ("vacuum", "fock"):
                assert qfi_generator(cfg, THETA1).value == pytest.approx(
                    float(exact_theta1_qfi(cfg)), rel=1e-12), cfg

    def test_fock_route_matches_the_rationals(self, exact_theta1_qfi):
        probes = [ProbeSpec.vacuum(), ProbeSpec.fock(1), ProbeSpec.fock(3)]
        rng = np.random.default_rng(8)
        for _ in range(40):
            cfg = StrategyConfig(theta1=float(rng.uniform(0.01, 0.1)),
                                 theta2=float(rng.uniform(0.01, 0.1)),
                                 n_queries=int(rng.integers(1, 9)), m=int(rng.integers(1, 3)),
                                 strategy=(SWITCH, COHERENT_SUPERPOSITION)[rng.integers(2)],
                                 probe=probes[rng.integers(len(probes))])
            est = qfi_converged(cfg, THETA1)
            assert est.method == "exact_fock" and est.converged, cfg
            assert est.value == pytest.approx(float(exact_theta1_qfi(cfg)), rel=1e-12), cfg


def invariance_grid(seed: int, rows: int, strategies_=(SWITCH, COHERENT_SUPERPOSITION),
                    m_top: int = 5, n_top: int = 400, theta_top: float = 2.0):
    """Seeded rows whose probes all admit the rational theta2 oracle; the
    Fock route takes the rows with small m, N and thetas."""
    rng = np.random.default_rng(seed)
    return [StrategyConfig(theta1=float(rng.uniform(0.05, theta_top)),
                           theta2=float(rng.uniform(0.01, min(theta_top, 1.0))),
                           n_queries=int(rng.integers(1, n_top + 1)),
                           m=int(rng.integers(1, m_top + 1)),
                           strategy=strategies_[rng.integers(len(strategies_))],
                           probe=INVARIANCE_PROBES[rng.integers(len(INVARIANCE_PROBES))])
            for _ in range(rows)]


class TestInvariances:
    """ROADMAP item 8's invariances, each checked on the rational oracle
    first, then on the momentum-node route over a seeded grid, and on the
    Fock route where a basis holds the row."""

    def test_theta2_information_does_not_depend_on_theta2(self, exact_theta2_qfi):
        """Branch b is the probe times e^{-i theta2 Phi_b(P)}, Phi_b free of
        theta2 (`node_phases`), so d psi_b / d theta2 = -i Phi_b psi_b and
        |psi_b|^2 is the probe's density at every theta2: F = 4 Var Phi over
        the even mixture of the branches does not depend on theta2.  The
        rational oracle reads theta1, N, m and the probe's moments only; the
        node route agrees with it at theta2, 0, -theta2 and 1e6 theta2.  On
        the Fock route the same statement tests truncation: a converged row
        whose F moves with theta2 has not converged."""
        for cfg in invariance_grid(8, 40):
            exact = float(exact_theta2_qfi(cfg))
            for theta2 in (cfg.theta2, 0.0, -cfg.theta2, 1e6 * cfg.theta2):
                value = qfi_module.qfi_nodes(replace(cfg, theta2=theta2), THETA2).value
                assert value == pytest.approx(exact, rel=1e-12), (cfg, theta2)
        for cfg in invariance_grid(9, 6, m_top=2, n_top=6, theta_top=0.1):
            exact = float(exact_theta2_qfi(cfg))
            for theta2 in (cfg.theta2, -2 * cfg.theta2):
                est = qfi_converged(replace(cfg, theta2=theta2), THETA2)
                assert est.method == "exact_fock" and est.converged, cfg
                assert est.value == pytest.approx(exact, rel=1e-10), (cfg, theta2)

    def test_theta2_sign_leaves_the_coherent_superposition_unchanged(self, exact_theta2_qfi):
        """theta2 -> -theta2 turns H+- = theta1 X +- theta2 P^m into H-+, so
        the state (|0> U+^{2N} phi + |1> U-^{2N} phi)/sqrt(2) becomes
        (sigma_x (x) I) psi(theta2): a unitary on the control alone, free of
        both parameters.  Then d psi / d theta1 at -theta2 is sigma_x times
        that at theta2, and d psi / d theta2 at -theta2 is -sigma_x times
        it; F, quadratic in the derivative and unitarily invariant, is
        unchanged for both parameters.  The node route meets the rational
        theta2 value at both signs; on the Fock route the two states are
        each other's branch swap and F_theta1, F_theta2 agree."""
        cs = (COHERENT_SUPERPOSITION,)
        for cfg in invariance_grid(10, 30, strategies_=cs):
            exact = float(exact_theta2_qfi(cfg))
            for theta2 in (cfg.theta2, -cfg.theta2):
                value = qfi_module.qfi_nodes(replace(cfg, theta2=theta2), THETA2).value
                assert value == pytest.approx(exact, rel=1e-12), (cfg, theta2)
        for cfg in invariance_grid(11, 6, strategies_=cs, m_top=2, n_top=6, theta_top=0.1):
            flipped = replace(cfg, theta2=-cfg.theta2)
            state, mirror = cs_output(cfg, 128), cs_output(flipped, 128)
            assert np.abs(state.branch(0) - mirror.branch(1)).max() <= 1e-12, cfg
            assert np.abs(state.branch(1) - mirror.branch(0)).max() <= 1e-12, cfg
            for which in (THETA1, THETA2):
                est, flip = qfi_converged(cfg, which), qfi_converged(flipped, which)
                assert est.converged and flip.converged, (cfg, which)
                assert flip.value == pytest.approx(est.value, rel=1e-10), (cfg, which)
            assert est.value == pytest.approx(float(exact_theta2_qfi(cfg)), rel=1e-10), cfg

    def test_a_global_phase_leaves_the_information_unchanged(self, monkeypatch,
                                                             exact_theta2_qfi):
        """A phase e^{i gamma(theta)} on the whole state adds i gamma' psi to
        d psi; with <psi|d psi> = i a (the norm is constant),
        <d psi|d psi> gains 2 a gamma' + gamma'^2 and |<psi|d psi>|^2 =
        (a + gamma')^2 gains the same, so F = 4 (<d psi|d psi> -
        |<psi|d psi>|^2) is unchanged.  On the nodes a constant c added to
        both Phi_b is the phase e^{-i theta2 c}: the rational oracle is
        unchanged exactly, and so is the node route's F up to the rounding
        of Phi_b + c, with c ten times the largest |Phi_b| on the grid."""
        rng = np.random.default_rng(12)
        phases_of = strategies.node_phases
        for cfg in invariance_grid(12, 30):
            q, _, _ = cvspace.probe_amplitudes(cfg.probe, cfg.m + 1, 0.0)
            shift = float(rng.choice([-10.0, 10.0])) * max(
                np.abs(phase).max() for phase in phases_of(cfg, q))
            exact = exact_theta2_qfi(cfg)  # a Fraction, or 80-digit Decimals for a coherent probe
            moved = float(abs(exact_theta2_qfi(cfg, shift) - exact) / exact)
            assert moved <= (0.0 if isinstance(exact, Fraction) else 1e-60), cfg
            monkeypatch.setattr(qfi_module, "node_phases",
                                lambda c, q: tuple(p + shift for p in phases_of(c, q)))
            value = qfi_module.qfi_nodes(cfg, THETA2).value
            assert value == pytest.approx(float(exact), rel=1e-12), (cfg, shift)


class TestAsymptotics:
    def test_switch_linear_example(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1, strategy=SWITCH)
        assert asymptotic_qfi(cfg, THETA1).value == pytest.approx(34.56, rel=1e-12)

    def test_cs_cubic_example(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.05, n_queries=6, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        expected = 2 ** 10 * 0.1 ** 6 * 6 ** 8 / 16
        assert asymptotic_qfi(cfg, THETA2).value == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(107.4954, rel=1e-4)

    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    def test_generator_approaches_asymptote(self, strategy):
        cfg = StrategyConfig(theta1=0.75, theta2=0.05, n_queries=24, m=2,
                             strategy=strategy)
        assert large_n_gate(cfg)
        exact = qfi_generator(cfg, THETA2).value
        asym = asymptotic_qfi(cfg, THETA2).value
        assert exact / asym == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("strategy", [SWITCH, COHERENT_SUPERPOSITION])
    @pytest.mark.parametrize("m,which", [(1, THETA1), (1, THETA2), (2, THETA2), (5, THETA2)])
    @pytest.mark.parametrize("theta,n", [(1e-50, 10 ** 60), (1e-78, 10 ** 80), (0.1, 4)])
    def test_asymptote_matches_exact_fractions(self, theta, n, m, which, strategy):
        # N^(2(m+1)) or N^4 passes the float range on the way, F does not
        cfg = StrategyConfig(theta1=theta, theta2=theta, n_queries=n, m=m, strategy=strategy)
        t, var = Fraction(theta), Fraction(1, 2)  # vacuum: Var X = Var P = 1/2
        if m == 1:
            lead, low = (t ** 2 * n ** 4, 4 * n ** 2 * var)
            exact = lead + low if strategy == SWITCH else 16 * (lead + low / 4)
        elif strategy == SWITCH:
            exact = t ** (2 * m) * n ** (2 * (m + 1))
        else:
            exact = Fraction(2 ** (2 * (m + 2)), (m + 1) ** 2) * t ** (2 * m) * n ** (2 * (m + 1))
        assert asymptotic_qfi(cfg, which).value == pytest.approx(float(exact), rel=1e-12)

    def test_nonlinear_theta1_asymptote_unsupported(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=2, strategy=SWITCH)
        with pytest.raises(UnsupportedConfigurationError):
            asymptotic_qfi(cfg, THETA1)


class TestPrecision:
    def test_simple_crb(self):
        res = crb_precision(QfiEstimate(100.0, "asymptotic"), nu=1)
        assert res.delta_theta == pytest.approx(0.1, abs=1e-15)

    def test_switch_leading_order_precision(self):
        # F ~ theta2^2 N^4 alone gives delta theta1 = 1/(sqrt(nu) theta2 N^2)
        n, theta2, nu = 6, 0.2, 9
        res = crb_precision(QfiEstimate(theta2 ** 2 * n ** 4, "asymptotic"), nu=nu)
        assert res.delta_theta == pytest.approx(1 / (math.sqrt(nu) * theta2 * n ** 2),
                                                rel=1e-12)

    def test_cs_leading_order_precision(self):
        n, theta1 = 5, 0.3
        res = crb_precision(QfiEstimate(16 * n ** 4 * theta1 ** 2, "asymptotic"))
        assert res.delta_theta == pytest.approx(1 / (4 * theta1 * n ** 2), rel=1e-12)

    def test_nonpositive_information_rejected(self):
        with pytest.raises(UnidentifiableParameterError):
            crb_precision(QfiEstimate(0.0, "finite_difference"))


class TestRatios:
    def test_formula_values(self):
        assert ratio_formula(1) == pytest.approx(0.25)
        assert ratio_formula(2) == pytest.approx(3 / 16)
        assert ratio_formula(3) == pytest.approx(1 / 8)

    def test_formula_strictly_decreasing(self):
        values = [ratio_formula(m) for m in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_linear_ratio_measured(self):
        measured, = precision_ratio(1, 0.75, [24])
        assert measured == pytest.approx(0.25, rel=0.02)

    def test_gate_enforced(self):
        assert precision_ratio(1, 0.05, [4]) == [None]
        with pytest.raises(ContractViolationError):  # refused, not skipped
            precision_ratio(1, 0.05, [4, 0])

    def test_gate_predicate(self):
        hot = StrategyConfig(theta1=1.0, theta2=0.05, n_queries=12, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        cold = replace(hot, n_queries=4)
        assert large_n_gate(hot)
        assert not large_n_gate(cold)


GRID_PROBES = [ProbeSpec.vacuum(), ProbeSpec.coherent(-1.1 + 0.7j),
               ProbeSpec.squeezed_vacuum(0.3), ProbeSpec.fock(40)]


def gated_grid(rng, cfg):
    """Seeded N in 1..400, sorted: up to six below the large-N gate of cfg,
    six at or above it."""
    gate = next(n for n in range(1, 401) if large_n_gate(replace(cfg, n_queries=n)))
    assert gate > 1, cfg
    below = rng.choice(np.arange(1, gate), size=min(6, gate - 1), replace=False)
    above = rng.choice(np.arange(gate, 401), size=6, replace=False)
    return sorted(int(n) for n in np.concatenate([below, above]))


def one_point_route(cfg, which):
    """F of the generator route at N = cfg.n_queries taken one point at a
    time: Horner with each Python-float coefficient on the 1-D node table,
    each moment the 1-D dot w @ g."""
    tables = []
    for coeffs, symbol, sigma in qfi_module._branch_generators(cfg, which, cfg.n_queries):
        q, w = cvspace.probe_on_nodes(cfg.probe, symbol, 2 * (len(coeffs) - 1))
        g = np.zeros_like(q)
        for c in reversed(coeffs):
            g = g * q + c
        tables.append((w, g, sigma, float(w @ g)))
    mu = sum(s * mean for _, _, s, mean in tables) / len(tables)
    return 4.0 * sum(float(w @ (g - s * mu) ** 2) for w, g, s, _ in tables) / len(tables)


class TestGeneratorGrid:
    """One `qfi_generator_grid` call per N grid: each N's estimate is bitwise
    the one `qfi_generator` gives it alone and the one-point form of
    `one_point_route`, and the rows agree with the exact rationals of
    `exact_theta2_qfi` / `exact_theta1_qfi` where the probe has them (not for
    the squeezed probe, nor for theta1 on a coherent one)."""

    @pytest.mark.parametrize("probe", GRID_PROBES, ids=lambda p: p.kind)
    def test_each_n_is_its_value_alone(self, probe, exact_theta2_qfi, exact_theta1_qfi):
        rng = np.random.default_rng(28)
        for m in range(1, 6):
            for strategy in (SWITCH, COHERENT_SUPERPOSITION):
                for which in (THETA2, THETA1) if m == 1 else (THETA2,):
                    cfg = StrategyConfig(theta1=float(rng.uniform(0.3, 2.0)),
                                         theta2=float(rng.uniform(0.01, 0.1)), n_queries=1,
                                         m=m, strategy=strategy, probe=probe)
                    ns = gated_grid(rng, cfg)
                    oracle = {THETA2: exact_theta2_qfi, THETA1: exact_theta1_qfi}[which]
                    rel = 1e-10 if probe.kind == "coherent" else 1e-12
                    for n, est in zip(ns, qfi_generator_grid(cfg, which, ns)):
                        alone = qfi_generator(replace(cfg, n_queries=n), which)
                        assert est == alone and est.value.hex() == alone.value.hex(), (cfg, n)
                        lone = one_point_route(replace(cfg, n_queries=n), which)
                        assert est.value.hex() == lone.hex(), (cfg, n)
                        if probe.kind == "squeezed_vacuum" or (
                                which == THETA1 and probe.kind == "coherent"):
                            continue
                        exact = float(oracle(replace(cfg, n_queries=n)))
                        assert est.value == pytest.approx(exact, rel=rel), (cfg, n)

    @pytest.mark.parametrize("probe", GRID_PROBES, ids=lambda p: p.kind)
    def test_ratio_grid_is_its_points_and_skips_below_the_gate(self, probe):
        rng = np.random.default_rng(29)
        for m in range(1, 6):
            theta1 = float(rng.uniform(0.3, 2.0))
            cfg = StrategyConfig(theta1=theta1, theta2=0.05, n_queries=1, m=m, probe=probe)
            ns = gated_grid(rng, cfg)
            ratios = precision_ratio(m, theta1, ns, probe)
            assert [r is None for r in ratios] == [
                not large_n_gate(replace(cfg, n_queries=n)) for n in ns]
            assert ratios == [precision_ratio(m, theta1, [n], probe)[0] for n in ns]

    def test_empty_grid_evaluates_nothing(self):
        # not even the gate: Fock(600)'s <P> needs 601 nodes, past NODE_CAP
        cfg = StrategyConfig(theta1=0.75, theta2=0.05, n_queries=1, m=2)
        assert qfi_generator_grid(cfg, THETA2, []) == []
        assert precision_ratio(2, 0.75, [], ProbeSpec.fock(600)) == []
        with pytest.raises(EnvelopeError, match="601 Gauss-Hermite nodes"):
            precision_ratio(2, 0.75, [4], ProbeSpec.fock(600))

    def test_ratio_error_path_is_the_point_by_point_grid(self, monkeypatch):
        # an EnvelopeError from either grid call re-runs the grid point by
        # point, cs then switch at each N, which names the first failing N
        expected = precision_ratio(3, 0.75, [4, 14, 24, 30])

        def refused(*args):
            raise EnvelopeError("grid refused")
        monkeypatch.setattr(qfi_module, "qfi_generator_grid", refused)
        assert precision_ratio(3, 0.75, [4, 14, 24, 30]) == expected

    def test_overflow_names_the_first_overflowing_n_in_grid_order(self):
        cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=1, m=5)
        with pytest.raises(EnvelopeError, match=r"m=5, N=1e\+80$"):
            qfi_generator_grid(cfg, THETA2, [4, 10 ** 80, 10 ** 60, 24])
        with pytest.raises(EnvelopeError, match=r"m=5, N=1e\+60$"):
            precision_ratio(5, 1.2, [4, 24, 10 ** 60, 10 ** 80])


class TestProperties:
    def test_gauge_invariance_under_global_phase(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=3, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        dim = FockDim(64)
        builder = lambda t: cs_output(replace(cfg, theta2=t), dim)
        phase = np.exp(1.234j)

        def phased(t):
            state = builder(t)
            return phase * state.amplitudes

        plain = qfi_fd(builder, cfg.theta2).value
        rotated = qfi_fd(phased, cfg.theta2).value
        assert abs(plain - rotated) <= 1e-10 * max(1.0, plain)

    def test_flat_builder_gives_exact_zero(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=3, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        frozen = cs_output(cfg, FockDim(64))
        est = qfi_fd(lambda t: frozen, cfg.theta2)
        assert est.value == 0.0

    def test_qfi_nonnegative_across_methods(self):
        cfg = StrategyConfig(theta1=0.05, theta2=0.08, n_queries=2, m=2,
                             strategy=SWITCH)
        assert qfi_converged(cfg, THETA2).value >= 0.0
        assert qfi_generator(cfg, THETA2).value >= 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_monotone_scaling_slope(self, m):
        from cvmet.applications import fit_scaling

        points = []
        for n in (14, 18, 22, 26):
            cfg = StrategyConfig(theta1=1.2, theta2=0.05, n_queries=n, m=m,
                                 strategy=COHERENT_SUPERPOSITION)
            points.append((n, qfi_generator(cfg, THETA2).value))
        fit = fit_scaling(points)
        assert fit.slope == pytest.approx(2 * (m + 1), abs=0.05)
