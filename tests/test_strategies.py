import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cvmet import qfi, strategies
from cvmet.cvspace import (
    FockDim,
    Operator,
    ProbeSpec,
    build_quadrature,
    operator_power,
    prepare_probe,
    propagator,
    spectrum,
)
from cvmet.errors import ContractViolationError
from cvmet.strategies import (
    COHERENT_SUPERPOSITION,
    COMPOSITE,
    SWITCH,
    THETA1,
    THETA2,
    CompositeParams,
    QState,
    StrategyConfig,
    band_diagonals,
    composite_output,
    cs_output,
    cs_output_factorized,
    output_derivative,
    switch_output,
    switch_output_factorized,
)

DIM = FockDim(128)


def balanced_control_vacuum(dim):
    phi = prepare_probe(ProbeSpec.vacuum(), dim).vec
    return QState.from_branches([phi, phi], dim)


class TestSwitchOutput:
    def test_identity_channels(self):
        cfg = StrategyConfig(theta1=0.0, theta2=0.0, n_queries=3, strategy=SWITCH)
        state = switch_output(cfg, DIM)
        assert state.fidelity(balanced_control_vacuum(DIM)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_closed_form_fidelity(self):
        cfg = StrategyConfig(theta1=0.05, theta2=0.05, n_queries=4, m=1, strategy=SWITCH)
        generic = switch_output(cfg, DIM)
        closed = switch_output_factorized(cfg, DIM)
        assert generic.fidelity(closed) >= 1 - 1e-8

    def test_quadratic_closed_form_fidelity(self):
        cfg = StrategyConfig(theta1=0.05, theta2=0.02, n_queries=3, m=2, strategy=SWITCH)
        generic = switch_output(cfg, DIM)
        closed = switch_output_factorized(cfg, DIM)
        assert generic.fidelity(closed) >= 1 - 1e-7

    @pytest.mark.parametrize("m", [1, 2])
    def test_closed_form_grid(self, m):
        for theta1 in (0.02, 0.1):
            for theta2 in (0.02, 0.1):
                cfg = StrategyConfig(theta1=theta1, theta2=theta2, n_queries=6, m=m,
                                     strategy=SWITCH)
                fid = switch_output(cfg, DIM).fidelity(switch_output_factorized(cfg, DIM))
                assert fid >= 1 - 1e-7, (m, theta1, theta2, fid)

    def test_measured_relative_phase_matches_algebra(self):
        cfg = StrategyConfig(theta1=0.05, theta2=0.05, n_queries=4, m=1, strategy=SWITCH)
        state = switch_output(cfg, DIM)
        measured = np.angle(np.vdot(state.branch(1), state.branch(0)))
        assert measured == pytest.approx(-cfg.n_queries ** 2 * cfg.theta1 * cfg.theta2,
                                         abs=1e-10)

    def test_query_accounting(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=5, strategy=SWITCH)
        assert cfg.query_accounting() == {"u1_queries": 5, "u2_queries": 5,
                                          "total_queries": 10}


class TestNodePhases:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_switch_phases_are_the_query_by_query_sum(self, m, n):
        # reference: N queries of each gate applied one at a time, U1 moving
        # the grid down by theta1, U2 adding p^m at the current grid
        cfg = StrategyConfig(theta1=0.13, theta2=0.05, n_queries=n, m=m, strategy=SWITCH)
        q = np.linspace(-6.0, 6.0, 49)
        reference = []
        for gates in ("2" * n + "1" * n, "1" * n + "2" * n):  # U1^N U2^N, U2^N U1^N
            grid, phase = q, np.zeros_like(q)
            for gate in gates:
                if gate == "1":
                    grid = grid - cfg.theta1
                else:
                    phase = phase + grid ** m
            reference.append(phase)
        for phase, ref in zip(strategies.node_phases(cfg, q), reference):
            assert np.abs(phase - ref).max() <= 1e-12 * np.abs(ref).max()


class TestCsOutput:
    def test_coinciding_channels_leave_control_pure(self):
        cfg = StrategyConfig(theta1=0.2, theta2=0.0, n_queries=4,
                             strategy=COHERENT_SUPERPOSITION)
        state = cs_output(cfg, DIM)
        assert np.abs(state.branch(0) - state.branch(1)).max() < 1e-12
        assert state.control_purity() == pytest.approx(1.0, abs=1e-12)

    def test_branch_norms(self):
        cfg = StrategyConfig(theta1=0.07, theta2=0.05, n_queries=4,
                             strategy=COHERENT_SUPERPOSITION)
        state = cs_output(cfg, DIM)
        for b in (0, 1):
            assert state.branch_norm(b) == pytest.approx(1 / math.sqrt(2), abs=1e-10)

    def test_factorized_closed_form_fidelity(self):
        cfg = StrategyConfig(theta1=0.05, theta2=0.05, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        assert cs_output(cfg, DIM).fidelity(cs_output_factorized(cfg, DIM)) >= 1 - 1e-8

    def test_factorized_phase_operators_reuse_the_p_spectrum(self, monkeypatch,
                                                             cold_spectra):
        # one build at (m, d) decomposes X and P; new couplings need no
        # eigendecomposition, since the phase operators are polynomials in P,
        # diagonal in its spectrum, and neither does another m, whose P^m is
        # P's spectrum reweighted
        d = FockDim(40)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        cfg = StrategyConfig(theta1=0.05, theta2=0.04, n_queries=3, m=3,
                             strategy=COHERENT_SUPERPOSITION)
        cs_output_factorized(cfg, d)
        switch_output_factorized(cfg, d)
        assert calls == [(40, 40)] * 2
        calls.clear()
        moved = StrategyConfig(theta1=0.07, theta2=0.03, n_queries=4, m=3,
                               strategy=COHERENT_SUPERPOSITION)
        cs_output_factorized(moved, d)
        switch_output_factorized(moved, d)
        assert calls == []
        cs_output_factorized(replace(moved, m=2), d)
        switch_output_factorized(replace(moved, m=2), d)
        assert calls == []

    @pytest.mark.parametrize("variant", ["switch_branch", "cs_branch"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_phase_operator_matches_the_table_exponential(self, m, variant):
        # reference: the table's terms substituted into the P matrix and
        # exponentiated, e^{sum_n (-span i)^n theta1^{n-1} theta2 [n] C_n(P)}
        from cvmet.bch import ExpansionTable, exp_antihermitian
        from cvmet.strategies import _phase_spectrum

        cfg = StrategyConfig(theta1=0.08, theta2=0.06, n_queries=5, m=m)
        switch = variant == "switch_branch"
        lam = -1j * cfg.n_queries * (1 if switch else 2)
        p_mat = build_quadrature(DIM, "P").mat
        exponent = sum((lam ** n) * cfg.theta1 ** (n - 1) * cfg.theta2 * (n if switch else 1)
                       * term.to_matrix(p_mat)
                       for n, term in ExpansionTable.build(m, "AB").terms)
        phi = prepare_probe(ProbeSpec.coherent(0.4 - 0.3j), DIM).vec
        reference = exp_antihermitian(exponent, DIM) @ phi
        spectral = propagator(_phase_spectrum(cfg, DIM, variant), cfg.theta2) @ phi
        assert np.abs(spectral - reference).max() < 1e-12

    def test_semigroup_in_query_count(self):
        # theta2 = 0: one generator, so doubling N equals applying the branch
        # unitary of the half count twice
        cfg_half = StrategyConfig(theta1=0.1, theta2=0.0, n_queries=1,
                                  strategy=COHERENT_SUPERPOSITION)
        cfg_full = StrategyConfig(theta1=0.1, theta2=0.0, n_queries=2,
                                  strategy=COHERENT_SUPERPOSITION)
        half = cs_output(cfg_half, DIM)
        x = build_quadrature(DIM, "X")
        gen = Operator(DIM, cfg_half.theta1 * x.mat, hermitian=True)
        u = propagator(spectrum(gen), 2 * cfg_half.n_queries)
        twice = QState.from_branches(
            [u.mat @ (half.branch(0) * math.sqrt(2)),
             u.mat @ (half.branch(1) * math.sqrt(2))], DIM)
        assert twice.fidelity(cs_output(cfg_full, DIM)) >= 1 - 1e-12

    def test_opposite_momentum_displacements(self):
        cfg = StrategyConfig(theta1=0.0, theta2=0.03, n_queries=5, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        state = cs_output(cfg, DIM)
        x = build_quadrature(DIM, "X").mat
        b0 = state.branch(0) * math.sqrt(2)
        b1 = state.branch(1) * math.sqrt(2)
        mean0 = np.vdot(b0, x @ b0).real
        mean1 = np.vdot(b1, x @ b1).real
        assert mean0 - mean1 == pytest.approx(4 * cfg.n_queries * cfg.theta2, abs=1e-7)

    def test_query_accounting(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.1, n_queries=5,
                             strategy=COHERENT_SUPERPOSITION)
        assert cfg.query_accounting() == {"u_plus_minus_queries": 10,
                                          "total_queries": 10}


class TestGeneratorBands:
    @pytest.mark.parametrize("m, a, b", [(0, 0.0, 0.7), (1, 0.0, -0.3), (3, 0.0, 0.2),
                                         (2, -0.4, 0.0), (1, 0.3, -0.05), (1, -1.0, 1.0),
                                         (2, 1.0, 1.0), (3, 0.3, 0.05)])
    def test_generator_spectrum_is_the_dense_sum(self, m, a, b, cold_spectra):
        # every rule of `generator_spectrum` gives a X + b P^m, on P's basis
        # at a = 0, on X's at b = 0 or m = 1, on a basis of its own otherwise
        dim = FockDim(32)
        p = build_quadrature(dim, "P")
        dense = (a * build_quadrature(dim, "X").mat
                 + b * (operator_power(p, m).mat if m else np.eye(dim.d)))
        spec = strategies.generator_spectrum(m, dim, a, b)
        frame = np.ones(dim.d) if spec.frame is None else spec.frame
        rebuilt = frame.conj()[:, None] * ((spec.v * spec.w) @ spec.v.conj().T) * frame
        assert np.abs(rebuilt - dense).max() <= 1e-12 * max(1.0, np.linalg.norm(dense, 2))
        x_basis = strategies.generator_spectrum(1, dim, 1.0, 0.0).v
        p_basis = strategies.generator_spectrum(1, dim, 0.0, 1.0).v
        if a == 0:
            assert spec.v is p_basis
        elif b == 0 or m == 1:
            assert spec.v is x_basis
        else:
            assert spec.v is not x_basis and spec.v is not p_basis

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d", [64, 256])
    @pytest.mark.parametrize("m", [2, 3])
    def test_cs_generator_is_the_dense_sum(self, m, d, sign, monkeypatch, cold_spectra):
        # the + branch generator written from the cached bands holds exactly
        # the values of theta1 X + theta2 P^m formed from the dense matrices,
        # at either sign of theta2; it is captured where it is decomposed, and
        # it is the only one (TestBranchSymmetry covers the - branch)
        generators = []
        monkeypatch.setattr(strategies, "spectrum",
                            lambda gen: generators.append(gen) or spectrum(gen))
        cfg = StrategyConfig(theta1=0.3, theta2=sign * 0.05, n_queries=4, m=m,
                             strategy=COHERENT_SUPERPOSITION)
        cs_output(cfg, d)
        assert len(generators) == 1
        x = build_quadrature(d, "X")
        pm = operator_power(build_quadrature(d, "P"), m)
        gen = generators[0]
        assert gen.hermitian
        assert np.array_equal(gen.mat, cfg.theta1 * x.mat + cfg.theta2 * pm.mat)

    @pytest.mark.parametrize("thetas", [(0.3, 0.05), (0.0, 0.2), (0.1, 0.0), (-0.4, 0.1),
                                        (-0.2, -0.3), (0.0, 0.0)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d", [16, 256])
    def test_linear_branch_spectrum_is_on_the_cached_x_or_p_basis(self, d, sign, thetas):
        # theta1 X + theta2 P = r R^dag X R with R = diag(e^{-i n phi}): the
        # m = 1 branch spectrum is the cached X spectrum, reweighted by r, in
        # the frame R, no eigh; at theta1 = 0 it is P's, reweighted by theta2
        dim = FockDim(d)
        cfg = StrategyConfig(theta1=thetas[0], theta2=sign * thetas[1], n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION,
                             probe=ProbeSpec.coherent(0.5 - 0.3j))
        spec = strategies.generator_spectrum(1, dim, cfg.theta1, cfg.theta2)
        basis = strategies._quadrature_spectrum("X" if cfg.theta1 else "P", dim)
        assert spec.v is basis.v
        dense = (cfg.theta1 * build_quadrature(dim, "X").mat
                 + cfg.theta2 * build_quadrature(dim, "P").mat)
        frame = np.ones(d) if spec.frame is None else spec.frame
        rebuilt = frame.conj()[:, None] * ((spec.v * spec.w) @ spec.v.conj().T) * frame
        assert np.abs(rebuilt - dense).max() <= 1e-12 * np.linalg.norm(dense, 2)
        reference = spectrum(strategies._banded(
            dim, ((k, cfg.theta1 * x_k + cfg.theta2 * p_k)
                  for k, x_k, p_k in strategies._generator_bands(1, dim))))
        phi = prepare_probe(cfg.probe, dim).vec
        taus = (8.0, 3.0)
        for tau in taus:
            assert np.abs(propagator(spec, tau) @ phi
                          - propagator(reference, tau) @ phi).max() <= 1e-12
            for which in (THETA1, THETA2):
                gen = strategies._quadrature_bands(1, dim, which)
                got = strategies._exp_derivative(spec, gen, tau, phi)
                want = strategies._exp_derivative(reference, gen, tau, phi)
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_fd_qfi_forms_p_power_once_per_dimension(self, monkeypatch):
        strategies._generator_bands.cache_clear()
        powers = []
        monkeypatch.setattr(strategies, "operator_power",
                            lambda op, m: powers.append((m, op.d)) or operator_power(op, m))
        cfg = StrategyConfig(theta1=0.3, theta2=0.05, n_queries=8, m=2,
                             strategy=COHERENT_SUPERPOSITION)
        est = qfi.qfi_converged(cfg, qfi.THETA2)
        visited = [d for d, _ in est.diagnostics["dim_history"]]
        assert len(visited) >= 2
        assert powers == [(2, d) for d in visited]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_bands_are_real_where_the_generator_is(self, m):
        # X's diagonals are real at every m and P^m's at even m; at odd m the
        # odd diagonals of P^m are imaginary and kept complex, the even ones
        # all zero and real; each equals the diagonal of the dense matrix
        dim = FockDim(32)
        x = build_quadrature(dim, "X").mat
        pm = operator_power(build_quadrature(dim, "P"), m).mat
        bands = strategies._generator_bands(m, dim)
        assert [k for k, _, _ in bands] == list(range(-m, m + 1))
        for k, x_k, pm_k in bands:
            assert x_k.dtype == np.float64
            assert pm_k.dtype == (np.complex128 if m % 2 and k % 2 else np.float64)
            assert np.array_equal(x_k, np.diagonal(x, k))
            assert np.array_equal(pm_k, np.diagonal(pm, k))
            assert not x_k.flags.writeable and not pm_k.flags.writeable

    def test_entry_outside_the_band_is_rejected(self):
        off = np.full(3, 0.5)
        mat = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag(off, 1) + np.diag(off, -1)
        assert len(band_diagonals(Operator(4, mat, hermitian=True), 1)) == 3
        mat[0, 2] = mat[2, 0] = 1e-300
        with pytest.raises(ContractViolationError):
            band_diagonals(Operator(4, mat, hermitian=True), 1)

    def test_bands_are_read_only_copies(self):
        bands = band_diagonals(build_quadrature(8, "X"), 2)
        assert sorted(bands) == [-2, -1, 0, 1, 2]
        assert all(not diag.flags.writeable and diag.flags.owndata for diag in bands.values())


class TestBranchSpectrumCache:
    CFG = StrategyConfig(theta1=0.1, theta2=0.05, n_queries=3, m=2,
                         strategy=COHERENT_SUPERPOSITION)

    @staticmethod
    def count_eigh(monkeypatch) -> Counter:
        counts = Counter()
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: counts.update(["eigh"]) or eigh(a))
        return counts

    def test_a_new_coupling_runs_one_eigh_and_two_propagators(self, monkeypatch,
                                                              cold_spectra):
        # the + generator is the only Operator and the only eigh; each branch
        # takes its propagator on that one spectrum
        cs_output(self.CFG, 32)  # warms the band table of (m, d)
        counts = self.count_eigh(monkeypatch)
        monkeypatch.setattr(strategies, "propagator",
                            lambda gen, tau: counts.update(["propagator"]) or propagator(gen, tau))
        post_init = Operator.__post_init__
        monkeypatch.setattr(Operator, "__post_init__",
                            lambda op: counts.update(["Operator"]) or post_init(op))
        cs_output(replace(self.CFG, theta2=0.06), 32)
        assert counts == {"eigh": 1, "propagator": 2, "Operator": 1}

    def test_rows_that_differ_in_n_probe_or_parameter_share_one_spectrum(
            self, monkeypatch, cold_spectra):
        # N only sets the evolution time; the probe and the parameter never
        # enter the branch generator, and both branches run on its spectrum
        seen = []
        monkeypatch.setattr(strategies, "propagator",
                            lambda spec, tau: seen.append(spec) or propagator(spec, tau))
        counts = self.count_eigh(monkeypatch)
        rows = (self.CFG, replace(self.CFG, n_queries=7),
                replace(self.CFG, probe=ProbeSpec.coherent(0.3 - 0.2j)))
        for row in rows:
            for which in (THETA1, THETA2):
                output_derivative(row, 32, which)
        cs_output(replace(self.CFG, n_queries=1), 32)
        assert counts["eigh"] == 1
        assert len(seen) == 2 * (2 * len(rows) + 1)
        assert all(spec is seen[0] for spec in seen)

    @pytest.mark.parametrize("change, d", [({"m": 3}, 32), ({"theta1": 0.11}, 32),
                                           ({"theta2": 0.06}, 32), ({}, 33)],
                             ids=["m", "theta1", "theta2", "d"])
    def test_rows_that_differ_in_the_generator_do_not(self, change, d, cold_spectra):
        def branch(cfg, d):
            return strategies.generator_spectrum(cfg.m, FockDim(d), cfg.theta1, cfg.theta2)

        held = branch(self.CFG, 32)
        assert branch(replace(self.CFG, **change), d) is not held
        assert branch(self.CFG, 32) is held


SYMMETRY_THETAS = [(0.3, 0.05), (0.0, 0.2), (0.1, 0.0), (-0.4, 0.1), (-0.2, -0.3), (0.0, 0.0)]
SYMMETRY_PROBES = [ProbeSpec.vacuum(), ProbeSpec.fock(3), ProbeSpec.squeezed_vacuum(0.4),
                   ProbeSpec.coherent(0.6 - 0.4j), ProbeSpec.coherent(-1.1 + 0.7j)]
SYMMETRY_PROBE_IDS = ["vacuum", "fock3", "squeezed", "coherent_a", "coherent_b"]


class TestBranchSymmetry:
    """H- = -Pi conj(H+) Pi, Pi = diag((-1)^n), so the - branch of the
    coherent superposition comes from the spectrum of H+ alone."""

    @staticmethod
    def dense(d, m):
        # P^m unflagged: its truncated round-off asymmetry exceeds the
        # absolute Hermiticity check at d = 256, m >= 4 (ROADMAP item 3)
        x = build_quadrature(d, "X").mat
        pm = operator_power(Operator(d, build_quadrature(d, "P").mat), m).mat
        return x, pm

    @pytest.mark.parametrize("thetas", SYMMETRY_THETAS)
    @pytest.mark.parametrize("d", [16, 64, 256])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_minus_generator_is_the_mirrored_plus_generator(self, m, d, thetas):
        x, pm = self.dense(d, m)
        theta1, theta2 = thetas
        parity = (-1.0) ** np.arange(d)
        plus = theta1 * x + theta2 * pm
        minus = theta1 * x - theta2 * pm
        assert np.array_equal(-(parity[:, None] * plus.conj() * parity[None, :]), minus)

    @pytest.mark.parametrize("probe", SYMMETRY_PROBES, ids=SYMMETRY_PROBE_IDS)
    @pytest.mark.parametrize("which", [THETA1, THETA2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_minus_branch_matches_its_own_spectrum(self, m, which, probe):
        # reference: the - generator decomposed in the test, and its state and
        # Daleckii-Krein derivative taken on that spectrum
        dim = FockDim(64)
        x, pm = self.dense(dim.d, m)
        phi = prepare_probe(probe, dim).vec
        for theta1, theta2 in ((0.3, 0.05), (-0.2, 0.1), (0.1, -0.07), (0.0, 0.08)):
            cfg = StrategyConfig(theta1=theta1, theta2=theta2, n_queries=3, m=m,
                                 strategy=COHERENT_SUPERPOSITION, probe=probe)
            tau = 2 * cfg.n_queries
            reference = spectrum(Operator(dim, theta1 * x - theta2 * pm, hermitian=True))
            gen = band_diagonals(Operator(dim, x if which == THETA1 else -pm, hermitian=True), m)
            want_state = propagator(reference, tau) @ phi
            want = strategies._exp_derivative(reference, list(gen.items()), tau, phi)
            state, dpsi = output_derivative(cfg, dim, which)
            got_state = state.branch(1) * math.sqrt(2)
            got = dpsi[dim.d:] * math.sqrt(2)
            assert np.linalg.norm(got_state - want_state) <= 1e-12
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("which", [THETA1, THETA2])
    @pytest.mark.parametrize("m", [1, 3])
    def test_block_derivative_is_the_columnwise_one(self, m, which):
        dim = FockDim(100)  # not a multiple of the row block
        cfg = StrategyConfig(theta1=0.2, theta2=-0.07, n_queries=2, m=m,
                             strategy=COHERENT_SUPERPOSITION)
        spec = strategies.generator_spectrum(m, dim, cfg.theta1, cfg.theta2)
        bands = strategies._quadrature_bands(m, dim, which)
        block = np.column_stack([prepare_probe(probe, dim).vec for probe in SYMMETRY_PROBES])
        together = strategies._exp_derivative(spec, bands, 4.0, block)
        for column, phi in zip(together.T, block.T):
            alone = strategies._exp_derivative(spec, bands, 4.0, phi)
            assert np.abs(column - alone).max() <= 1e-14 * np.abs(alone).max()


class TestCompositeOutput:
    def test_zero_couplings(self):
        params = CompositeParams(g1=0.0, g2=0.0, t=1.0, n_queries=4)
        state = composite_output(params, ProbeSpec.vacuum(), DIM)
        assert state.fidelity(balanced_control_vacuum(DIM)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_cs_under_parameter_mapping(self):
        params = CompositeParams(g1=0.4, g2=0.4, t=1.0, n_queries=4)
        theta1, theta2 = params.thetas()
        assert theta1 == pytest.approx(0.05)
        cfg = StrategyConfig(theta1=theta1, theta2=theta2, n_queries=4, m=1,
                             strategy=COHERENT_SUPERPOSITION)
        fid = composite_output(params, ProbeSpec.vacuum(), DIM).fidelity(
            cs_output(cfg, DIM))
        assert fid >= 1 - 1e-12

    def test_no_sigma_z_coupling_keeps_control_pure(self):
        params = CompositeParams(g1=0.7, g2=0.0, t=1.5, n_queries=3)
        state = composite_output(params, ProbeSpec.vacuum(), DIM)
        assert state.control_purity() == pytest.approx(1.0, abs=1e-12)

    def test_nonlinear_composite_unsupported(self):
        # the composite realization is linear: its config refuses m != 1
        for m in (2, 3):
            with pytest.raises(ContractViolationError):
                StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=m, strategy=COMPOSITE)
        assert StrategyConfig(theta1=0.1, theta2=0.1, n_queries=4, m=1,
                              strategy=COMPOSITE).m == 1


class TestQState:
    def test_norm_enforced(self):
        with pytest.raises(ContractViolationError):
            QState(2, FockDim(4), np.ones(8))

    def test_nan_amplitudes_rejected(self):
        # a NaN norm fails `abs(nrm - 1) > tol` as well as `<= tol`
        with pytest.raises(ContractViolationError):
            QState(2, FockDim(2), [math.nan, 0, 0, 0])

    def test_control_reduced_is_density_matrix(self):
        cfg = StrategyConfig(theta1=0.1, theta2=0.08, n_queries=4,
                             strategy=COHERENT_SUPERPOSITION)
        rho = cs_output(cfg, DIM).control_reduced()
        assert rho.shape == (2, 2)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_bad_strategy_rejected(self):
        with pytest.raises(ContractViolationError):
            StrategyConfig(theta1=0.1, theta2=0.1, n_queries=2, strategy="teleport")

    def test_mode_evolution_acts_blockwise(self):
        # a propagator applied to the control-major blocks as one block of
        # columns, as the factorized switch builder applies it
        cfg = StrategyConfig(theta1=0.1, theta2=0.05, n_queries=3,
                             strategy=COHERENT_SUPERPOSITION)
        state = cs_output(cfg, DIM)
        p = spectrum(build_quadrature(DIM, "P"))
        u = propagator(p, 0.4)
        moved = (u @ state.amplitudes.reshape(state.control_dim, -1).T).T.reshape(-1)
        for b in (0, 1):
            assert np.abs(moved[b * DIM.d:(b + 1) * DIM.d] - u.mat @ state.branch(b)).max() < 1e-12
        assert abs(np.linalg.norm(moved) - 1.0) < 1e-10
