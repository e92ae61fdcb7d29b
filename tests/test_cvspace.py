import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cvmet import cvspace
from cvmet.cvspace import (
    FD_MAX_REDUCTIONS,
    NODE_CAP,
    CvState,
    FockDim,
    Operator,
    ProbeSpec,
    Spectrum,
    build_quadrature,
    converge_dimension,
    operator_power,
    prepare_probe,
    probe_amplitudes,
    probe_on_nodes,
    propagator,
    richardson,
    spectrum,
)
from cvmet.errors import (
    ContractViolationError,
    EnvelopeError,
    InvalidDimensionError,
    TruncationLeakageError,
)

SQ2 = math.sqrt(2)


def moment(state, op, k=1):
    """<state| op^k |state> by repeated matvec in the truncated basis: the
    Fock-route oracle of the node layer (real for the hermitian ops used)."""
    work = state.vec
    for _ in range(k):
        work = op.mat @ work
    return float(np.vdot(state.vec, work).real)


def variance(state, op):
    return moment(state, op, 2) - moment(state, op, 1) ** 2


class TestQuadratures:
    def test_x_matrix_elements(self):
        x = build_quadrature(4, "X")
        assert x.mat[0, 1] == pytest.approx(1 / SQ2, abs=1e-15)
        assert np.abs(np.diag(x.mat)).max() == 0.0
        assert x.hermitian

    def test_p_matrix_elements(self):
        p = build_quadrature(4, "P")
        assert p.mat[1, 0] == pytest.approx(1j / SQ2, abs=1e-15)
        assert p.mat[0, 1] == pytest.approx(-1j / SQ2, abs=1e-15)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_quadrature(1, "X")

    def test_truncated_commutator_d5(self):
        x = build_quadrature(5, "X").mat
        p = build_quadrature(5, "P").mat
        comm = x @ p - p @ x
        expected = 1j * np.diag([1.0, 1.0, 1.0, 1.0, -4.0])
        assert np.abs(comm - expected).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 7, 16, 64])
    def test_truncated_commutator_structure_everywhere(self, d):
        x = build_quadrature(d, "X").mat
        p = build_quadrature(d, "P").mat
        comm = x @ p - p @ x
        expected = 1j * np.eye(d)
        expected[d - 1, d - 1] = 1j * (1 - d)
        assert np.abs(comm - expected).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 64, 65, 1024])
    def test_quadratures_are_bitwise_the_dense_ladder_sums(self, d):
        # reference: a formed densely, then (a + a^dag)/sqrt(2) and
        # i(a^dag - a)/sqrt(2); tobytes() compares signed zeros too
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
        x = (a + a.conj().T) / math.sqrt(2)
        p = 1j * (a.conj().T - a) / math.sqrt(2)
        assert build_quadrature(d, "X").mat.tobytes() == x.tobytes()
        assert build_quadrature(d, "P").mat.tobytes() == p.tobytes()


class TestHermiticityCheck:
    """`Operator`'s check takes max |A - A^dag| from the upper triangle in
    row blocks; its defect and verdict must be those of the full matrix."""

    @staticmethod
    def hermitian(d):
        # a + a^dag is exactly Hermitian in floats: its defect is 0
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return a + a.conj().T

    @staticmethod
    def assert_matches_the_full_max(mat):
        full = np.abs(mat - mat.conj().T).max()
        defect = cvspace._hermiticity_defect(mat)
        assert defect == full or (np.isnan(full) and np.isnan(defect))
        if full <= cvspace.HERMITICITY_TOL:
            assert Operator(mat.shape[0], mat, hermitian=True).hermitian
        else:
            with pytest.raises(ContractViolationError, match="hermitian flag claimed"):
                Operator(mat.shape[0], mat, hermitian=True)

    @pytest.mark.parametrize("size", [1e-9, 4e-13])
    @pytest.mark.parametrize("d, row, col", [
        (40, 39, 0), (130, 100, 3),          # lower triangle only
        (65, 64, 64), (65, 64, 10), (65, 2, 64),   # last, partial row block
        (130, 129, 128), (130, 129, 129), (130, 5, 129),
    ])
    def test_defect_anywhere_is_the_full_max(self, d, row, col, size):
        mat = self.hermitian(d)
        mat[row, col] += size * (1 - 0.5j)
        self.assert_matches_the_full_max(mat)

    @pytest.mark.parametrize("d, row, col", [(8, 1, 6), (8, 6, 1), (65, 64, 64),
                                             (130, 129, 0)])
    def test_nan_entry_fails(self, d, row, col):
        mat = self.hermitian(d)
        mat[row, col] = complex(np.nan, 0.0)
        assert np.isnan(cvspace._hermiticity_defect(mat))
        self.assert_matches_the_full_max(mat)

    @pytest.mark.parametrize("entry", [2.0, 1 + 4e-13j, 1 + 1e-9j, complex(np.nan, 0.0)])
    def test_one_level(self, entry):
        self.assert_matches_the_full_max(np.array([[entry]]))

    def test_hermitian_matrix_has_zero_defect(self):
        for d in (1, 64, 65, 130):
            assert cvspace._hermiticity_defect(self.hermitian(d)) == 0.0


class TestOperatorPower:
    def test_p_squared_vacuum_energy(self):
        p2 = operator_power(build_quadrature(6, "P"), 2)
        assert p2.mat[0, 0].real == pytest.approx(0.5, abs=1e-14)
        assert p2.hermitian

    def test_power_one_is_identity_case(self):
        x = build_quadrature(5, "X")
        assert np.array_equal(operator_power(x, 1).mat, x.mat)

    def test_cube_matches_naive_triple_loop(self):
        d = 8
        p = build_quadrature(d, "P").mat
        cube = operator_power(build_quadrature(d, "P"), 3).mat
        naive = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                acc = 0.0 + 0.0j
                for k in range(d):
                    for l in range(d):
                        acc += p[i, k] * p[k, l] * p[l, j]
                naive[i, j] = acc
        assert np.abs(cube - naive).max() < 1e-12

    @pytest.mark.parametrize("m", [0, -1])
    def test_power_below_one_is_rejected(self, m):
        with pytest.raises(ContractViolationError, match="m >= 1"):
            operator_power(build_quadrature(4, "X"), m)


class TestProbes:
    def test_vacuum(self):
        state = prepare_probe(ProbeSpec.vacuum(), 8)
        assert state.vec[0] == 1.0
        assert np.abs(state.vec[1:]).max() == 0.0

    def test_coherent_mean_x(self):
        state = prepare_probe(ProbeSpec.coherent(0.5), 16)
        x = build_quadrature(16, "X")
        assert moment(state, x, 1) == pytest.approx(SQ2 * 0.5, abs=1e-8)

    def test_coherent_variance_p(self):
        state = prepare_probe(ProbeSpec.coherent(0.5), 16)
        p = build_quadrature(16, "P")
        assert moment(state, p, 2) == pytest.approx(0.5, abs=1e-8)

    def test_squeezed_variance_x(self):
        state = prepare_probe(ProbeSpec.squeezed_vacuum(0.3), 32)
        x = build_quadrature(32, "X")
        assert variance(state, x) == pytest.approx(math.exp(-0.6) / 2, abs=1e-6)

    def test_coherent_leakage_rejected(self):
        with pytest.raises(TruncationLeakageError):
            prepare_probe(ProbeSpec.coherent(3.0), 8)

    def test_fock_outside_basis_rejected(self):
        with pytest.raises(TruncationLeakageError):
            prepare_probe(ProbeSpec.fock(8), 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError):
            ProbeSpec("thermal")


def evolve(state, generator, tau):
    """The probe state e^{-i tau generator}|state>, through `propagator`."""
    return CvState(state.dim, propagator(spectrum(generator), tau) @ state.vec)


class TestEvolve:
    def test_tau_zero_identity(self):
        state = prepare_probe(ProbeSpec.coherent(0.4), 32)
        out = evolve(state, build_quadrature(32, "X"), 0.0)
        assert np.array_equal(out.vec, state.vec)

    def test_x_generator_shifts_p(self):
        d = 64
        state = evolve(prepare_probe(ProbeSpec.vacuum(), d), build_quadrature(d, "X"), 0.7)
        assert moment(state, build_quadrature(d, "P"), 1) == pytest.approx(-0.7, abs=1e-8)

    def test_p_generator_shifts_x(self):
        d = 64
        state = evolve(prepare_probe(ProbeSpec.vacuum(), d), build_quadrature(d, "P"), 0.7)
        assert moment(state, build_quadrature(d, "X"), 1) == pytest.approx(0.7, abs=1e-8)

    @pytest.mark.parametrize("tau", [1e-3, 0.7, 13.0, 1e3])
    def test_norm_preserved(self, tau):
        d = 48
        state = evolve(prepare_probe(ProbeSpec.vacuum(), d), build_quadrature(d, "X"), tau)
        assert abs(np.linalg.norm(state.vec) - 1.0) < 1e-10

    def test_semigroup_in_tau(self):
        d = 64
        h = build_quadrature(d, "X")
        probe = prepare_probe(ProbeSpec.vacuum(), d)
        two_step = evolve(evolve(probe, h, 0.3), h, 0.45)
        one_step = evolve(probe, h, 0.75)
        assert np.abs(two_step.vec - one_step.vec).max() < 1e-9

    def test_non_hermitian_generator_rejected(self):
        bad = Operator(FockDim(4), np.triu(np.ones((4, 4))), hermitian=False)
        with pytest.raises(ContractViolationError):
            spectrum(bad)


def _generator(d, *terms):
    """sum of coeff * P^k or X, as a hermitian Operator; terms = (coeff, "X" | k)."""
    mat = np.zeros((d, d), dtype=complex)
    for coeff, which in terms:
        op = (build_quadrature(d, "X") if which == "X"
              else operator_power(build_quadrature(d, "P"), which))
        mat += coeff * op.mat
    return Operator(d, mat, hermitian=True)


class TestSpectrum:
    @pytest.mark.parametrize("terms", [((1.0, "X"),), ((1.0, 2),),
                                       ((0.3, "X"), (0.05, 2))],
                             ids=["X", "P2", "0.3X+0.05P2"])
    def test_real_solver_matches_complex_reference(self, terms):
        d, tau = 64, 1.3
        h = _generator(d, *terms)
        spec = spectrum(h)
        assert spec.v.dtype == np.float64
        w, v = np.linalg.eigh(h.mat)  # complex Hermitian reference
        reference = (v * np.exp(-1j * tau * w)) @ v.conj().T
        assert np.abs(propagator(spec, tau).mat - reference).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    def test_odd_momentum_powers_keep_complex_eigenvectors(self, k):
        spec = spectrum(_generator(32, (1.0, k)))
        assert np.iscomplexobj(spec.v)

    @pytest.mark.parametrize("k", [1, 2])
    def test_reweighted_spectrum_shares_the_basis_and_matches_the_constructor(self, k):
        # new eigenvalues on a verified basis: v is the source's object, and
        # propagators on it are bitwise those of a freshly checked Spectrum
        source = spectrum(_generator(48, (1.0, k)))
        w = 0.3 * source.w ** 2 - 1.5 * source.w
        derived = source.reweighted(w)
        assert derived.v is source.v
        assert derived.dim == source.dim and np.array_equal(derived.w, w)
        assert not derived.w.flags.writeable
        checked = Spectrum(source.dim, w, source.v)
        rng = np.random.default_rng(2)
        block = rng.normal(size=(48, 2)) + 1j * rng.normal(size=(48, 2))
        for tau in (0.7, -3.1):
            assert (propagator(derived, tau) @ block).tobytes() == \
                (propagator(checked, tau) @ block).tobytes()
            assert np.array_equal(propagator(derived, tau).mat, propagator(checked, tau).mat)

    def test_reweighted_skips_the_orthonormality_check(self, monkeypatch):
        source = spectrum(build_quadrature(16, "P"))
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: pytest.fail("V^dag V checked"))
        source.reweighted(2.0 * source.w)

    @pytest.mark.parametrize("w", [np.zeros(8, dtype=complex), np.full(8, np.nan),
                                   np.r_[np.zeros(7), np.inf], np.zeros(7), np.zeros((8, 1))],
                             ids=["complex", "nan", "inf", "short", "column"])
    def test_reweighted_rejects_bad_eigenvalues(self, w):
        source = spectrum(build_quadrature(8, "X"))
        with pytest.raises(ContractViolationError):
            source.reweighted(w)

    @pytest.mark.parametrize("k", ["X", 2, 3])
    def test_spectrum_in_a_frame_is_the_conjugated_generator(self, k):
        # F^dag H F for a diagonal unitary F: v and w are the source's
        # objects, and its propagator is F^dag e^{-i tau H} F, unitary
        d = 40
        h = _generator(d, (1.0, k))
        source = spectrum(h)
        rng = np.random.default_rng(4)
        frame = np.exp(1j * rng.uniform(-np.pi, np.pi, d))
        framed = source.in_frame(frame)
        assert framed.v is source.v and framed.w is source.w
        assert not framed.frame.flags.writeable
        conjugated = Operator(d, frame.conj()[:, None] * h.mat * frame, hermitian=True)
        block = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        for tau in (0.7, -3.1):
            reference = propagator(spectrum(conjugated), tau)
            assert np.abs(propagator(framed, tau) @ block - reference @ block).max() <= 1e-12
            assert np.abs(propagator(framed, tau).mat - reference.mat).max() <= 1e-12

    def test_frames_compose_and_keep_through_reweighting(self):
        source = spectrum(build_quadrature(24, "X"))
        first, second = np.exp(0.3j * np.arange(24)), np.exp(-1.1j * np.arange(24) ** 2)
        twice = source.in_frame(first).in_frame(second)
        assert np.abs(twice.frame - first * second).max() <= 1e-15
        reweighted = twice.reweighted(2.0 * source.w)
        assert reweighted.frame is twice.frame and reweighted.v is source.v

    def test_in_frame_skips_the_orthonormality_check(self, monkeypatch):
        source = spectrum(build_quadrature(16, "P"))
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: pytest.fail("V^dag V checked"))
        source.in_frame(np.exp(0.5j * np.arange(16)))

    @pytest.mark.parametrize("phases", [np.full(8, 1.0 + 1e-9), np.zeros(8), np.full(8, np.nan),
                                        np.ones(7), np.ones((8, 1))],
                             ids=["not unimodular", "zero", "nan", "short", "column"])
    def test_in_frame_rejects_bad_phases(self, phases):
        source = spectrum(build_quadrature(8, "X"))
        with pytest.raises(ContractViolationError):
            source.in_frame(phases)

    def test_spectrum_is_read_only(self):
        spec = spectrum(build_quadrature(8, "X"))
        assert not spec.w.flags.writeable and not spec.v.flags.writeable

    def test_unflagged_generator_rejected(self):
        bad = Operator(FockDim(4), np.eye(4), hermitian=False)
        with pytest.raises(ContractViolationError):
            spectrum(bad)

    @pytest.mark.parametrize("scale", [1 + 1e-13, 1 + 1e-10])
    def test_eigenvectors_must_be_orthonormal(self, scale):
        # ||V^dag V - I||_F = 2 (scale - 1) sqrt(8): 5.7e-13 passes, 5.7e-10 does not
        spec = spectrum(build_quadrature(8, "X"))
        if scale < 1 + 1e-12:
            Spectrum(spec.dim, spec.w, scale * spec.v)
        else:
            with pytest.raises(ContractViolationError):
                Spectrum(spec.dim, spec.w, scale * spec.v)

    def test_eigenvalues_must_be_real(self):
        spec = spectrum(build_quadrature(8, "X"))
        with pytest.raises(ContractViolationError):
            Spectrum(spec.dim, spec.w - 0.01j, spec.v)

    @pytest.mark.parametrize("terms", [((1.0, "X"),), ((1.0, 2),), ((0.3, "X"), (0.05, 2)),
                                       ((1.0, 1),), ((1.0, 3),)],
                             ids=["X", "P2", "0.3X+0.05P2", "P", "P3"])
    def test_factored_apply_matches_the_dense_matrix(self, terms):
        d = 48
        spec = spectrum(_generator(d, *terms))
        rng = np.random.default_rng(11)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        vec /= np.linalg.norm(vec)
        block = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        for tau in (0.4, -2.5, 13):
            u = propagator(spec, tau)
            dense = u.mat
            assert np.abs(u @ vec - dense @ vec).max() <= 1e-12
            assert np.abs(u @ block - dense @ block).max() <= 1e-12


    @pytest.mark.parametrize("terms,d", [(((1.0, "X"),), 24), (((1.0, 3),), 24),
                                         (((1.0, 1),), 128)],
                             ids=["real V", "complex V", "complex V d128"])
    def test_propagator_applies_v_dagger_in_the_product_and_keeps_no_copy(self, terms, d):
        # v^dag is formed inside `@`, so a cached spectrum keeps only w, v
        # and its O(d) frame; the product is bitwise the one of a conjugate
        # copy of v, also at the oracles' d = 128
        spec = spectrum(_generator(d, *terms))
        u = propagator(spec, 0.7)
        assert [f.name for f in dataclasses.fields(Spectrum)] == ["dim", "w", "v", "frame"]
        rng = np.random.default_rng(5)
        for x in (rng.normal(size=d) + 1j * rng.normal(size=d),
                  rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))):
            phases = u.phases if x.ndim == 1 else u.phases[:, None]
            reference = cvspace._product(spec.v, phases * cvspace._product(spec.v.conj().T, x))
            assert (u @ x).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("terms", [((1.0, "X"),), ((1.0, 2),), ((1.0, 3),)],
                             ids=["X", "P2", "P3"])
    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_n_applications_compose_to_one_exponent(self, terms, n):
        # e^{-i theta H} applied N times is e^{-i N theta H}: a block of N
        # identical queries is one propagator
        d = 64
        spec = spectrum(_generator(d, *terms))
        rng = np.random.default_rng(3)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        vec /= np.linalg.norm(vec)
        step, applied = propagator(spec, 0.05), vec
        for _ in range(n):
            applied = step @ applied
        assert np.abs(applied - propagator(spec, n * 0.05) @ vec).max() <= 1e-12


class TestMoments:
    """Probe moments come from the node layer; `moment` above is its oracle."""

    def test_vacuum_x_squared(self):
        q, w = probe_on_nodes(ProbeSpec.vacuum(), "X", 2)
        assert w @ q ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_p_mean_zero(self):
        q, w = probe_on_nodes(ProbeSpec.vacuum(), "P", 1)
        assert w @ q == pytest.approx(0.0, abs=1e-14)

    def test_hermitian_moment_is_real_float(self):
        q, w = probe_on_nodes(ProbeSpec.coherent(0.3 + 0.2j), "X", 2)
        assert q.dtype == w.dtype == np.float64
        assert isinstance(float(w @ q ** 2), float)


NODE_PROBES = [ProbeSpec.vacuum(), ProbeSpec.coherent(0.3 + 0.4j),
               ProbeSpec.coherent(-1.1 + 0.7j), ProbeSpec.squeezed_vacuum(0.3),
               ProbeSpec.squeezed_vacuum(-0.5), ProbeSpec.fock(1), ProbeSpec.fock(3)]


class TestProbeOnNodes:
    @pytest.mark.parametrize("spec", NODE_PROBES, ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}-{s.r}")
    @pytest.mark.parametrize("which", ["X", "P"])
    def test_moments_match_the_fock_route(self, spec, which):
        # every moment up to the rule's degree, against the d = 128 truncated
        # basis, relative to the size of the summands (odd moments vanish)
        d = 128
        state, op = prepare_probe(spec, d), build_quadrature(d, which)
        for degree in range(1, 11):
            q, w = probe_on_nodes(spec, which, degree)
            assert len(q) == degree // 2 + 1 + (spec.n if spec.kind == "fock" else 0)
            for k in range(degree + 1):
                scale = max(1.0, float(np.abs(w * q ** k).sum()))
                assert abs(w @ q ** k - moment(state, op, k)) <= 1e-13 * scale

    def test_large_fock_level_gives_finite_variance(self):
        # Fock(300): Var(P) = n + 1/2 on 302 nodes; H_300 / sqrt(2^300 300!) or
        # the weights times e^{t^2} would overflow there
        q, w = probe_on_nodes(ProbeSpec.fock(300), "P", 2)
        assert np.isfinite(w).all() and (w >= 0).all()
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert w @ q ** 2 - (w @ q) ** 2 == pytest.approx(300.5, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3, 300])
    @pytest.mark.parametrize("which", ["X", "P"])
    def test_fock_moments_match_exact_rationals(self, n, which):
        # <n|Q^{2k}|n> for k = 1, 2, 3 in exact arithmetic: every closed
        # ladder path multiplies squared sqrt(j) factors, so each is an
        # integer polynomial in n over 2^k; odd moments vanish by parity
        exact = [Fraction(2 * n + 1, 2), Fraction(6 * n * n + 6 * n + 3, 4),
                 Fraction(20 * n ** 3 + 30 * n * n + 40 * n + 15, 8)]
        q, w = probe_on_nodes(ProbeSpec.fock(n), which, 6)
        assert w.sum() == pytest.approx(1.0, rel=1e-13)
        for k, value in enumerate(exact, start=1):
            assert w @ q ** (2 * k) == pytest.approx(float(value), rel=1e-13)
            assert abs(w @ q ** (2 * k - 1)) <= 1e-13 * float(value)

    def test_rule_beyond_the_node_cap_is_an_envelope_error(self):
        for _ in range(2):  # raised on every call, never cached
            with pytest.raises(EnvelopeError):
                probe_on_nodes(ProbeSpec.fock(NODE_CAP), "P", 2)

    @pytest.mark.parametrize("which,degree", [("Y", 2), ("P", -1), ("P", 2.0)])
    def test_bad_request_rejected(self, which, degree):
        with pytest.raises(ContractViolationError):
            probe_on_nodes(ProbeSpec.vacuum(), which, degree)

    def test_repeated_request_returns_the_same_read_only_table(self):
        # degrees 2 and 3 need the same two-node rule, so they share one table
        spec = ProbeSpec.coherent(0.3 + 0.2j)
        q, w = probe_on_nodes(spec, "X", 2)
        again = probe_on_nodes(ProbeSpec.coherent(0.3 + 0.2j), "X", 3)
        assert again[0] is q and again[1] is w
        for arr in (q, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestProbeAmplitudes:
    @pytest.mark.parametrize("spec", [s for s in NODE_PROBES if s.kind != "squeezed_vacuum"],
                             ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}")
    def test_fock_components_match_prepare_probe(self, spec):
        # <k|probe> as the grid quadrature against Fock(k) amplitudes on the
        # same nodes (shifted to the probe's centre), for the first 12 levels
        p, a, _ = probe_amplitudes(spec, 64, 0.0)
        centre = math.sqrt(2) * spec.alpha.imag
        number_basis = prepare_probe(spec, 64).vec
        for k in range(12):
            _, fock, _ = probe_amplitudes(ProbeSpec.fock(k), p.size - k, centre)
            assert abs(np.vdot(fock, a) - number_basis[k]) <= 1e-13

    @pytest.mark.parametrize("spec", NODE_PROBES, ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}-{s.r}")
    def test_densities_are_the_node_weights(self, spec):
        p, a, _ = probe_amplitudes(spec, 64, 0.0)
        q, w = probe_on_nodes(spec, "P", 126)
        assert np.array_equal(p, q)
        assert np.abs(np.abs(a) ** 2 - w).max() <= 1e-15
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("spec", [ProbeSpec.vacuum(), ProbeSpec.fock(3),
                                      ProbeSpec.coherent(0.6 - 0.4j),
                                      ProbeSpec.squeezed_vacuum(0.4)],
                             ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}-{s.r}")
    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_derivative_matches_a_central_difference(self, spec, shift):
        # a' = sqrt(W) psi'(p + shift) by the Hermite ladder, against the
        # difference of a in the shift, at h = 1e-5 (truncation ~1e-10 of a')
        h = 1e-5
        _, _, slope = probe_amplitudes(spec, 64, shift)
        up, dn = (probe_amplitudes(spec, 64, shift + s)[1] for s in (h, -h))
        assert np.abs((up - dn) / (2 * h) - slope).max() <= 1e-9 * np.abs(slope).max()

    @pytest.mark.parametrize("spec", NODE_PROBES, ids=lambda s: f"{s.kind}-{s.n}-{s.alpha}-{s.r}")
    def test_x_acts_as_i_d_dp(self, spec):
        # <X> = i <psi| d psi/dp>, the derivative taken through the shift
        h = 1e-5
        _, a, _ = probe_amplitudes(spec, 64, 0.0)
        up, dn = (probe_amplitudes(spec, 64, s)[1] for s in (h, -h))
        mean_x = 1j * np.vdot(a, (up - dn) / (2 * h))
        assert mean_x == pytest.approx(math.sqrt(2) * spec.alpha.real, abs=1e-8)

    def test_a_shift_off_the_grid_lowers_the_norm(self):
        # the outermost of 64 nodes lies near p = 10.5
        assert np.linalg.norm(probe_amplitudes(ProbeSpec.vacuum(), 64, 0.3)[1]) == \
            pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(probe_amplitudes(ProbeSpec.vacuum(), 64, 9.6)[1]) < 0.999

    def test_large_fock_level_stays_finite(self):
        # Fock(300) on 364 nodes: h_300 and the rule's e^{t^2} would overflow
        _, a, slope = probe_amplitudes(ProbeSpec.fock(300), 64, 0.5)
        assert np.isfinite(a).all() and np.isfinite(slope).all()
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)

    def test_beyond_the_node_cap_is_an_envelope_error(self):
        with pytest.raises(EnvelopeError):
            probe_amplitudes(ProbeSpec.fock(NODE_CAP - 63), 64, 0.0)


class TestContracts:
    def test_false_hermitian_claim_rejected(self):
        with pytest.raises(ContractViolationError):
            Operator(FockDim(3), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                          dtype=complex), hermitian=True)

    def test_false_unitary_claim_rejected(self):
        with pytest.raises(ContractViolationError):
            Operator(FockDim(3), 2 * np.eye(3), unitary=True)

    def test_operator_takes_an_int_dimension(self):
        op = Operator(4, np.eye(4), hermitian=True)
        assert op.dim == FockDim(4)

    def test_state_norm_enforced(self):
        with pytest.raises(ContractViolationError):
            CvState(FockDim(4), np.array([1.0, 1.0, 0, 0]))

    @pytest.mark.parametrize("flag", ["hermitian", "unitary"])
    def test_nan_operator_rejected_by_its_flag(self, flag):
        with pytest.raises(ContractViolationError):
            Operator(2, [[math.nan, 0], [0, 1]], **{flag: True})

    def test_nan_state_rejected(self):
        with pytest.raises(ContractViolationError):
            CvState(FockDim(2), [math.nan, 1.0])


class TestDimensionLoop:
    def test_moment_stable_under_doubling(self):
        def mean_x(d):
            state = evolve(prepare_probe(ProbeSpec.vacuum(), d),
                           build_quadrature(d, "P"), 0.7)
            return moment(state, build_quadrature(d, "X"), 1)

        scan = converge_dimension(mean_x)
        assert scan.converged
        assert scan.dim_used == 128
        assert scan.value == pytest.approx(0.7, abs=1e-8)
        d_vals = [d for d, _ in scan.history]
        assert d_vals == [64, 128]

    def test_non_convergence_is_reported_not_silent(self):
        scan = converge_dimension(lambda d: float(d), start=64)
        assert not scan.converged
        assert scan.dim_used == 1024


class TestRichardson:
    def test_smooth_estimate_converges_after_one_step(self):
        f = lambda h: 2.0 + h ** 2
        value, converged, history = richardson(f, 1e-3)
        assert converged
        assert len(history) == 1
        assert value == (4 * f(1e-3 / 2) - f(1e-3)) / 3

    def test_unsettled_estimate_stops_unconverged(self):
        # sqrt(h) halves by 1/sqrt(2) per step and never settles
        _, converged, history = richardson(math.sqrt, 1e-3)
        assert not converged
        assert len(history) == FD_MAX_REDUCTIONS + 1
        assert [row[0] for row in history] == [1e-3 / 2 ** k for k in range(len(history))]
