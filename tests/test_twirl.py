import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rblab.twirl
from rblab.channels import (
    SuperOp,
    hs_inner,
    traceless_projector,
    unitary_to_superop,
    vec,
)
from rblab.cli import load_config
from rblab.correction import correct_spectrum
from rblab.noise import (
    ConfigError,
    NoiseModel,
    NoisyGateSet,
    build_noisy_gateset,
    depolarizing,
    relabeling_channel,
    rotation,
)
from rblab.twirl import (
    DegenerateSpectrumError,
    FitWindowError,
    TwirlSuperop,
    _fix_eigenop,
    build_twirl,
    dominant_spectrum,
    fidelity_curve_exact,
    nondominant_radius,
    power_iteration,
)
from reference import (
    avg_gate_fidelity,
    deflated,
    enumerated_products,
    fidelity_curve_mc,
    ideal_mats,
    infidelity,
    matmul_power_iteration,
    matmul_traceless_curve,
    order_m_error_blocks,
    random_unitary,
    reference_build_twirl,
    right_error_op_at,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@dataclass(frozen=True)
class PerturbationReport:
    """Per-gate deviations from conjugated targets and their mean infidelity."""

    deltas: list[np.ndarray]
    mean_infidelity: float


def perturbation_report(group, noisy_set, basis_u) -> PerturbationReport:
    """Deviations noisy_gate o (U target U')^{-1} - identity for each gate."""
    us = unitary_to_superop(np.asarray(basis_u, dtype=complex))
    eye = np.eye(group.dim ** 2)
    deltas = []
    for ideal, noisy in zip(ideal_mats(group), noisy_set.mats):
        target = us.mat @ ideal @ us.mat.T
        deltas.append(noisy @ target.T - eye)
    mean_delta = np.mean(deltas, axis=0)
    mean_infidelity = 1.0 - avg_gate_fidelity(SuperOp(group.dim, eye + mean_delta), SuperOp(group.dim, eye))
    return PerturbationReport(deltas=deltas, mean_infidelity=mean_infidelity)


def residual_vectors(spectrum, basis_u):
    """Overlaps a, b of the basis direction with the eigenpair, and unit residuals w, v."""
    us = unitary_to_superop(np.asarray(basis_u, dtype=complex)).mat
    norm_pi = np.sqrt(spectrum.dim ** 2 - 1)
    u_vec = vec(us @ traceless_projector(spectrum.dim)) / norm_pi
    a = min(1.0, max(-1.0, hs_inner(spectrum.right_error_op.T, us) / norm_pi))
    b = min(1.0, max(-1.0, hs_inner(us, spectrum.left_error_op) / norm_pi))
    w = u_vec - a * vec(spectrum.right_error_op.T)
    v = u_vec - b * vec(spectrum.left_error_op)
    if np.sqrt(1 - a ** 2) > 1e-12:
        w = w / np.sqrt(1 - a ** 2)
    if np.sqrt(1 - b ** 2) > 1e-12:
        v = v / np.sqrt(1 - b ** 2)
    return a, w, b, v


def make_sandwich(group, left, right):
    return NoisyGateSet(2, np.stack([left.mat @ mat @ right.mat for mat in ideal_mats(group)]))


def relabeled(noisy):
    """The set `S G S^T`, with S the Pauli relabeling X -> Y -> Z of every qubit."""
    s = relabeling_channel().mat
    if noisy.dim == 4:
        s = np.kron(s, s)
    return NoisyGateSet(noisy.dim, s @ noisy.mats @ s.T)


class _FailingUpperColumns(np.ndarray):
    """A noisy stack whose upper column half, the twirl's second entry chunk at d=4, fails to gather."""

    def __getitem__(self, key):
        if isinstance(key, tuple) and isinstance(key[-1], slice) and key[-1].start:
            raise RuntimeError("upper columns unreadable")
        return np.asarray(super().__getitem__(key))


class TestBuildTwirl:
    @pytest.mark.parametrize("group_fixture", ["group24", "group11520"])
    def test_ideal_noise_is_rank_one(self, request, group_fixture):
        group = request.getfixturevalue(group_fixture)
        noisy = build_noisy_gateset(NoiseModel("ideal"), group)
        t = build_twirl(group, noisy)
        spectrum = dominant_spectrum(t)
        assert spectrum.p == pytest.approx(1.0, abs=1e-12)
        assert nondominant_radius(t) < 1e-10
        pi_unit = traceless_projector(group.dim) / np.sqrt(group.dim ** 2 - 1)
        assert np.max(np.abs(spectrum.right_error_op - pi_unit)) < 1e-10
        assert np.max(np.abs(spectrum.left_error_op - pi_unit)) < 1e-10

    def test_matches_literal_mean_of_krons(self, group24):
        # the definition term by term, with a non-unital factor so column 0 of each noisy gate is not e0
        factors = [
            {"channel": "amplitude_damping", "gamma": 0.05},
            {"channel": "rotation", "axis": "x", "angle": 0.1},
        ]
        noisy = build_noisy_gateset(NoiseModel.right(factors), group24)
        pi = traceless_projector(2)
        literal = sum(np.kron(g @ pi, nz) for g, nz in zip(ideal_mats(group24), noisy.mats)) / 24
        assert np.max(np.abs(build_twirl(group24, noisy).mat - literal)) <= 1e-14

    @given(hnp.arrays(np.float64, (24, 4, 4), elements=st.floats(-1.0, 1.0)))
    @settings(max_examples=60, deadline=None)
    def test_coset_route_matches_one_gemm_d2(self, group24, mats):
        # an arbitrary trace-preserving stack: gate-dependent and, in general, unphysical
        mats[:, 0] = np.eye(4)[0]
        noisy = NoisyGateSet(2, mats)
        want = reference_build_twirl(group24, noisy).mat
        assert np.max(np.abs(build_twirl(group24, noisy).mat - want)) <= 1e-14

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0]))
    @settings(max_examples=4, deadline=None)
    def test_coset_route_matches_one_gemm_d4(self, group11520, seed, scale):
        mats = scale * np.random.default_rng(seed).standard_normal((11520, 16, 16))
        mats[:, 0] = np.eye(16)[0]
        noisy = NoisyGateSet(4, mats)
        want = reference_build_twirl(group11520, noisy).mat
        assert np.max(np.abs(build_twirl(group11520, noisy).mat - want)) <= 1e-14

    @pytest.mark.parametrize("stack", ["over_rotation", "z_tilt", "gaussian"])
    def test_entry_chunks_equal_one_chunk_bit_for_bit_d4(self, group11520, monkeypatch, stack):
        if stack == "gaussian":
            mats = np.random.default_rng(37).standard_normal((11520, 16, 16))
            mats[:, 0] = np.eye(16)[0]
            noisy = NoisyGateSet(4, mats)
        else:
            noisy = build_noisy_gateset(getattr(NoiseModel, stack)(0.07, cz_epsilon=0.05), group11520)
        chunked = build_twirl(group11520, noisy).mat
        monkeypatch.setattr(rblab.twirl, "_ENTRY_BLOCK", 256)  # every noisy entry in one chunk
        assert np.array_equal(chunked, build_twirl(group11520, noisy).mat)

    @pytest.mark.parametrize("group_fixture", ["group24", "group11520"])
    def test_no_thread_started(self, request, group_fixture, monkeypatch):
        group = request.getfixturevalue(group_fixture)
        noisy = build_noisy_gateset(NoiseModel.z_tilt(0.07, cz_epsilon=0.05 if group.dim == 4 else 0.0), group)

        def refuse(*args, **kwargs):
            raise AssertionError(f"a thread started at d={group.dim}")

        monkeypatch.setattr(threading, "Thread", refuse)
        build_twirl(group, noisy)

    def test_second_chunk_exception_reaches_caller(self, group11520):
        noisy = build_noisy_gateset(NoiseModel("ideal"), group11520)
        object.__setattr__(noisy, "mats", noisy.mats.view(_FailingUpperColumns))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="upper columns"):
            build_twirl(group11520, noisy)
        assert threading.active_count() == before

    def test_allocation_peak_d4(self, group11520):
        # about 3.1 MB: the moments and the twirl (0.5 MB each) and one entry chunk's block temporaries
        # (about 1.8 MB); a helper thread that held a second chunk's temporaries at once read 5.2 MB
        noisy = build_noisy_gateset(NoiseModel.z_tilt(0.07, cz_epsilon=0.05), group11520)
        group11520.cosets  # built once per group, outside the build measured here
        tracemalloc.start()
        try:
            build_twirl(group11520, noisy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

    def test_gate_independent_depolarizing_decay(self, group24):
        q = 0.97
        noisy = build_noisy_gateset(NoiseModel.left(depolarizing(q)), group24)
        spectrum = dominant_spectrum(build_twirl(group24, noisy))
        assert spectrum.p == pytest.approx(q, abs=1e-10)

    def test_relabeling_has_unit_decay(self, group24):
        noisy = build_noisy_gateset(NoiseModel.conjugation({"channel": "relabeling"}), group24)
        spectrum = dominant_spectrum(build_twirl(group24, noisy))
        assert spectrum.p == pytest.approx(1.0, abs=1e-10)

    def test_misaligned_lengths_rejected(self, group24):
        noisy = build_noisy_gateset(NoiseModel("ideal"), group24)
        with pytest.raises(ValueError, match="index-aligned|elements"):
            build_twirl(group24, NoisyGateSet(2, noisy.mats[:-1]))

    def test_spectral_radius_at_most_one(self, group24, ztilt_noisy):
        t = build_twirl(group24, ztilt_noisy)
        evals = np.linalg.eigvals(t.mat)
        assert np.max(np.abs(evals)) <= 1.0 + 1e-10

    def test_deterministic_rebuild(self, group24, ztilt_noisy):
        t1 = build_twirl(group24, ztilt_noisy)
        t2 = build_twirl(group24, ztilt_noisy)
        assert np.array_equal(t1.mat, t2.mat)


class TestDominantSpectrum:
    def test_dense_and_power_methods_agree(self, group24, ztilt_spectrum):
        t = ztilt_spectrum.twirl
        p_pow, _ = power_iteration(t.mat, start=vec(traceless_projector(2)))
        assert abs(ztilt_spectrum.p - p_pow) < 1e-10

    def test_eigen_residuals(self, ztilt_spectrum):
        t = ztilt_spectrum.twirl.mat
        vl = vec(ztilt_spectrum.right_error_op.T)
        vr = vec(ztilt_spectrum.left_error_op)
        assert np.linalg.norm(vl @ t - ztilt_spectrum.p * vl) < 1e-10
        assert np.linalg.norm(t @ vr - ztilt_spectrum.p * vr) < 1e-10

    def test_deflated_annihilates_eigenpair(self, ztilt_spectrum):
        d = deflated(ztilt_spectrum)
        assert np.linalg.norm(d @ vec(ztilt_spectrum.left_error_op)) < 1e-10
        assert np.linalg.norm(vec(ztilt_spectrum.right_error_op.T) @ d) < 1e-10

    def test_sandwich_eigenops_match_fixed_errors(self, group24):
        left = depolarizing(0.998)
        right = rotation("y", 0.03)
        noisy = make_sandwich(group24, left, right)
        spectrum = dominant_spectrum(build_twirl(group24, noisy))
        r = infidelity(right @ left)
        pi = traceless_projector(2)
        a_ref = pi @ right.mat
        a_ref /= np.linalg.norm(a_ref)
        b_ref = left.mat @ pi
        b_ref /= np.linalg.norm(b_ref)
        assert np.linalg.norm(spectrum.right_error_op - a_ref) <= 10 * r ** 2
        assert np.linalg.norm(spectrum.left_error_op - b_ref) <= 10 * r ** 2

    def test_degenerate_spectrum_reported(self, monkeypatch):
        # two equal-modulus dominant eigenvalues
        mat = np.diag([1.0, -1.0, 0.1, 0.05])
        monkeypatch.setattr(rblab.twirl, "_POWER_MAXITER", 500)
        with pytest.raises(DegenerateSpectrumError):
            power_iteration(mat, start=np.array([1.0, 1.0, 1.0, 1.0]))

    def test_collapse_to_the_null_space_reported(self):
        # a nilpotent matrix maps e0 to zero on the first step
        with pytest.raises(DegenerateSpectrumError, match="collapsed to the null space"):
            power_iteration(np.array([[0.0, 1.0], [0.0, 0.0]]), start=np.array([1.0, 0.0]))

    def test_dominant_eigenvalue_above_one_reported(self):
        # isolated and real, so only the bound on p can refuse it
        t = TwirlSuperop(2, np.diag([1.5] + [0.1] * 15))
        with pytest.raises(DegenerateSpectrumError, match="exceeds 1"):
            dominant_spectrum(t)

    def test_degenerate_dominant_pair_reported(self):
        # both walks stop at once on 0.9, so only the d=2 dense degeneracy check can refuse it
        t = TwirlSuperop(2, np.diag([0.9, 0.9] + [0.1] * 14))
        with pytest.raises(DegenerateSpectrumError, match="degenerate"):
            dominant_spectrum(t)

    def test_left_residual_at_the_right_eigenvalue_reported(self):
        """The left vector's residual is sqrt(r^2 + (p - p_left)^2), as r is orthogonal to it.

        A d=4 twirl-shaped matrix with no dense guard: the heaviest column is an
        exact right eigenvector of a = b + gap (block A), and the heaviest row is
        y + eps z, with y and z orthogonal left eigenvectors of b and -b (block
        N^T).  The left walk stops at once on p_left = b with r = 2 b eps = 5e-12.
        At gap 0.999e-10 p and p_left agree to 1e-10, yet the residual at p is
        1.00025e-10; at 2e-10 and 1e-8 they disagree, and the same one guard,
        whose residual is at least the gap, reports it.
        """
        b, eps, k = 0.5, 5e-12, 1.0
        y = np.ones(8) / np.sqrt(8)
        z = np.tile([1.0, -1.0], 4) / np.sqrt(8)
        n = np.zeros((9, 9))
        n[:8, :8] = b * np.outer(y, y) - b * np.outer(z, z)
        n[:8, 8] = k * (y + eps * z)
        mat = np.zeros((256, 256))
        mat[:9, :9] = n.T
        for gap in (0.999e-10, 2e-10, 1e-8):
            mat[9:12, 9] = [b + gap, k / np.sqrt(2), k / np.sqrt(2)]
            with pytest.raises(DegenerateSpectrumError, match="left eigenvector residual"):
                dominant_spectrum(TwirlSuperop(4, mat))

    def test_zero_overlap_orientation_is_sign_free(self, group24):
        # configs/relabeling_d2.json: both operators are orthogonal to Pi_tr
        cfg = load_config(str(CONFIG_DIR / "relabeling_d2.json"))
        noisy = build_noisy_gateset(NoiseModel.from_config(cfg["model"], 2), group24)
        spectrum = dominant_spectrum(build_twirl(group24, noisy))
        pi = traceless_projector(2)
        for op in (spectrum.right_error_op, spectrum.left_error_op):
            assert hs_inner(pi, op) == 0.0
            assert np.array_equal(_fix_eigenop(-op, pi), _fix_eigenop(op, pi))

    def test_dense_start_disagreeing_with_power_iteration_reported(self, group24, ztilt_noisy, monkeypatch):
        # a d=2 dense eigenvalue 1e-6 off the power-iteration p fails the 1e-8 agreement check
        dense_eigenvalue = rblab.twirl._dense_eigenvalue
        monkeypatch.setattr(rblab.twirl, "_dense_eigenvalue", lambda mat: dense_eigenvalue(mat) + 1e-6)
        with pytest.raises(DegenerateSpectrumError, match="disagree"):
            dominant_spectrum(build_twirl(group24, ztilt_noisy))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_relabeled_ideal_set_has_unit_decay(self, group24, group11520, dim):
        # at d=4 vec(Pi_tr) has no overlap with this frame's dominant mode, as |tr U|^2 = 1
        group = group24 if dim == 2 else group11520
        noisy = relabeled(build_noisy_gateset(NoiseModel("ideal"), group))
        assert dominant_spectrum(build_twirl(group, noisy)).p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_relabeled_right_depolarizing_set_keeps_its_decay(self, group24, group11520, dim):
        group = group24 if dim == 2 else group11520
        noisy = relabeled(build_noisy_gateset(NoiseModel.right(depolarizing(0.99, dim)), group))
        assert dominant_spectrum(build_twirl(group, noisy)).p == pytest.approx(0.99, abs=1e-12)

    @pytest.mark.parametrize(
        "dim, model, frame_seed",
        [
            (2, NoiseModel.over_rotation(0.2), None),
            (2, NoiseModel.over_rotation(0.3), None),
            (4, NoiseModel.z_tilt(0.1, cz_epsilon=0.1), None),  # configs/ztilt_d4.json
            (4, NoiseModel.over_rotation(0.2, cz_epsilon=0.1), 3),
        ],
        ids=["over_rotation_0.2_d2", "over_rotation_0.3_d2", "ztilt_d4", "over_rotation_0.2_d4_frame3"],
    )
    def test_p_is_the_dense_dominant_eigenvalue(self, group24, group11520, dim, model, frame_seed):
        """p is within 1e-14 of the dominant `np.linalg.eigvals` value.

        Measured: 4.4e-16, 8.9e-16, 4.4e-16 and 5.6e-16, in the order of the cases.
        A 1e-12 Rayleigh-quotient stop leaves the d=2 cases 5.9e-14 and 1.7e-13
        off, and a d=4 start from vec(Pi_tr) leaves the last one 2.1e-14 off.
        """
        group = group24 if dim == 2 else group11520
        noisy = build_noisy_gateset(model, group)
        if frame_seed is not None:
            s = unitary_to_superop(random_unitary(dim, np.random.default_rng(frame_seed))).mat
            noisy = NoisyGateSet(dim, s @ noisy.mats @ s.T)
        t = build_twirl(group, noisy)
        evals = np.linalg.eigvals(t.mat)
        dominant = evals[np.argmax(np.abs(evals))].real
        assert abs(dominant_spectrum(t).p - dominant) <= 1e-14

    def test_unit_frobenius_normalization(self, ztilt_spectrum):
        assert np.linalg.norm(ztilt_spectrum.right_error_op) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(ztilt_spectrum.left_error_op) == pytest.approx(1.0, abs=1e-12)


class TestDotWalksMatchMatmul:
    """The walks step through `ndarray.dot`; `tests/reference.py` keeps the `@` loops.

    Every shipped config at its own dim, the relabeled d=4 ideal set, and a
    z-tilt of 0.104.  The right walk starts from the heaviest column, a strided
    view; `np.linalg.norm` read a contiguous copy of it, and the walk must too:
    from the view itself ddot takes its strided path, which moves the z-tilt's
    left error operator in its last bit.
    """

    EXTRA = {
        "relabeled_ideal_d4": ("group11520", lambda group: relabeled(build_noisy_gateset(NoiseModel("ideal"), group))),
        "z_tilt_0.104_d2": ("group24", lambda group: build_noisy_gateset(NoiseModel.z_tilt(0.104), group)),
    }

    @pytest.fixture(params=sorted(p.stem for p in CONFIG_DIR.glob("*.json")) + list(EXTRA))
    def twirl(self, request):
        if request.param in self.EXTRA:
            fixture, noisy = self.EXTRA[request.param]
            group = request.getfixturevalue(fixture)
            return build_twirl(group, noisy(group))
        cfg = load_config(str(CONFIG_DIR / f"{request.param}.json"))
        dim = cfg.get("dim", 2)
        group = request.getfixturevalue("group24" if dim == 2 else "group11520")
        return build_twirl(group, build_noisy_gateset(NoiseModel.from_config(cfg["model"], dim), group))

    def test_spectrum_bit_for_bit(self, twirl, monkeypatch):
        spectrum = dominant_spectrum(twirl)
        monkeypatch.setattr(rblab.twirl, "power_iteration", matmul_power_iteration)
        oracle = dominant_spectrum(twirl)
        assert spectrum.p == oracle.p
        assert np.array_equal(spectrum.right_error_op, oracle.right_error_op)
        assert np.array_equal(spectrum.left_error_op, oracle.left_error_op)

    def test_curves_bit_for_bit(self, twirl):
        spectrum = dominant_spectrum(twirl)
        for basis in (np.eye(twirl.dim, dtype=complex), random_unitary(twirl.dim, np.random.default_rng(41))):
            curve = fidelity_curve_exact(spectrum, basis, range(65))
            assert np.array_equal(curve.traceless_fidelity, matmul_traceless_curve(spectrum, basis, 64))


class TestGaugeInvariance:
    """A change of frame S G S^T of every noisy gate is a similarity transform of
    the twirl, so its dominant eigenvalue p does not move."""

    MODELS = [NoiseModel.z_tilt(0.1), NoiseModel.over_rotation(0.1)]

    @staticmethod
    def gauge_shift(group, noisy, seed):
        s = unitary_to_superop(random_unitary(group.dim, np.random.default_rng(seed))).mat
        moved = NoisyGateSet(group.dim, np.stack([s @ g @ s.T for g in noisy.mats]))
        p = dominant_spectrum(build_twirl(group, noisy)).p
        return dominant_spectrum(build_twirl(group, moved)).p - p

    @pytest.mark.parametrize("model", MODELS, ids=["z_tilt", "over_rotation"])
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_qubit(self, group24, model, seed):
        noisy = build_noisy_gateset(model, group24)
        assert abs(self.gauge_shift(group24, noisy, seed)) <= 1e-12

    @pytest.mark.parametrize("model", MODELS, ids=["z_tilt", "over_rotation"])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_two_qubit(self, group11520, model, seed):
        noisy = build_noisy_gateset(model, group11520)
        assert abs(self.gauge_shift(group11520, noisy, seed)) <= 1e-12


class TestOrderMErrors:
    def test_gate_independent_left_noise_gives_twirled_error(self, group24):
        err = depolarizing(0.95)
        noisy = build_noisy_gateset(NoiseModel.left(err), group24)
        right_blk, left_blk = order_m_error_blocks(build_twirl(group24, noisy), 1)
        # single twirl of the error: its Bloch block collapses to f_tr * identity
        f_tr = np.trace(err.mat[1:, 1:]) / 3
        assert np.max(np.abs(right_blk - f_tr * np.eye(3))) < 1e-10
        assert np.max(np.abs(left_blk - err.mat[1:, 1:])) < 1e-10

    def test_power_construction_matches_enumeration_depth2(self, group24, ztilt_noisy):
        # oracle: average over all 24^2 two-gate sequences explicitly
        pi = traceless_projector(2)
        ideal, noisy = enumerated_products(group24, ztilt_noisy, 2)
        acc_r = (pi @ ideal.transpose(0, 2, 1) @ noisy).mean(axis=0)
        acc_l = (noisy @ ideal.transpose(0, 2, 1) @ pi).mean(axis=0)
        right_blk, left_blk = order_m_error_blocks(build_twirl(group24, ztilt_noisy), 2)
        assert np.max(np.abs(right_blk - acc_r[1:, 1:])) < 1e-10
        assert np.max(np.abs(left_blk - acc_l[1:, 1:])) < 1e-10

    def test_depth4_operators_near_asymptotic(self, group24, ztilt_spectrum):
        a4 = right_error_op_at(ztilt_spectrum, 4)
        a8 = right_error_op_at(ztilt_spectrum, 8)
        assert np.linalg.norm(a4 - a8) <= 5 * (1 - ztilt_spectrum.p) ** 2

    def test_order_must_be_positive(self, group24, ztilt_noisy):
        with pytest.raises(ValueError):
            order_m_error_blocks(build_twirl(group24, ztilt_noisy), 0)


class TestFidelityCurveExact:
    def test_gate_independent_left_noise_identity_basis(self, group24):
        q = 0.99
        noisy = build_noisy_gateset(NoiseModel.left(depolarizing(q)), group24)
        curve = fidelity_curve_exact(dominant_spectrum(build_twirl(group24, noisy)), np.eye(2), range(1, 33))
        powers = q ** curve.depths.astype(float)
        assert np.max(np.abs(curve.traceless_fidelity - powers)) < 1e-10
        assert curve.amplitude == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(curve.residual)) < 1e-10

    def test_conjugation_model_at_matched_basis(self, group24, rng):
        u = random_unitary(2, rng)
        noisy = build_noisy_gateset(NoiseModel.conjugation(unitary_to_superop(u)), group24)
        curve = fidelity_curve_exact(dominant_spectrum(build_twirl(group24, noisy)), u, range(1, 17))
        assert np.max(np.abs(curve.traceless_fidelity - 1.0)) < 1e-10

    def test_relabeling_identity_basis_is_flat_zero(self, group24):
        noisy = build_noisy_gateset(NoiseModel.conjugation({"channel": "relabeling"}), group24)
        curve = fidelity_curve_exact(dominant_spectrum(build_twirl(group24, noisy)), np.eye(2), range(1, 65))
        assert np.max(np.abs(curve.traceless_fidelity)) < 1e-10
        assert np.all(np.isnan(curve.ratio_deviation))

    @pytest.mark.parametrize(
        "depths, message",
        [
            # [1.5, 2.9] used to be read as depths [1, 2]; 2^63 overflowed int64
            ([1.5, 2.9], "depths: expected a non-empty list of integers >= 0, got \\[1.5, 2.9\\]"),
            ([1, True], "depths: expected a non-empty list of integers >= 0"),
            ([-1, 2], "depths: expected a non-empty list of integers >= 0"),
            ([], "depths: expected a non-empty list of integers >= 0"),
            ("12", "depths: expected a non-empty list of integers >= 0"),
            ([2 ** 63], "depths: expected every depth below 2\\^32, got 9223372036854775808"),
            # len() of this range overflowed; a range is checked from its ends
            (range(1, 2 ** 70), "depths: expected every depth below 2\\^32, got 1180591620717411303423"),
            # walking this range in Python took minutes before the bound applied
            (range(-1, 2 ** 31), "depths: expected a non-empty list of integers >= 0, got range\\(-1, 2147483648\\)"),
            (range(3, 3), "depths: expected a non-empty list of integers >= 0"),
            # a 0-d array raised TypeError from len(); anything not 1-D is refused
            (np.array(5), "depths: expected a non-empty list of integers >= 0, got array\\(5\\)"),
            (np.array([[1, 2]]), "depths: expected a non-empty list of integers >= 0"),
            # an integer array is checked in one vectorised pass; bool and float arrays stay refused
            (np.array([1, 2 ** 40]), "depths: expected every depth below 2\\^32, got 1099511627776"),
            (np.array([-1, 2]), "depths: expected a non-empty list of integers >= 0"),
            (np.array([True, False]), "depths: expected a non-empty list of integers >= 0"),
            (np.array([1.0, 2.0]), "depths: expected a non-empty list of integers >= 0"),
            (np.array([], dtype=np.int64), "depths: expected a non-empty list of integers >= 0"),
        ],
    )
    def test_bad_grid_raises_config_error(self, ztilt_spectrum, depths, message):
        with pytest.raises(ConfigError, match=message):
            fidelity_curve_exact(ztilt_spectrum, np.eye(2), depths)

    def test_grid_forms_agree(self, ztilt_spectrum):
        want = fidelity_curve_exact(ztilt_spectrum, np.eye(2), [1, 2, 3]).fidelity
        for depths in (range(1, 4), (1, 2, 3), np.arange(1, 4), np.array([1, 2, 3], dtype=np.uint32)):
            assert np.array_equal(fidelity_curve_exact(ztilt_spectrum, np.eye(2), depths).fidelity, want)
        # a descending range: its ends are its largest and smallest depth
        assert np.array_equal(fidelity_curve_exact(ztilt_spectrum, np.eye(2), range(3, 0, -1)).fidelity, want[::-1])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_depth_zero_is_perfect_in_every_frame(self, group24, group11520, dim):
        # m = 0 applies no gate, so f_tr(0) = F(0) = 1 in the I, U and U^2 frames
        group = group24 if dim == 2 else group11520
        noisy = build_noisy_gateset(NoiseModel.z_tilt(0.1, cz_epsilon=0.1 if dim == 4 else 0.0), group)
        spectrum = dominant_spectrum(build_twirl(group, noisy))
        u = correct_spectrum(spectrum).unitary
        for frame in (np.eye(dim), u, u @ u):
            curve = fidelity_curve_exact(spectrum, frame, [0])
            assert curve.traceless_fidelity[0] == pytest.approx(1.0, abs=1e-12)
            assert curve.fidelity[0] == pytest.approx(1.0, abs=1e-12)

    def test_affine_relation_between_f_and_ftr(self, ztilt_spectrum):
        curve = fidelity_curve_exact(ztilt_spectrum, np.eye(2), range(1, 20))
        assert np.allclose(
            curve.fidelity, 0.5 + 0.5 * curve.traceless_fidelity, atol=1e-15
        )

    def test_update_law_bound(self, ztilt_spectrum):
        curve = fidelity_curve_exact(ztilt_spectrum, np.eye(2), range(1, 40))
        p = ztilt_spectrum.p
        f = curve.fidelity
        ftr = curve.traceless_fidelity
        delta = curve.ratio_deviation
        lhs = np.abs(f[1:] - (0.5 + p * (f[:-1] - 0.5)))
        rhs = np.abs(delta[:-1]) * 0.5 * np.abs(ftr[:-1])
        assert np.all(lhs <= rhs + 1e-14)

    def test_amplitude_is_normalization_independent(self, group24, ztilt_spectrum, rng):
        # recompute the amplitude from raw (unnormalized) eigenvectors
        t = ztilt_spectrum.twirl.mat
        evals, evecs = np.linalg.eig(t)
        order = np.argsort(-np.abs(evals))
        vr = np.real(evecs[:, order[0]]) * 3.7
        evals_l, evecs_l = np.linalg.eig(t.T)
        il = int(np.argmin(np.abs(evals_l - evals[order[0]])))
        vl = np.real(evecs_l[:, il]) * -0.21
        u = random_unitary(2, rng)
        us = unitary_to_superop(u).mat
        num = (vl @ vec(us)) * (vec(us) @ vr)
        den = 3.0 * (vl @ vr)
        assert ztilt_spectrum.decay_amplitude(unitary_to_superop(u)) == pytest.approx(num / den, rel=1e-8)

    def test_ratio_deviation_definition(self, ztilt_spectrum):
        curve = fidelity_curve_exact(ztilt_spectrum, np.eye(2), range(1, 10))
        wide = fidelity_curve_exact(ztilt_spectrum, np.eye(2), range(1, 11))
        ratios = wide.traceless_fidelity[1:] / wide.traceless_fidelity[:-1]
        assert np.allclose(curve.ratio_deviation, ratios - ztilt_spectrum.p, atol=1e-13)

    def test_residual_vector_expansion_reconstructs_curve(self, ztilt_spectrum, rng):
        # w, v and the deflated remainder give an independent route to D(m, U)
        u = random_unitary(2, rng)
        a, w, b, v = residual_vectors(ztilt_spectrum, u)
        curve = fidelity_curve_exact(ztilt_spectrum, u, range(1, 9))
        remainder = deflated(ztilt_spectrum)
        delta_m = np.eye(16)
        for i, m in enumerate(curve.depths):
            for _ in range(m - (curve.depths[i - 1] if i else 0)):
                delta_m = remainder @ delta_m
            d_from_expansion = (
                np.sqrt(1 - a ** 2) * np.sqrt(1 - b ** 2) * (w @ delta_m @ v)
            )
            assert curve.residual[i] == pytest.approx(d_from_expansion, abs=1e-10)

    def test_log_fit_refuses_a_window_at_or_below_one_over_d(self, group24):
        # the correction U is a 1.2 rad x rotation, so U^2 turns by 2.4 rad: F - 1/2 < 0
        noisy = build_noisy_gateset(NoiseModel.right(rotation("x", 1.2)), group24)
        spectrum = dominant_spectrum(build_twirl(group24, noisy))
        u = correct_spectrum(spectrum).unitary
        curve = fidelity_curve_exact(spectrum, u @ u, range(1, 13))
        with pytest.raises(FitWindowError, match=r"at depth 5, so the log fit over m = 5\.\.10 is undefined"):
            curve.log_fit(5, 10)

    def test_deviation_decays_monotonically(self, ztilt_spectrum, overrot_spectrum):
        for spectrum in (ztilt_spectrum, overrot_spectrum):
            for basis in (np.eye(2),):
                curve = fidelity_curve_exact(spectrum, basis, range(1, 30))
                dev = np.abs(curve.ratio_deviation)
                for i in range(1, len(dev) - 1):  # m >= 2
                    assert dev[i + 1] <= dev[i] + 1e-15 or dev[i + 1] <= 1e-12


class TestFidelityCurveMC:
    def test_matches_exact_within_three_stderr(self, group24, ztilt_noisy, ztilt_spectrum):
        depths = [1, 2, 5, 10, 20]
        mc = fidelity_curve_mc(group24, ztilt_noisy, np.eye(2), depths, samples=2000, seed=99)
        exact = fidelity_curve_exact(ztilt_spectrum, np.eye(2), depths)
        for i in range(len(depths)):
            assert abs(mc.fidelity[i] - exact.fidelity[i]) <= 3 * max(mc.stderr[i], 1e-12)

    def test_ideal_noise_gives_exactly_one(self, group24):
        noisy = build_noisy_gateset(NoiseModel("ideal"), group24)
        mc = fidelity_curve_mc(group24, noisy, np.eye(2), [1, 4, 8], samples=50, seed=3)
        assert np.max(np.abs(mc.fidelity - 1.0)) < 1e-12
        assert np.max(mc.stderr) < 1e-12

    def test_seeded_reproducibility(self, group24, ztilt_noisy):
        mc1 = fidelity_curve_mc(group24, ztilt_noisy, np.eye(2), [1, 5], samples=100, seed=7)
        mc2 = fidelity_curve_mc(group24, ztilt_noisy, np.eye(2), [1, 5], samples=100, seed=7)
        assert np.array_equal(mc1.fidelity, mc2.fidelity)
        assert np.array_equal(mc1.stderr, mc2.stderr)

    def test_rejects_zero_samples(self, group24, ztilt_noisy):
        with pytest.raises(ValueError):
            fidelity_curve_mc(group24, ztilt_noisy, np.eye(2), [1], samples=0, seed=1)


class TestBauerFike:
    def test_subleading_eigenvalues_within_sqrt_infidelity(self, group24):
        models = {
            "z_tilt": NoiseModel.z_tilt(0.1),
            "over_rotation": NoiseModel.over_rotation(0.1),
            "left_depolarizing": NoiseModel.left(depolarizing(0.995)),
            "relabeling": NoiseModel.conjugation({"channel": "relabeling"}),
        }
        for name, model in models.items():
            noisy = build_noisy_gateset(model, group24)
            t = build_twirl(group24, noisy)
            report = perturbation_report(group24, noisy, np.eye(2))
            bound = 10 * np.sqrt(max(report.mean_infidelity, 0.0))
            radius = nondominant_radius(t)
            assert radius <= bound + 1e-12, name
