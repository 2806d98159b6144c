from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import polar as scipy_polar
from scipy.optimize import minimize
from scipy.spatial.transform import Rotation

import rblab.correction
from rblab.channels import (
    SuperOp,
    pauli_basis,
    unitary_to_superop,
)
from rblab.cli import load_config
from rblab.correction import (
    CorrectionResult,
    ImproperRotationError,
    SingularBlockError,
    _ascend,
    _corrected_fidelity,
    _rotation_vector,
    _structure_constants,
    correct_from_noisy_set,
    correct_spectrum,
    incoherence_defect,
    lift_rotation,
    optimize_correct,
    polar_correct,
)
from rblab.noise import (
    NoiseModel,
    NoisyGateSet,
    amplitude_damping,
    build_noisy_gateset,
    dephasing,
    depolarizing,
    pulse,
    rotation,
)
from rblab.twirl import build_twirl, dominant_spectrum, fidelity_curve_exact
from reference import (
    exp_i_pauli_sum,
    ideal_mats,
    infidelity,
    order_m_error_blocks,
    random_ascent_starts,
    random_unitary,
    traceless_fidelity,
    verify_decay_law,
)
from test_twirl import perturbation_report

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# values computed once from the tilt model via the grid+refine oracle below
ZTILT_CORRECTION_ANGLE = 0.0864951677497197
ZTILT_POLAR_FIDELITY = 0.9987184191385898


def tilt_right_block(group24, ztilt_noisy, ztilt_spectrum):
    right, _ = order_m_error_blocks(ztilt_spectrum.twirl, 4)
    return right


def block_fidelity(block):
    return 0.5 + 0.5 * np.trace(block) / 3.0


class TestLift:
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_over_rotation_vectors(self, vx, vy, vz):
        r3 = Rotation.from_rotvec([vx, vy, vz]).as_matrix()
        u = lift_rotation(r3)
        assert np.max(np.abs(unitary_to_superop(u).mat[1:, 1:] - r3)) < 1e-8

    def test_identity(self):
        assert np.array_equal(lift_rotation(np.eye(3)), np.eye(2))

    def test_non_rotation_fails_its_reproduction_check(self):
        # not orthogonal: read as a rotation about x, whose block differs from the input
        with pytest.raises(RuntimeError, match="does not reproduce the rotation block"):
            lift_rotation(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 2.0, 0.0]]))


# angles where the rotation-vector read-off changes branch: zero, both sides
# of the 1e-3 series switch, a log-spaced sweep, and just short of pi
SWITCH = 1e-3
ROTVEC_ANGLES = [
    0.0,
    np.nextafter(SWITCH, 0.0),
    SWITCH,
    np.nextafter(SWITCH, 1.0),
    SWITCH * (1 - 1e-9),
    SWITCH * (1 + 1e-9),
    *np.logspace(-8, np.log10(np.pi), 25),
    np.pi - 1e-9,
]
ROTVEC_AXES = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, -2.0, 3.0),
]
# half-turn axes: the quaternion's w is exactly 0, so the sign rule decides;
# about (0, -1, 2) the chosen branch leaves x = 0 and y < 0, which flips
HALF_TURN_AXES = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, -1.0, 0.0),
    (0.0, -1.0, 2.0),
    (-1.0, 2.0, 2.0),
]


def unit(axis):
    return np.asarray(axis) / np.linalg.norm(axis)


def half_turn(axis):
    """Exact-as-floats rotation by pi about `axis`: 2 n n^T - I, symmetric by construction."""
    n = unit(axis)
    return 2.0 * np.outer(n, n) - np.eye(3)


def rotation_inputs():
    for angle in ROTVEC_ANGLES:
        for axis in ROTVEC_AXES:
            yield f"{angle!r}@{axis}", Rotation.from_rotvec(angle * unit(axis)).as_matrix()
    for axis in HALF_TURN_AXES:
        yield f"pi@{axis}", half_turn(axis)
        yield f"rotvec-pi@{axis}", Rotation.from_rotvec(np.pi * unit(axis)).as_matrix()
    # rounding in the norms shows up on a few per thousand generic rotations
    rng = np.random.default_rng(20261018)
    for k in range(2000):
        n = unit(rng.normal(size=3))
        yield f"random-{k}", Rotation.from_rotvec(rng.uniform(0.0, np.pi) * n).as_matrix()


ROTATION_INPUTS = list(rotation_inputs())


class TestScipyFreeRoutes:
    """The numpy polar split and rotation vector agree with scipy bit for bit."""

    def test_polar_matches_scipy(self, rng):
        for _ in range(200):
            rot = Rotation.from_rotvec(rng.normal(scale=1.0, size=3)).as_matrix()
            block = (np.eye(3) + rng.normal(scale=0.05, size=(3, 3))) @ rot
            v_ref, d_ref = scipy_polar(block, side="left")
            result = polar_correct(block)
            assert np.array_equal(result.rotation, v_ref)
            # B R^T = D R R^T equals scipy's positive factor to rounding
            assert np.max(np.abs(result.corrected_block - d_ref)) <= 1e-12

    def test_rotation_vector_matches_scipy(self):
        mismatched = [
            name
            for name, r3 in ROTATION_INPUTS
            if not np.array_equal(_rotation_vector(r3), Rotation.from_matrix(r3).as_rotvec())
        ]
        assert not mismatched

    def test_lift_reproduces_block(self):
        for name, r3 in ROTATION_INPUTS:
            u = lift_rotation(r3)  # raises if its own reproduction check fails
            assert np.max(np.abs(unitary_to_superop(u).mat[1:, 1:] - r3)) <= 1e-8, name

    def test_half_turn_sign_rule_is_exercised(self):
        # w == 0 and the first non-zero of x, y, z negative: the vector flips
        assert np.array_equal(np.sign(_rotation_vector(half_turn((0.0, -1.0, 2.0)))), [0, 1, -1])

    def test_polar_factors_read_angle_and_axis_like_scipy(self, rng):
        rot = Rotation.from_rotvec(rng.normal(scale=0.5, size=3)).as_matrix()
        result = polar_correct(0.95 * rot)
        rotvec = Rotation.from_matrix(result.rotation).as_rotvec()
        assert result.rotation_angle == float(np.linalg.norm(rotvec))
        assert np.array_equal(result.rotation_axis, rotvec / np.linalg.norm(rotvec))


class TestPolarCorrect:
    def test_pure_rotation_input_fully_corrected(self):
        r3 = Rotation.from_rotvec([0.1, -0.05, 0.2]).as_matrix()
        result = polar_correct(r3)
        assert np.max(np.abs(result.corrected_block - np.eye(3))) < 1e-12
        corrected = r3 @ unitary_to_superop(result.unitary).mat[1:, 1:]
        assert block_fidelity(corrected) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_input_needs_no_correction(self):
        result = polar_correct(0.9 * np.eye(3))
        assert np.max(np.abs(result.rotation - np.eye(3))) < 1e-12
        assert np.max(np.abs(result.unitary - np.eye(2))) < 1e-12

    def test_reconstruction_and_uniqueness(self, rng):
        for _ in range(20):
            d = rng.uniform(0.9, 1.0, size=3)
            rot = Rotation.from_rotvec(rng.normal(scale=0.3, size=3)).as_matrix()
            basis = Rotation.from_rotvec(rng.normal(scale=1.0, size=3)).as_matrix()
            block = basis @ np.diag(d) @ basis.T @ rot
            result = polar_correct(block)
            # B R^T symmetric positive definite is what makes R the polar factor
            corrected = result.corrected_block
            assert np.max(np.abs(corrected - corrected.T)) < 1e-10
            assert np.linalg.eigvalsh(corrected).min() > 0
            assert np.max(np.abs(result.rotation - rot)) < 1e-10

    def test_tilt_model_pinned_angle(self, group24, ztilt_noisy, ztilt_spectrum):
        result = polar_correct(tilt_right_block(group24, ztilt_noisy, ztilt_spectrum))
        assert result.rotation_angle == pytest.approx(ZTILT_CORRECTION_ANGLE, abs=1e-6)
        assert block_fidelity(result.corrected_block) == pytest.approx(ZTILT_POLAR_FIDELITY, abs=1e-9)

    def test_tilt_model_against_grid_refine_oracle(self, group24, ztilt_noisy, ztilt_spectrum):
        # independent oracle: search all Bloch rotations directly
        block = tilt_right_block(group24, ztilt_noisy, ztilt_spectrum)

        def fid(rotvec):
            return block_fidelity(block @ Rotation.from_rotvec(rotvec).as_matrix())

        grid = np.linspace(-0.15, 0.15, 7)
        best = max(
            ((vx, vy, vz) for vx in grid for vy in grid for vz in grid),
            key=lambda v: fid(np.array(v)),
        )
        refined = minimize(
            lambda v: -fid(v),
            np.array(best),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
        )
        result = polar_correct(block)
        assert abs(-refined.fun - block_fidelity(result.corrected_block)) < 1e-6

    def test_near_singular_rejected(self):
        with pytest.raises(SingularBlockError, match="near-singular"):
            polar_correct(np.diag([1.0, 1.0, 1e-8]))

    def test_improper_rotation_rejected(self):
        with pytest.raises(ImproperRotationError):
            polar_correct(0.9 * np.diag([1.0, 1.0, -1.0]))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="3x3"):
            polar_correct(np.eye(4))


class TestOptimizeCorrect:
    def test_matches_polar_fidelity(self, group24, ztilt_noisy, ztilt_spectrum):
        block = tilt_right_block(group24, ztilt_noisy, ztilt_spectrum)
        polar = polar_correct(block)
        result = optimize_correct(block, 2)
        assert isinstance(result, CorrectionResult)
        assert abs(result.fidelity - block_fidelity(polar.corrected_block)) < 1e-8

    def test_ideal_input_returns_identity(self):
        result = optimize_correct(np.eye(3), 2)
        assert result.converged
        assert result.fidelity == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(unitary_to_superop(result.unitary).mat - np.eye(4))) < 1e-6

    def test_correction_never_hurts(self, group24, overrot_noisy, overrot_spectrum):
        block, _ = order_m_error_blocks(overrot_spectrum.twirl, 4)
        result = optimize_correct(block, 2)
        assert result.fidelity >= block_fidelity(block) - 1e-12

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="Bloch block"):
            optimize_correct(np.eye(4), 2)

    def test_non_converged_ascent_is_flagged_not_raised(self, group11520):
        # over-rotation 1.1 at d=4 is far outside the perturbative regime
        model = NoiseModel.from_config({"kind": "over_rotation", "epsilon": 1.1}, 4)
        noisy = build_noisy_gateset(model, group11520)
        block, _ = order_m_error_blocks(build_twirl(group11520, noisy), 4)
        result = optimize_correct(block, 4)
        assert not result.converged
        assert result.iterations == 500


def transfer_matrix_fidelity(block, dim, u):
    """The optimizer's objective read off the transfer matrix of U."""
    n = dim ** 2 - 1
    u_block = unitary_to_superop(u).mat[1:, 1:]
    return 1.0 / dim + (dim - 1.0) / dim * float(np.sum(block * u_block.T)) / n


def exact_derivative_point(dim, kind, rng):
    """A random block, a unitary U of the given kind and exp(i sum_l t_l P_l) at dimension dim."""
    n = dim ** 2 - 1
    block = np.eye(n) + rng.normal(scale=0.3, size=(n, n))
    theta = {
        "zero": np.zeros(n),  # U is the identity
        "single_axis": 0.4 * np.eye(n)[n - 1],  # degenerate eigenvalues of U at d=4
        "random": rng.normal(scale=0.5, size=n),
        "large": rng.normal(scale=2.0, size=n),  # eigenvalues of H of order pi
    }[kind]
    def exp_i(theta):
        return pulse(np.tensordot(theta, pauli_basis(dim)[1:], axes=1), 2.0)

    return block, exp_i(theta), exp_i


class TestStructureConstants:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_equal_the_commutator_definition(self, dim):
        gens = pauli_basis(dim)[1:]
        expected = np.array([
            [[-np.trace(pk @ (pl @ pj - pj @ pl)).imag / dim for pj in gens] for pk in gens] for pl in gens
        ])
        consts = _structure_constants(dim)
        assert np.array_equal(consts, expected)
        assert not consts.flags.writeable
        assert _structure_constants(dim) is consts  # built once per dimension


class TestExactGradient:
    """The closed-form objective, gradient and Hessian against the transfer-matrix route."""

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kind", ["zero", "single_axis", "random", "large"])
    def test_matches_central_differences(self, dim, kind, rng):
        block, u, exp_i = exact_derivative_point(dim, kind, rng)
        n = dim ** 2 - 1
        value, grad, _ = _corrected_fidelity(np.tensordot(block.T, pauli_basis(dim)[1:], axes=1), u)
        assert value == pytest.approx(transfer_matrix_fidelity(block, dim, u), abs=1e-13)
        step = 1e-5
        numeric = np.array([
            (transfer_matrix_fidelity(block, dim, exp_i(step * e) @ u)
             - transfer_matrix_fidelity(block, dim, exp_i(-step * e) @ u)) / (2 * step)
            for e in np.eye(n)
        ])
        assert np.max(np.abs(grad - numeric)) < 1e-8

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("kind", ["zero", "single_axis", "random", "large"])
    def test_hessian_matches_central_second_differences(self, dim, kind, rng):
        block, u, exp_i = exact_derivative_point(dim, kind, rng)
        _, _, hess = _corrected_fidelity(np.tensordot(block.T, pauli_basis(dim)[1:], axes=1), u)
        assert np.array_equal(hess, hess.T)

        def f(t):
            return transfer_matrix_fidelity(block, dim, exp_i(t) @ u)

        step = 1e-4  # truncation about 2e-6 at 1e-3; rounding about 1e-8 here
        e = step * np.eye(dim ** 2 - 1)
        numeric = np.array([
            [(f(el + em) - f(el - em) - f(em - el) + f(-el - em)) / (4 * step ** 2) for em in e]
            for el in e
        ])
        assert np.max(np.abs(hess - numeric)) < 1e-6


def d4_right_block(group, model):
    right_blk, _ = order_m_error_blocks(build_twirl(group, build_noisy_gateset(model, group)), 4)
    return right_blk


@pytest.fixture(scope="module")
def d4_right_blocks(group11520):
    ztilt_cfg = load_config(str(CONFIG_DIR / "ztilt_d4.json"))
    return {
        "ztilt_d4": d4_right_block(group11520, NoiseModel.from_config(ztilt_cfg["model"], 4)),
        "overrot_cz": d4_right_block(group11520, NoiseModel.over_rotation(0.1, cz_epsilon=0.1)),
    }


class TestAscentFromTheIdentity:
    """The one ascent, from the identity, reaches the maximum that random starts reach."""

    @pytest.mark.parametrize("name", ["ztilt_d4", "overrot_cz"])
    @pytest.mark.parametrize("seed", [0, 19])
    def test_identity_start_matches_every_random_start(self, d4_right_blocks, name, seed):
        block = d4_right_blocks[name]
        q = np.tensordot(block.T, pauli_basis(4)[1:], axes=1)
        result = optimize_correct(block, 4)
        assert result.converged and result.start_index == 0
        for start in random_ascent_starts(4, seed):
            value, u, converged, iterations = _ascend(q, start)
            assert converged and iterations <= 50
            assert abs(value - result.fidelity) <= 1e-12
            direct = transfer_matrix_fidelity(block, 4, u)
            assert value == pytest.approx(direct, abs=1e-13)

    def test_ideal_input_stays_at_the_identity(self):
        result = optimize_correct(np.eye(15), 4)
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.unitary, np.eye(4))


class TestStrictMaximum:
    """The ascent ends on a strict local maximum, pinned to rounding, or flags that it did not."""

    @pytest.mark.parametrize("name", ["ztilt_d4", "overrot_cz"])
    def test_rounding_change_of_the_block_leaves_the_unitary(self, d4_right_blocks, name):
        block = d4_right_blocks[name]
        noise = np.random.default_rng(20261019).standard_normal(block.shape)
        base = optimize_correct(block, 4).unitary
        moved = optimize_correct(block * (1 + 1e-15 * noise), 4).unitary
        phase = np.vdot(base, moved)  # up to a global phase
        assert np.max(np.abs(moved * (abs(phase) / phase) - base)) < 1e-12

    def test_degenerate_maximum_is_not_converged(self):
        # the identity maximises tr(B R) for B = diag(1, -1, 1), but so does every
        # rotation about x or z: two Hessian eigenvalues are zero
        result = optimize_correct(np.diag([1.0, -1.0, 1.0]), 2)
        assert not result.converged and result.iterations == 1  # no step raises f: it stops at once
        assert result.fidelity == pytest.approx(2.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_near_degenerate_maximum_stops_unconverged(self, seed):
        # a rounding-level antisymmetric part gives a non-zero gradient, so the line
        # search runs; a flat step accepted there walks on for up to 155 iterations
        a = np.random.default_rng(seed).standard_normal((3, 3))
        result = optimize_correct(np.diag([1.0, -1.0, 1.0]) + 1e-16 * (a - a.T), 2)
        assert not result.converged and result.iterations <= 4
        assert result.fidelity == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_zero_gradient_ends_after_one_evaluation(self, monkeypatch):
        calls = []

        def counted(q, u):
            calls.append(1)
            return _corrected_fidelity(q, u)

        monkeypatch.setattr(rblab.correction, "_corrected_fidelity", counted)
        result = optimize_correct(np.eye(15), 4)
        assert result.converged and result.iterations == 1 and len(calls) == 1


class TestKnownFrameD4:
    """A d=4 conjugation by a known V: the correction recovers V and the plain p^m law."""

    @pytest.mark.parametrize("theta", [0.05, 0.3])
    def test_correction_recovers_the_conjugating_unitary(self, group11520, theta):
        coeffs = np.random.default_rng(20261018).normal(size=15)
        v = exp_i_pauli_sum(4, theta * coeffs / np.linalg.norm(coeffs))
        noisy = build_noisy_gateset(NoiseModel.conjugation(unitary_to_superop(v)), group11520)
        twirl = build_twirl(group11520, noisy)
        spectrum = dominant_spectrum(twirl)
        result = correct_spectrum(spectrum)
        assert result.converged
        assert np.max(np.abs(unitary_to_superop(result.unitary).mat - unitary_to_superop(v).mat)) <= 1e-6
        depths = np.arange(1, 33)
        law = spectrum.p ** depths.astype(float)
        corrected = fidelity_curve_exact(spectrum, result.unitary, depths).traceless_fidelity
        assert np.max(np.abs(corrected - law)) <= 1e-12
        identity = fidelity_curve_exact(spectrum, np.eye(4), depths).traceless_fidelity
        assert np.max(np.abs(identity - law)) >= 1e-3


class TestGaugeCovariance:
    """A change of frame S G S^T of every noisy gate, S = R(V), moves the correction
    with it, so neither the corrected curve f_tr(m) nor the reported gate-set circuit
    fidelity F_U(1) changes.

    V is a moderate rotation, exp(i 0.2 sum_l n_l P_l) with n standard normal, or
    Haar-random (`random_unitary`).  On z-tilt and over-rotation 0.1 (CZ 0.1 at
    d=4), over seeds 0-199 at d=2 and 0-23 at d=4, every frame converges, in 0
    iterations at d=2 and 4-21 at d=4 (3 in the original frame).  The curves
    agree to 7.7e-14, F_U(1) (1 - F_U(1) = 1.0770e-2 on z-tilt at d=4) to
    6.6e-15, and the block fidelity to 5e-15.  Without the positive-determinant
    orientation, the Haar frames whose block reads det < 0 raise
    ImproperRotationError at d=2 (111 of 200 z-tilt seeds), and at d=4 stop
    unconverged near block fidelity 0.30 or, on over-rotation seeds 0, 6, 8,
    11, 16, 18 and 21, converge there with F_U(1) 0.716 off.
    """

    DEPTHS = range(0, 33)

    @classmethod
    def corrected(cls, group, noisy):
        spectrum = dominant_spectrum(build_twirl(group, noisy))
        result = correct_spectrum(spectrum)
        curve = fidelity_curve_exact(spectrum, result.unitary, cls.DEPTHS)
        return curve.traceless_fidelity, curve.fidelity[1], result  # F_U(1), as `rblab correct` reports it

    @classmethod
    def assert_covariant(cls, group, model, v):
        """Every gap between the original and the frame V; returns the framed ascent's iterations."""
        s = unitary_to_superop(v).mat
        noisy = build_noisy_gateset(model, group)
        moved = NoisyGateSet(group.dim, np.stack([s @ g @ s.T for g in noisy.mats]))
        base, base_f1, result = cls.corrected(group, noisy)
        gauged, gauged_f1, moved_result = cls.corrected(group, moved)
        assert result.converged and moved_result.converged
        assert np.max(np.abs(gauged - base)) <= 1e-12
        assert abs(gauged_f1 - base_f1) <= 1e-13
        assert abs(moved_result.fidelity - result.fidelity) <= 1e-13
        return moved_result.iterations

    @staticmethod
    def moderate(dim, seed):
        return exp_i_pauli_sum(dim, 0.2 * np.random.default_rng(seed).normal(size=dim ** 2 - 1))

    @pytest.mark.parametrize(
        "model", [NoiseModel.z_tilt(0.1), NoiseModel.over_rotation(0.1)], ids=["z_tilt", "over_rotation"]
    )
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_qubit(self, group24, model, seed):
        assert self.assert_covariant(group24, model, self.moderate(2, seed)) == 0  # the polar split

    @pytest.mark.parametrize(
        "model", [NoiseModel.z_tilt(0.1), NoiseModel.over_rotation(0.1)], ids=["z_tilt", "over_rotation"]
    )
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_single_qubit_haar(self, group24, model, seed):
        self.assert_covariant(group24, model, random_unitary(2, np.random.default_rng(seed)))

    @pytest.mark.parametrize(
        "model",
        [NoiseModel.z_tilt(0.1, cz_epsilon=0.1), NoiseModel.over_rotation(0.1)],
        ids=["z_tilt", "over_rotation"],
    )
    @pytest.mark.parametrize("seed", [3, 17])
    def test_two_qubit(self, group11520, model, seed):
        assert self.assert_covariant(group11520, model, self.moderate(4, seed)) <= 9

    @pytest.mark.parametrize(
        "model",
        [NoiseModel.z_tilt(0.1, cz_epsilon=0.1), NoiseModel.over_rotation(0.1)],
        ids=["z_tilt", "over_rotation"],
    )
    @pytest.mark.parametrize("seed", range(4))  # det < 0 as oriented by Pi_tr at seeds 0, 1 and 3
    def test_two_qubit_haar(self, group11520, model, seed):
        assert self.assert_covariant(group11520, model, random_unitary(4, np.random.default_rng(seed))) <= 21


class TestCorrectionInput:
    """The correction reads sqrt(d^2 - 1) times the traceless block of the asymptotic
    right error operator, oriented to a positive determinant."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_ideal_set_block_is_the_identity(self, request, dim):
        group = request.getfixturevalue("group24" if dim == 2 else "group11520")
        spectrum = dominant_spectrum(build_twirl(group, build_noisy_gateset(NoiseModel("ideal"), group)))
        result = correct_spectrum(spectrum)
        # measured: 1.1e-16 and 2.2e-16 off the identity, defects 1.1e-16 and 0
        assert np.max(np.abs(result.corrected_block - np.eye(dim ** 2 - 1))) <= 1e-15
        assert incoherence_defect(result.corrected_block) <= 1e-15

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json") if p.stem != "relabeling_d2"))
    def test_same_unitary_as_the_order_four_block(self, request, name):
        # the relabeling's order-4 block is exactly zero: T^4 vec(Pi_tr) has no dominant part
        cfg = load_config(str(CONFIG_DIR / f"{name}.json"))
        dim = cfg.get("dim", 2)
        group = request.getfixturevalue("group24" if dim == 2 else "group11520")
        twirl = build_twirl(group, build_noisy_gateset(NoiseModel.from_config(cfg["model"], dim), group))
        block, _ = order_m_error_blocks(twirl, 4)
        order4 = polar_correct(block) if dim == 2 else optimize_correct(block, dim)
        u = correct_spectrum(dominant_spectrum(twirl)).unitary
        # up to a global phase; measured at most 1e-15
        assert 1.0 - abs(np.trace(u.conj().T @ order4.unitary)) / dim <= 1e-12


class TestIncoherenceDefect:
    def test_depolarizing_is_exactly_incoherent(self):
        assert incoherence_defect(0.8 * np.eye(3)) == 0.0

    def test_rotation_defect_grows_with_angle(self):
        defects = [
            incoherence_defect(Rotation.from_rotvec([0, 0, phi]).as_matrix())
            for phi in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(d > 0 for d in defects)
        assert all(b > a for a, b in zip(defects, defects[1:]))

    def test_amplitude_damping_within_second_order(self):
        op = amplitude_damping(0.01)
        defect = incoherence_defect(op.mat[1:, 1:])
        r = infidelity(op)
        assert defect <= 5 * r ** 2


class TestVerifyDecayLaw:
    def test_conjugation_with_exact_basis(self, group24, rng):
        basis = random_unitary(2, rng)
        noisy = build_noisy_gateset(NoiseModel.conjugation(unitary_to_superop(basis)), group24)
        report = verify_decay_law(group24, noisy, basis, range(1, 33))
        assert report.max_residual < 1e-10
        assert report.passed

    def test_tilt_model_envelope(self, group24, ztilt_noisy, ztilt_spectrum):
        basis = correct_from_noisy_set(group24, ztilt_noisy, spectrum=ztilt_spectrum)
        report = verify_decay_law(
            group24, ztilt_noisy, basis, range(1, 129), spectrum=ztilt_spectrum
        )
        assert report.passed
        report_i = verify_decay_law(
            group24, ztilt_noisy, np.eye(2), range(1, 129), spectrum=ztilt_spectrum
        )
        assert report_i.max_residual >= 10 * report.envelope

    def test_sandwich_fixed_error_match(self, group24):
        left = depolarizing(0.999)
        right = rotation("y", 0.05)
        noisy = NoisyGateSet(2, np.stack([left.mat @ mat @ right.mat for mat in ideal_mats(group24)]))
        spectrum = dominant_spectrum(build_twirl(group24, noisy))
        basis = correct_from_noisy_set(group24, noisy, spectrum=spectrum)
        report = verify_decay_law(
            group24,
            noisy,
            basis,
            range(1, 65),
            spectrum=spectrum,
            left_error=left,
            right_error=right,
        )
        assert report.passed
        assert report.match_residual is not None
        assert report.match_residual <= 10 * (1 - spectrum.p) ** 2
        assert report.multiplicativity_residual <= 10 * (1 - spectrum.p) ** 2


class TestPerturbationReport:
    def test_corrected_basis_matches_decay_infidelity(
        self, group24, ztilt_noisy, ztilt_spectrum
    ):
        basis = correct_from_noisy_set(group24, ztilt_noisy, spectrum=ztilt_spectrum)
        report = perturbation_report(group24, ztilt_noisy, basis)
        target = (1 - ztilt_spectrum.p) / 2
        assert abs(report.mean_infidelity - target) <= 10 * (1 - ztilt_spectrum.p) ** 2

    def test_identity_basis_shows_the_mismatch(self, group24, ztilt_noisy, ztilt_spectrum):
        report = perturbation_report(group24, ztilt_noisy, np.eye(2))
        assert report.mean_infidelity > 100 * (1 - ztilt_spectrum.p) / 2


class TestCompositeConjecture:
    @pytest.mark.parametrize(
        "factors",
        [
            [
                {"channel": "dephasing", "axis": "z", "q": 0.999},
                {"channel": "rotation", "axis": "z", "angle": 0.02},
                {"channel": "amplitude_damping", "gamma": 0.001},
                {"channel": "rotation", "axis": "x", "angle": 0.01},
            ],
            [
                {"channel": "amplitude_damping", "gamma": 0.002},
                {"channel": "rotation", "axis": "y", "angle": 0.03},
                {"channel": "dephasing", "axis": "x", "q": 0.9985},
                {"channel": "rotation", "axis": [1, 1, 0], "angle": 0.015},
            ],
        ],
    )
    def test_corrected_right_error_is_incoherent(self, group24, factors):
        noisy = build_noisy_gateset(NoiseModel.right(factors), group24)
        right_blk, _ = order_m_error_blocks(build_twirl(group24, noisy), 4)
        corrected = polar_correct(right_blk).corrected_block
        r = 1.0 - block_fidelity(corrected)
        assert incoherence_defect(corrected) <= 5 * r ** 2


class TestIncoherenceAlgebra:
    """Closure properties that make chain noise polar-correctable."""

    def test_conjugated_incoherent_channel_stays_incoherent(self, rng):
        d_block = amplitude_damping(0.004).mat[1:, 1:]
        r = infidelity(amplitude_damping(0.004))
        for _ in range(10):
            u_block = unitary_to_superop(random_unitary(2, rng)).mat[1:, 1:]
            conjugated = u_block @ d_block @ u_block.T
            assert incoherence_defect(conjugated) <= 5 * r ** 2

    def test_composition_of_incoherent_channels_stays_incoherent(self):
        a = amplitude_damping(0.003)
        b = depolarizing(0.998)
        c = dephasing(0.999, "x")
        block = (a @ b @ c).mat[1:, 1:]
        r = 1.0 - block_fidelity(block)
        assert incoherence_defect(block) <= 5 * r ** 2


class TestHypothesisFailure:
    @pytest.mark.parametrize("axis,angle", [("y", 0.15), ("x", 0.25), ([1, 1, 1], 0.2)])
    def test_decay_straddles_identity_basis_fidelity(self, group24, axis, angle):
        rot = rotation(axis, angle)
        dep = depolarizing(0.99)
        ideal = [SuperOp(2, mat) for mat in ideal_mats(group24)]
        conj_left = NoisyGateSet(
            2, np.stack([rot.mat @ dep.mat @ mat @ rot.mat.T for mat in ideal_mats(group24)])
        )
        double_daggered = NoisyGateSet(
            2, np.stack([rot.mat.T @ dep.mat @ mat @ rot.mat.T for mat in ideal_mats(group24)])
        )
        f1 = np.mean(
            [traceless_fidelity(nz, op) for nz, op in zip(conj_left, ideal)]
        )
        f2 = np.mean(
            [
                traceless_fidelity(nz, op)
                for nz, op in zip(double_daggered, ideal)
            ]
        )
        p1 = dominant_spectrum(build_twirl(group24, conj_left)).p
        p2 = dominant_spectrum(build_twirl(group24, double_daggered)).p
        assert p1 >= f1 - 1e-12
        assert p2 <= f2 + 1e-12
