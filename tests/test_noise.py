import numpy as np
import pytest
from scipy.linalg import expm

from rblab.channels import (
    SIGMA_I,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    STRUCT_TOL,
    SuperOp,
    pauli_basis,
    traceless_projector,
    unitary_to_superop,
)
from rblab.noise import (
    CZ_HAMILTONIAN,
    GENERATORS,
    ConfigError,
    NoiseModel,
    NoisyGateSet,
    _axis_vector,
    _resolve_errors,
    amplitude_damping,
    build_noisy_gateset,
    channel_from_spec,
    dephasing,
    depolarizing,
    generator_mats,
    pulse,
    relabeling_channel,
    rotation,
)
from reference import assert_completely_positive, find, ideal_mats, infidelity


def ptm_from_kraus(kraus):
    """Independent oracle: assemble the transfer matrix from Kraus operators."""
    paulis = pauli_basis(2)
    mat = np.empty((4, 4))
    for k in range(4):
        out = sum(op @ paulis[k] @ op.conj().T for op in kraus)
        for j in range(4):
            mat[j, k] = np.trace(paulis[j] @ out).real / 2
    return mat


class TestPulse:
    def test_zero_angle_is_identity(self):
        assert np.allclose(pulse(SIGMA_X, 0.0), np.eye(2), atol=1e-15)

    def test_two_quarter_x_pulses_equal_x_channel(self):
        u = pulse(SIGMA_X, np.pi / 2)
        assert np.allclose(
            unitary_to_superop(u @ u).mat, unitary_to_superop(SIGMA_X).mat, atol=1e-12
        )

    def test_unitarity(self):
        u = pulse(SIGMA_Y + 0.3 * SIGMA_Z, 1.234)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


class TestFactories:
    def test_depolarizing_limits(self):
        assert np.array_equal(depolarizing(1.0).mat, np.eye(4))
        zero = depolarizing(0.0)
        assert np.max(np.abs(zero.mat[1:, 1:])) == 0.0

    def test_amplitude_damping_matches_kraus_oracle(self):
        gamma = 0.13
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]])
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
        assert np.allclose(
            amplitude_damping(gamma).mat, ptm_from_kraus([k0, k1]), atol=1e-12
        )
        s = np.sqrt(1 - gamma)
        assert np.allclose(
            np.diag(amplitude_damping(gamma).mat)[1:], [s, s, 1 - gamma], atol=1e-12
        )

    def test_dephasing_matches_kraus_oracle(self):
        q = 0.9
        k0 = np.sqrt((1 + q) / 2) * SIGMA_I
        k1 = np.sqrt((1 - q) / 2) * SIGMA_Z
        assert np.allclose(dephasing(q, "z").mat, ptm_from_kraus([k0, k1]), atol=1e-12)

    def test_factories_completely_positive(self):
        # the factories' range checks are what keeps them CP, so the range
        # endpoints are covered here as well as interior points
        for op in (
            depolarizing(0.4),
            dephasing(0.6, "x"),
            amplitude_damping(0.25),
            rotation("y", 0.7),
            *(depolarizing(q) for q in (0.0, 1.0)),
            *(depolarizing(q, 4) for q in (0.0, 0.4, 1.0)),
            *(dephasing(q, axis) for q in (0.0, 1.0) for axis in "xyz"),
            *(amplitude_damping(gamma) for gamma in (0.0, 1.0)),
        ):
            assert_completely_positive(op)

    def test_choi_of_non_cp_map(self):
        inverted = np.eye(4)
        inverted[1:, 1:] *= -1.0  # Bloch inversion: trace-preserving but not CP
        with pytest.raises(ValueError, match="not completely positive"):
            assert_completely_positive(SuperOp(2, inverted))

    def test_parameter_range_errors(self):
        with pytest.raises(ValueError):
            depolarizing(1.5)
        with pytest.raises(ValueError):
            dephasing(-0.1)
        with pytest.raises(ValueError):
            amplitude_damping(2.0)

    def test_factories_incoherent_within_second_order(self):
        pi = traceless_projector(2)
        for op in (
            depolarizing(0.995),
            dephasing(0.99, "z"),
            dephasing(0.995, "x"),
            amplitude_damping(0.01),
            amplitude_damping(0.002),
        ):
            r = infidelity(op)
            overlap = np.sum(pi * op.mat) / 3.0
            scaled = np.linalg.norm(op.mat @ pi) / np.sqrt(3)
            assert abs(overlap - scaled) <= 5 * r ** 2

    @pytest.mark.parametrize(
        "axis, direction",
        [([1e-160, 1e-160, 0], [1, 1, 0]), ([1e-170, 1e-170, 0], [1, 1, 0]), ([5e-324, 0, 0], "x")],
    )
    def test_axis_with_underflowing_squares(self, axis, direction):
        assert np.linalg.norm(_axis_vector(axis)) == pytest.approx(1.0, abs=1e-15)
        diff = rotation(axis, 0.3).mat - rotation(direction, 0.3).mat
        assert np.max(np.abs(diff)) < 1e-15


DEPOLARIZING = {"channel": "depolarizing", "q": 0.9}


class TestChannelSpecs:
    def test_chain_composes_right_to_left(self):
        chain = channel_from_spec(
            [
                {"channel": "rotation", "axis": "z", "angle": 0.3},
                {"channel": "depolarizing", "q": 0.9},
            ],
            2,
        )
        direct = depolarizing(0.9) @ rotation("z", 0.3)
        assert np.allclose(chain.mat, direct.mat, atol=1e-14)

    def test_kron_channel(self):
        spec = {
            "channel": "kron",
            "first": {"channel": "depolarizing", "q": 0.9},
            "second": {"channel": "dephasing", "q": 0.8, "axis": "z"},
        }
        op = channel_from_spec(spec, 4)
        assert op.dim == 4
        assert np.allclose(op.mat, np.kron(depolarizing(0.9).mat, dephasing(0.8).mat))

    def test_unknown_channel_kind(self):
        with pytest.raises(ConfigError, match="unknown channel kind"):
            channel_from_spec({"channel": "leakage"}, 2)

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing key"):
            channel_from_spec({"channel": "depolarizing"}, 2)

    @pytest.mark.parametrize(
        "spec, dim, message",
        [
            ({"channel": "dephasing", "q": 0.9}, 4, "dephasing requires dimension 2, got 4"),
            ({"channel": "amplitude_damping", "gamma": 0.1}, 4, "amplitude_damping requires dimension 2, got 4"),
            ({"channel": "rotation", "angle": 0.3}, 4, "rotation requires dimension 2, got 4"),
            ({"channel": "kron", "first": DEPOLARIZING, "second": DEPOLARIZING}, 2, "kron requires dimension 4, got 2"),
            ({"channel": "relabeling"}, 4, "relabeling requires dimension 2, got 4"),
        ],
        ids=["dephasing", "amplitude_damping", "rotation", "kron", "relabeling"],
    )
    def test_kind_of_the_wrong_dimension_is_named(self, spec, dim, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            channel_from_spec(spec, dim)

    @pytest.mark.parametrize(
        "spec",
        [{"channel": "rotation", "angle": 0.3}, {"channel": "dephasing", "q": 0.9}],
        ids=["rotation", "dephasing"],
    )
    def test_axis_defaults_to_z(self, spec):
        assert np.array_equal(channel_from_spec(spec, 2).mat, channel_from_spec({**spec, "axis": "z"}, 2).mat)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (DEPOLARIZING, {"channel": "depolarizing", "q": 2},
             "second: channel spec 'depolarizing' with q=2: depolarizing parameter 2.0 outside [0, 1]"),
            (DEPOLARIZING, {"channel": "depolarizing", "qq": 0.9}, "second: qq: not a parameter of depolarizing"),
            ({"channel": "dephasing", "q": 0.9, "axis": "w"}, DEPOLARIZING,
             "first: channel spec 'dephasing' with q=0.9, axis='w': unknown dephasing axis 'w'"),
            ({"channel": "rotation", "axis": "w", "angle": 0.1}, DEPOLARIZING,
             "first: channel spec 'rotation' with axis='w', angle=0.1: unknown axis 'w'"),
        ],
        ids=["bad_value", "unknown_key", "bad_axis", "bad_rotation_axis"],
    )
    def test_bad_kron_half_is_named(self, first, second, message):
        kron = {"channel": "kron", "first": first, "second": second}
        with pytest.raises(ConfigError) as info:
            NoiseModel.from_config({"kind": "right", "error": kron}, 4)
        assert str(info.value) == f"model.error: {message}"

    def test_kron_half_missing_or_a_superop(self):
        with pytest.raises(ConfigError, match="^channel spec 'kron' is missing key 'second'$"):
            channel_from_spec({"channel": "kron", "first": DEPOLARIZING}, 4)
        # a half is read as any channel field is, so a one-qubit SuperOp is accepted
        spec = {"channel": "kron", "first": depolarizing(0.9), "second": DEPOLARIZING}
        assert np.array_equal(channel_from_spec(spec, 4).mat, np.kron(depolarizing(0.9).mat, depolarizing(0.9).mat))


class TestNoiseModels:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown noise model kind"):
            NoiseModel("brownian")

    def test_from_config_validates_parameters(self):
        with pytest.raises(ConfigError, match="theta_z"):
            NoiseModel.from_config({"kind": "z_tilt"}, 2)
        with pytest.raises(ConfigError, match="unitary"):
            NoiseModel.from_config({"kind": "conjugation"}, 2)
        with pytest.raises(ConfigError, match="side"):
            NoiseModel.composite([DEPOLARIZING], side="above")

    def test_superop_of_the_wrong_dimension_rejected(self):
        model = NoiseModel.conjugation(unitary_to_superop(np.eye(4)))
        with pytest.raises(ConfigError, match="^model.unitary: channel has dimension 4, expected 2$"):
            _resolve_errors(model, 2)

    @pytest.mark.parametrize(
        "cfg, what",
        [
            ({"kind": "conjugation", "unitary": {"channel": "relabeling"}}, "model.unitary: relabeling"),
            ({"kind": "conjugation", "unitary": {"channel": "rotation", "axis": "x", "angle": 0.3}},
             "model.unitary: rotation"),
        ],
        ids=["relabeling", "conjugation"],
    )
    def test_one_qubit_frame_needs_dimension_2(self, cfg, what):
        with pytest.raises(ConfigError, match=f"^{what} requires dimension 2, got 4$"):
            NoiseModel.from_config(cfg, 4)

    def test_composite_side_left_is_left(self, group24):
        chain = [{"channel": "amplitude_damping", "gamma": 0.1}, {"channel": "rotation", "axis": "x", "angle": 0.2}]
        for side in ("left", "right"):
            assert NoiseModel.composite(chain, side=side) == NoiseModel(side, {"error": chain})
        composite = build_noisy_gateset(NoiseModel.composite(chain, side="left"), group24)
        assert np.array_equal(composite.mats, build_noisy_gateset(NoiseModel.left(chain), group24).mats)
        right = build_noisy_gateset(NoiseModel.right(chain), group24)
        assert not np.allclose(composite.mats, right.mats)  # the side matters for this chain

    @pytest.mark.parametrize(
        "frame", [depolarizing(0.9), amplitude_damping(0.3)], ids=["depolarizing", "amplitude_damping"]
    )
    def test_non_orthogonal_conjugation_frame_rejected(self, group24, frame):
        # a frame's channel must be unitary, whichever way it is given; a rotation passes
        with pytest.raises(ConfigError, match="model.unitary: matrix is not unitary"):
            build_noisy_gateset(NoiseModel.conjugation(frame), group24)
        u = rotation("x", 0.3)
        noisy = build_noisy_gateset(NoiseModel.conjugation(u), group24)
        assert np.array_equal(noisy.mats[5], u.mat @ ideal_mats(group24)[5] @ u.mat.T)

    @pytest.mark.parametrize(
        "dim, spec, u",
        [
            (2, [{"channel": "rotation", "axis": "x", "angle": 0.3}, {"channel": "rotation", "axis": "y", "angle": 0.4}],
             rotation("y", 0.4) @ rotation("x", 0.3)),
            (4, {"channel": "kron", "first": {"channel": "rotation", "axis": "x", "angle": 0.3},
                 "second": {"channel": "rotation", "axis": [1, 1, 0], "angle": -0.2}},
             SuperOp(4, np.kron(rotation("x", 0.3).mat, rotation([1, 1, 0], -0.2).mat))),
        ],
        ids=["chain_d2", "kron_d4"],
    )
    def test_frame_from_a_spec(self, request, dim, spec, u):
        # a frame is read as any channel field is: a chain or a kron of rotations is a unitary frame
        group = request.getfixturevalue("group24" if dim == 2 else "group11520")
        noisy = build_noisy_gateset(NoiseModel.from_config({"kind": "conjugation", "unitary": spec}, dim), group)
        assert np.array_equal(noisy.mats, u.mat @ ideal_mats(group) @ u.mat.T)

    def test_null_cz_epsilon_means_absent(self, group11520):
        # left out or null, the CZ offset is 0 for z_tilt and epsilon for over_rotation
        cz = list(GENERATORS[4]).index("cz")
        for cfg, offset in (
            ({"kind": "z_tilt", "theta_z": 0.1}, 0.0),
            ({"kind": "over_rotation", "epsilon": 0.07}, 0.07),
        ):
            expected = unitary_to_superop(pulse(CZ_HAMILTONIAN, np.pi / 2 + offset)).mat
            for model_cfg in (cfg, {**cfg, "cz_epsilon": None}):
                gens = _resolve_errors(NoiseModel.from_config(model_cfg, 4), 4)["gens"]
                assert np.array_equal(gens[cz], expected)

    def test_ideal_model(self, group24):
        noisy = build_noisy_gateset(NoiseModel("ideal"), group24)
        assert np.array_equal(noisy.mats, ideal_mats(group24))

    def test_zero_strength_over_rotation_reproduces_ideal_group(self, group24):
        # the replay of zero-offset pulses is the replay of the ideal ones, bit for bit,
        # and carries their rounding: within 4e-15 of the exact ideal stack
        noisy = build_noisy_gateset(NoiseModel.over_rotation(0.0), group24)
        assert np.array_equal(noisy.mats, group24.replay(generator_mats(2)))
        assert np.max(np.abs(noisy.mats - ideal_mats(group24))) <= 4e-15

    def test_z_tilt_matches_explicit_composition(self, group24):
        # oracle: compose the tilt channel with the ideal generator directly
        noisy = build_noisy_gateset(NoiseModel.z_tilt(0.1), group24)
        tilt = unitary_to_superop(pulse(SIGMA_Z, 0.1))
        gx = SuperOp(2, generator_mats(2)[list(GENERATORS[2]).index("x")])
        idx = find(group24, gx.mat)
        expected = tilt @ gx
        assert np.max(np.abs(noisy.mats[idx] - expected.mat)) < 1e-12

    @pytest.mark.parametrize(
        "model",
        [NoiseModel.z_tilt(0.1, cz_epsilon=0.03), NoiseModel.over_rotation(0.1, cz_epsilon=0.03)],
        ids=["z_tilt", "over_rotation"],
    )
    def test_two_qubit_generators_match_kron_oracle(self, group11520, model):
        # oracle: single-qubit scipy exponentials placed by np.kron; x1 and y1
        # turn and tilt qubit 1, x2 and y2 qubit 2, and CZ is a diagonal phase
        tilt = model.params.get("theta_z", 0.0)
        offset = model.params.get("epsilon", 0.0)
        cz_diag = np.array([-1, -1, -1, 3])

        def turn(h, angle):
            return expm(0.5j * angle * h)

        def on_qubit(q, u):
            return np.kron(u, SIGMA_I) if q == 1 else np.kron(SIGMA_I, u)

        pairs = [  # (ideal unitary, noisy unitary)
            (
                on_qubit(q, turn(h, np.pi / 2)),
                on_qubit(q, turn(SIGMA_Z, tilt) @ turn(h, np.pi / 2 + offset)),
            )
            for q in (1, 2)
            for h in (SIGMA_X, SIGMA_Y)
        ]
        pairs.append((
            np.diag(np.exp(0.5j * np.pi / 2 * cz_diag)),
            np.diag(np.exp(0.5j * (np.pi / 2 + model.params["cz_epsilon"]) * cz_diag)),
        ))
        noisy = build_noisy_gateset(model, group11520)
        for ideal, expected in pairs:
            idx = find(group11520, unitary_to_superop(ideal).mat)
            assert np.max(np.abs(noisy.mats[idx] - unitary_to_superop(expected).mat)) < 1e-12

    def test_left_noise_composition(self, group24):
        err = depolarizing(0.9)
        noisy = build_noisy_gateset(NoiseModel.left(err), group24)
        assert np.allclose(noisy.mats, err.mat @ ideal_mats(group24), atol=1e-14)

    def test_sandwich_composition(self, group24):
        left = depolarizing(0.95)
        right = rotation("x", 0.2)
        noisy = build_noisy_gateset(NoiseModel.sandwich(left, right), group24)
        assert np.allclose(noisy.mats, left.mat @ ideal_mats(group24) @ right.mat, atol=1e-14)

    def test_relabeling_is_exact_conjugation(self, group24):
        s = relabeling_channel()
        noisy = build_noisy_gateset(NoiseModel.conjugation({"channel": "relabeling"}), group24)
        assert np.array_equal(noisy.mats, s.mat @ ideal_mats(group24) @ s.mat.T)

    def test_relabeling_motion_reversal_is_exact_identity(self, group24, rng):
        noisy = build_noisy_gateset(NoiseModel.conjugation(relabeling_channel()), group24)
        for _ in range(20):
            idx = rng.integers(0, 24, size=6)
            ideal = np.eye(4)
            total = np.eye(4)
            for j in idx:
                ideal = ideal_mats(group24)[j] @ ideal
                total = noisy.mats[j] @ total
            inv = find(group24, ideal.T)
            total = noisy.mats[inv] @ total
            assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_composite_chain_applied_on_requested_side(self, group24):
        factors = [
            {"channel": "dephasing", "q": 0.999, "axis": "z"},
            {"channel": "rotation", "axis": "x", "angle": 0.02},
        ]
        noisy = build_noisy_gateset(NoiseModel.right(factors), group24)
        err = channel_from_spec(factors, 2)
        assert np.allclose(noisy.mats, ideal_mats(group24) @ err.mat, atol=1e-14)

    def test_relabeling_channel_is_unitary_permutation(self):
        s = relabeling_channel()
        paulis = {"x": 1, "y": 2, "z": 3}
        assert s.mat[paulis["y"], paulis["x"]] == 1.0
        assert s.mat[paulis["z"], paulis["y"]] == 1.0
        assert s.mat[paulis["x"], paulis["z"]] == 1.0
        assert np.array_equal(s.mat @ s.mat.T, np.eye(4))

    def test_conjugated_circuit_equals_rotated_spam(self, group24, rng):
        # a frame mismatch is indistinguishable from rotated state preparation
        # and measurement: <mu| (UGU')_{m:1} |rho> = <U'(mu)| G_{m:1} |U'(rho)>
        from reference import random_unitary
        from rblab.rb import default_state

        u = random_unitary(2, rng)
        us = unitary_to_superop(u)
        noisy = build_noisy_gateset(NoiseModel.conjugation(us), group24)
        rho = default_state(2)
        mu = default_state(2)
        rho_rot = us.mat.T @ rho
        mu_rot = us.mat.T @ mu
        for _ in range(10):
            idx = rng.integers(0, 24, size=5)
            total_noisy = np.eye(4)
            total_ideal = np.eye(4)
            for j in idx:
                total_noisy = noisy.mats[j] @ total_noisy
                total_ideal = ideal_mats(group24)[j] @ total_ideal
            lhs = mu @ total_noisy @ rho
            rhs = mu_rot @ total_ideal @ rho_rot
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("group_fixture", ["group24", "group11520"])
class TestNoisyGateSet:
    """One read-only stack, checked once for what `SuperOp` checks per matrix."""

    @staticmethod
    def ztilt(request, group_fixture):
        group = request.getfixturevalue(group_fixture)
        return group, build_noisy_gateset(NoiseModel.z_tilt(0.06, cz_epsilon=0.05), group)

    def test_complex_stack_rejected(self, request, group_fixture):
        group, noisy = self.ztilt(request, group_fixture)
        with pytest.raises(ValueError, match="must be real"):
            NoisyGateSet(group.dim, noisy.mats.astype(complex))

    def test_wrong_shape_rejected(self, request, group_fixture):
        group, noisy = self.ztilt(request, group_fixture)
        other = 4 if group.dim == 2 else 2
        for dim, mats in ((group.dim, noisy.mats[0]), (other, noisy.mats)):
            with pytest.raises(ValueError, match="expected shape"):
                NoisyGateSet(dim, mats)

    def test_first_row_checked_on_every_element(self, request, group_fixture):
        # the last element's trace row, off by 2 STRUCT_TOL, is refused; off by half of it, kept
        group, noisy = self.ztilt(request, group_fixture)
        for shift, refused in ((2 * STRUCT_TOL, True), (0.5 * STRUCT_TOL, False)):
            mats = noisy.mats.copy()
            mats[-1, 0, -1] += shift
            if refused:
                with pytest.raises(ValueError, match="trace preservation"):
                    NoisyGateSet(group.dim, mats)
            else:
                assert NoisyGateSet(group.dim, mats)[-1].mat[0, -1] == shift

    def test_nan_first_row_entry_refused(self, request, group_fixture):
        group, noisy = self.ztilt(request, group_fixture)
        mats = noisy.mats.copy()
        mats[-1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="trace preservation"):
            NoisyGateSet(group.dim, mats)

    def test_stack_is_read_only(self, request, group_fixture):
        group, noisy = self.ztilt(request, group_fixture)
        with pytest.raises(ValueError, match="read-only"):
            noisy.mats[1, 1, 1] = 0.0
        # the exact ideal stack and a replayed one are both read-only
        ideal = build_noisy_gateset(NoiseModel("ideal"), group)
        assert not ideal.mats.flags.writeable
        assert np.array_equal(ideal.mats, ideal_mats(group))
        replayed = build_noisy_gateset(NoiseModel.over_rotation(0.0), group)
        assert not replayed.mats.flags.writeable
        assert np.array_equal(replayed.mats, group.replay(generator_mats(group.dim)))
        assert np.max(np.abs(replayed.mats - ideal.mats)) <= 4e-15

    def test_view_is_copied(self, request, group_fixture):
        # a view of a writable base is copied, so writing the base cannot reach the stack
        group, noisy = self.ztilt(request, group_fixture)
        base = noisy.mats.copy()
        short = NoisyGateSet(group.dim, base[1:])
        assert not np.shares_memory(short.mats, base)
        base[1, 1, 1] = 7.0
        assert np.array_equal(short.mats, noisy.mats[1:])

    def test_length_and_elements(self, request, group_fixture):
        group, noisy = self.ztilt(request, group_fixture)
        assert len(noisy) == len(group)
        for k in (0, 1, len(group) - 1):
            op = noisy[k]
            assert isinstance(op, SuperOp) and op.dim == group.dim
            assert np.array_equal(op.mat, noisy.mats[k])
        with pytest.raises(TypeError):
            noisy[1:3]
