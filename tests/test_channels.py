import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rblab.channels import (
    SIGMA_X,
    SuperOp,
    check_unitary,
    hs_inner,
    pauli_basis,
    traceless_projector,
    unitary_to_superop,
    unvec,
    vec,
)
from rblab.noise import depolarizing, pulse, relabeling_channel
from reference import (
    avg_gate_fidelity,
    random_unitary,
    traceless_fidelity,
    uncached_unitary_to_superop,
)

IDENTITY = SuperOp(2, np.eye(4))


class TestUnitaryToSuperop:
    def test_identity(self):
        s = unitary_to_superop(np.eye(2))
        assert np.allclose(s.mat, np.eye(4), atol=1e-12)

    def test_pauli_x(self):
        s = unitary_to_superop(SIGMA_X)
        assert np.allclose(s.mat, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-12)

    def test_quarter_x_rotation_matches_direct_conjugation(self):
        # oracle: conjugate each Pauli explicitly and read off coefficients
        u = pulse(SIGMA_X, np.pi / 2)
        s = unitary_to_superop(u)
        paulis = pauli_basis(2)
        expected = np.empty((4, 4))
        for k in range(4):
            conj = u @ paulis[k] @ u.conj().T
            for j in range(4):
                expected[j, k] = np.trace(paulis[j] @ conj).real / 2
        assert np.allclose(s.mat, expected, atol=1e-12)
        # traceless block is the quarter rotation about x: y -> -z, z -> y
        rot = s.mat[1:, 1:]
        assert np.allclose(rot @ np.array([0, 1, 0]), [0, 0, -1], atol=1e-12)
        assert np.allclose(rot @ np.array([0, 0, 1]), [0, 1, 0], atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            unitary_to_superop(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6]]))

    def test_homomorphism_on_random_unitaries(self, rng):
        for _ in range(20):
            u = random_unitary(2, rng)
            v = random_unitary(2, rng)
            lhs = unitary_to_superop(u @ v).mat
            rhs = unitary_to_superop(u).mat @ unitary_to_superop(v).mat
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_unitary_block_is_orthogonal(self, rng):
        for dim in (2, 4):
            block = unitary_to_superop(random_unitary(dim, rng)).mat[1:, 1:]
            assert np.max(np.abs(block @ block.T - np.eye(dim ** 2 - 1))) < 1e-10


class TestTransferCache:
    """The cached transfer matrix is the uncached one, bit for bit, per distinct unitary."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_bits_equal_the_uncached_oracle(self, dim, rng):
        for _ in range(20):
            u = random_unitary(dim, rng)
            for view in (u, np.asfortranarray(u), u.T, np.ascontiguousarray(u.T)):
                expected = uncached_unitary_to_superop(view).mat
                assert np.array_equal(unitary_to_superop(view).mat, expected)

    def test_float_identity_and_negative_zero(self):
        for u in (np.eye(2), np.array([[1.0, -0.0], [-0.0, 1.0]]), np.array([[-0.0, 1.0], [1.0, -0.0]])):
            assert np.array_equal(unitary_to_superop(u).mat, uncached_unitary_to_superop(u).mat)

    def test_same_shape_different_unitaries(self):
        x = unitary_to_superop(SIGMA_X).mat
        z = unitary_to_superop(np.diag([1.0, -1.0])).mat
        assert np.array_equal(x, np.diag([1.0, 1.0, -1.0, -1.0]))
        assert np.array_equal(z, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_repeat_is_equal_and_read_only(self, rng):
        u = random_unitary(2, rng)
        first, again = unitary_to_superop(u), unitary_to_superop(u.copy())
        assert np.array_equal(first.mat, again.mat)
        assert not again.mat.flags.writeable
        with pytest.raises(ValueError):
            again.mat[1, 1] = 0.0

    @pytest.mark.parametrize(
        "u, message",
        [([[1.0, 0.0], [0.0, 1.0 + 1e-6]], "not unitary"), (np.ones((2, 3)), "expected a square matrix")],
    )
    def test_failing_check_raises_on_every_call(self, u, message):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                unitary_to_superop(u)


class TestVec:
    def test_unit_matrix_position(self):
        m = np.zeros((3, 3))
        m[0, 1] = 1.0  # e_1 e_2^T in 1-based labels
        v = vec(m)
        assert v[1 * 3 + 0] == 1.0
        assert np.sum(np.abs(v)) == 1.0

    def test_kron_identity_on_random_triples(self, rng):
        for _ in range(100):
            a, b, c = rng.standard_normal((3, 4, 4))
            assert np.max(np.abs(vec(a @ b @ c) - np.kron(c.T, a) @ vec(b))) < 1e-12

    def test_projector_round_trip(self):
        pi = traceless_projector(2)
        assert np.array_equal(unvec(vec(pi)), pi)

    def test_unvec_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            unvec(np.zeros(5))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n, seed):
        m = np.random.default_rng(seed).standard_normal((n, n))
        assert np.array_equal(unvec(vec(m)), m)


class TestInnerProductsAndNorms:
    def test_projector_norm_squared_is_three(self):
        pi = traceless_projector(2)
        assert hs_inner(pi, pi) == pytest.approx(3.0, abs=1e-14)

    def test_projector_idempotent_with_full_traceless_rank(self):
        for dim in (2, 4):
            pi = traceless_projector(dim)
            assert np.array_equal(pi @ pi, pi)
            assert np.linalg.matrix_rank(pi) == dim ** 2 - 1
            assert hs_inner(pi, pi) == pytest.approx(dim ** 2 - 1, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hs_inner(np.eye(2), np.eye(3))


class TestFidelity:
    def test_equal_channels(self, rng):
        s = unitary_to_superop(random_unitary(2, rng))
        assert avg_gate_fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_vs_identity(self):
        q = 0.9
        f = avg_gate_fidelity(depolarizing(q), IDENTITY)
        assert f == pytest.approx(0.5 + q / 2, abs=1e-12)

    def test_axis_permutation_vs_identity(self):
        s = relabeling_channel()
        assert traceless_fidelity(s, IDENTITY) == pytest.approx(0.0, abs=1e-14)
        assert avg_gate_fidelity(s, IDENTITY) == pytest.approx(0.5, abs=1e-14)

    def test_fidelity_of_unitary_products(self, rng):
        u = unitary_to_superop(random_unitary(2, rng))
        v = unitary_to_superop(random_unitary(2, rng))
        assert avg_gate_fidelity(u @ v, u @ v) == pytest.approx(1.0, abs=1e-12)


class TestPauliBasis:
    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension 3"):
            pauli_basis(3)


class TestSuperOp:
    def test_trace_preservation_enforced(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="trace preservation"):
            SuperOp(2, bad)

    def test_rejects_complex_entries(self):
        with pytest.raises(ValueError, match="real"):
            SuperOp(2, np.eye(4, dtype=complex))

    def test_composition_preserves_trace_row(self, rng):
        ops = [unitary_to_superop(random_unitary(2, rng)) for _ in range(6)]
        total = ops[0]
        for op in ops[1:]:
            total = total @ op
        expected = np.zeros(4)
        expected[0] = 1.0
        assert np.array_equal(total.mat[0], expected)

    def test_composition_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            IDENTITY @ SuperOp(4, np.eye(16))

    def test_immutable(self):
        s = SuperOp(2, np.eye(4))
        with pytest.raises(ValueError):
            s.mat[0, 0] = 2.0


class TestCheckUnitary:
    def test_rejects_nan(self):
        # a NaN defect compares False with the tolerance, so it must fail explicitly
        for u in (np.full((2, 2), np.nan), np.array([[np.nan, 0.0], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="not unitary"):
                check_unitary(u)


class TestRandomUnitary:
    def test_unitary_and_determinant(self, rng):
        for dim in (2, 4):
            u = random_unitary(dim, rng)
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-12
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
