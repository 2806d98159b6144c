import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from rblab.channels import (
    SuperOp,
    unitary_to_superop,
)
from rblab.cliffords import (
    compose_rows,
    generate_clifford_group,
    load_group,
    save_group,
)
from rblab.noise import (
    CZ_HAMILTONIAN,
    GENERATORS,
    NoiseModel,
    _resolve_errors,
    build_noisy_gateset,
    depolarizing,
    generator_mats,
    pulse,
)
from reference import find, ideal_mats, random_unitary


def word(group, k):
    """Generator labels of element k, first applied first, rebuilt from the closure."""
    labels = []
    while group.parents[k] >= 0:
        labels.append(list(GENERATORS[group.dim])[group.vias[k]])
        k = group.parents[k]
    return tuple(reversed(labels))


def loop_replay(group, gens):
    """Per-element reference for the batched replay: one matmul per element, in index order."""
    mats = [np.eye(group.dim ** 2)]
    for k in range(1, len(group)):
        mats.append(gens[group.vias[k]] @ mats[group.parents[k]])
    return np.stack(mats)


class TestGeneration:
    def test_single_qubit_order(self, group24):
        assert len(group24) == 24

    def test_identity_element_has_empty_word(self, group24):
        assert word(group24, 0) == ()
        assert np.array_equal(ideal_mats(group24)[0], np.eye(4))

    def test_words_replay_to_ops(self, group24):
        for k, mat in enumerate(ideal_mats(group24)):
            op = np.eye(4)
            for label in word(group24, k):
                op = generator_mats(2)[list(GENERATORS[2]).index(label)] @ op
            assert np.max(np.abs(op - mat)) < 1e-10

    def test_bfs_words_are_minimal_from_parents(self, group24):
        for k, parent in enumerate(group24.parents):
            if parent >= 0:
                assert len(word(group24, k)) == len(word(group24, parent)) + 1

    def test_composition_closure_random_pairs(self, group24, rng):
        mats = ideal_mats(group24)
        for _ in range(100):
            g = int(rng.integers(len(group24)))
            h = int(rng.integers(len(group24)))
            product = mats[g] @ mats[h]
            assert find(group24, product) is not None

    def test_entries_are_signed_integers(self, group24):
        for mat in ideal_mats(group24):
            assert np.max(np.abs(mat - np.round(mat))) < 1e-12


class TestInverse:
    def test_identity_inverse(self, group24):
        assert group24.inverse_table[0] == 0

    def test_generator_inverse_product(self, group24):
        idx = find(group24, generator_mats(2)[list(GENERATORS[2]).index("x")])
        inv = group24.inverse_table[idx]
        mats = ideal_mats(group24)
        product = mats[inv] @ mats[idx]
        assert np.max(np.abs(product - np.eye(4))) < 1e-10

    def test_all_inverses(self, group24):
        mats = ideal_mats(group24)
        for k, mat in enumerate(mats):
            inv = group24.inverse_table[k]
            assert np.max(np.abs(mats[inv] @ mat - np.eye(4))) < 1e-10

    def test_involution(self, group24):
        for k in range(len(group24)):
            assert group24.inverse_table[group24.inverse_table[k]] == k


class TestIndices:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_non_member_row_raises_key_error(self, group24, group11520, dim):
        # swapping X with Y (on the first qubit) is no Clifford; at d=2 the row
        # [1, 3, 2, 4] shares its X and Z entries with element 22, [1, 3, -2, 4]
        group = group24 if dim == 2 else group11520
        x, y = (1, 2) if dim == 2 else (4, 8)  # X and Y, or X(x)I and Y(x)I, in pauli_basis(dim)
        row = np.arange(1, dim ** 2 + 1)
        row[[x, y]] = row[[y, x]]
        with pytest.raises(KeyError):
            group.indices(row[None])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_table_rows_index_themselves(self, group24, group11520, dim):
        group = group24 if dim == 2 else group11520
        assert np.array_equal(group.indices(group.table), np.arange(len(group)))

    def test_row_with_no_element_key_raises_key_error(self, group11520):
        # swapping X(x)I with X(x)X gives X and Z entries that no Clifford has:
        # the slot is empty, unlike the key collisions above
        row = np.arange(1, 17)
        row[[4, 5]] = row[[5, 4]]
        with pytest.raises(KeyError):
            group11520.indices(row[None])


class TestProducts:
    """The signed-slot fold of `products` against a `compose_rows` fold."""

    @pytest.mark.parametrize("m", [1, 2, 33])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_matches_compose_rows_fold(self, group24, group11520, dim, m):
        group = group24 if dim == 2 else group11520
        rng = np.random.default_rng([dim, m])
        idx = rng.integers(0, len(group), size=(40, m))
        idx[:3] = 0  # identities only
        idx[np.arange(3, 13), rng.integers(0, m, size=10)] = 0  # one identity among others
        ideal = group.table[idx[:, 0]]
        for j in range(1, m):
            ideal = compose_rows(group.table[idx[:, j]], ideal)
        assert np.array_equal(group.products(idx), group.indices(ideal))
        assert np.array_equal(group.products(idx[:3]), np.zeros(3))


class TestCosets:
    """The group split into cosets of its Paulis, which the twirl sums over."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_cosets_partition_the_group(self, group24, group11520, dim):
        group = group24 if dim == 2 else group11520
        n = dim ** 2
        idx, signs, cols = group.cosets
        assert idx.shape == (len(group) // n, n) and signs.shape == (n, n)
        assert np.array_equal(np.sort(idx.ravel()), np.arange(len(group)))
        # the identity's coset is the Paulis, whose rows are diagonal; each coset starts at its member c
        paulis, reps = idx[0], idx[:, 0]
        assert np.array_equal(np.abs(group.table[paulis]), np.broadcast_to(np.arange(1, n + 1), (n, n)))
        assert np.array_equal(group.table[idx], compose_rows(group.table[reps, None], group.table[None, paulis]))
        assert np.array_equal(signs, np.sign(group.table[paulis]).T)
        assert np.array_equal(cols, ideal_mats(group)[reps].transpose(2, 1, 0))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_coset_products_of_transfer_matrices(self, group24, group11520, dim):
        # the float columns are exact signed permutations, so G_{cp} = G_c D_p holds bit for bit
        group = group24 if dim == 2 else group11520
        idx, signs, cols = group.cosets
        mats = ideal_mats(group)
        d_p = signs.T[:, :, None] * np.eye(dim ** 2)
        assert np.array_equal(mats[idx[0]], d_p)
        assert np.array_equal(mats[idx], cols.transpose(2, 1, 0)[:, None] @ d_p)

    def test_built_on_first_use(self, group24, tmp_path):
        path = tmp_path / "g2.npz"
        save_group(group24, path)
        loaded = load_group(path)
        assert "cosets" not in vars(loaded)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.cosets, group24.cosets))
        assert not any(arr.flags.writeable for arr in loaded.cosets)

    def test_overlapping_cosets_raise(self, monkeypatch):
        group = generate_clifford_group(2)
        monkeypatch.setattr(group, "indices", lambda rows: np.zeros(len(rows), dtype=np.int64))
        with pytest.raises(ValueError, match="the Pauli cosets do not partition the group"):
            group.cosets


class TestCZGenerator:
    def test_cz_pulse_matches_diagonal_unitary(self):
        # oracle: the Hamiltonian is diagonal, so exponentiate entrywise
        diag = np.diag(CZ_HAMILTONIAN).real
        direct = np.diag(np.exp(0.5j * (np.pi / 2) * diag))
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.allclose(
            unitary_to_superop(direct).mat, unitary_to_superop(cz).mat, atol=1e-12
        )
        assert np.allclose(
            unitary_to_superop(pulse(CZ_HAMILTONIAN, np.pi / 2)).mat,
            unitary_to_superop(cz).mat,
            atol=1e-12,
        )


class TestCache:
    def test_save_and_load_round_trip(self, group24, tmp_path):
        path = tmp_path / "g2.npz"
        save_group(group24, path)
        loaded = load_group(path)
        assert len(loaded) == len(group24)
        for k in range(len(group24)):
            assert word(loaded, k) == word(group24, k)
        assert np.array_equal(ideal_mats(loaded), ideal_mats(group24))
        assert np.array_equal(loaded.inverse_table, group24.inverse_table)

    def test_load_rejects_a_tree_of_other_generators(self, group24, tmp_path):
        # the same tree read with x and y swapped: its bytes miss the pinned digest
        path = tmp_path / "g2.npz"
        vias = group24.vias.copy()
        vias[1:] = 1 - vias[1:]
        np.savez(path, dim=2, table=group24.table, parents=group24.parents, vias=vias)
        with pytest.raises(ValueError, match="not the breadth-first closure"):
            load_group(path)


class TestDefaultGenerators:
    def test_default_generators_unknown_dim(self):
        with pytest.raises(ValueError):
            generator_mats(3)


class TestTwoQubitGroup:
    def test_order_and_structure(self, group11520):
        group = group11520
        mats = ideal_mats(group)
        assert len(group) == 11520
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = int(rng.integers(len(group)))
            h = int(rng.integers(len(group)))
            assert find(group, mats[g] @ mats[h]) is not None
        for _ in range(50):
            g = int(rng.integers(len(group)))
            inv = group.inverse_table[g]
            assert np.max(np.abs(mats[inv] @ mats[g] - np.eye(16))) < 1e-10

    def test_every_inverse_is_exact_on_the_table(self, group11520):
        table = group11520.table
        inverses = table[group11520.inverse_table]
        identity = np.broadcast_to(table[0], table.shape)
        assert np.array_equal(compose_rows(inverses, table), identity)
        assert np.array_equal(compose_rows(table, inverses), identity)


class TestElementOrder:
    """The element order is an output contract: RB draws element indices."""

    def test_single_qubit_parents_and_vias(self, group24):
        assert group24.parents.tolist() == [
            -1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10, 11, 13, 14, 17, 18
        ]
        assert [list(GENERATORS[2])[v] if v >= 0 else None for v in group24.vias] == [
            None, "x", "y", "x", "y", "x", "y", "x", "y", "x", "y", "x",
            "x", "y", "y", "x", "y", "x", "y", "x", "x", "x", "x", "x",
        ]

    def test_two_qubit_order_digest(self, group11520):
        # digest of json.dumps([parents, via labels]) from the float-key closure
        vias = [list(GENERATORS[4])[v] if v >= 0 else None for v in group11520.vias]
        payload = json.dumps([group11520.parents.tolist(), vias]).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "fb295e83b385e37f990958f76b6694e8d2d90c9136545d065c4af0fe5f340cb5"
        )



class TestExactDataOnly:
    """The group holds exact integer arrays only, not a float stack per element."""

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_arrays_smaller_than_one_float_stack(self, dim, source, tmp_path):
        group = generate_clifford_group(dim)
        if source == "loaded":
            save_group(group, tmp_path / "g.npz")
            group = load_group(tmp_path / "g.npz")
        assert "cosets" not in vars(group)
        held = sum(arr.nbytes for arr in vars(group).values() if isinstance(arr, np.ndarray))
        # a float stack is 3 kB at d=2 and 23.6 MB at d=4; the key slots make most of the 2.7 MB at d=4
        assert held < min(4e6, len(group) * dim ** 4 * 8)

    def test_cosets_allocate_less_than_half_a_float_stack(self):
        # the columns scatter the 720 members' rows, where a float stack of all 11520 holds 23.6 MB
        group = generate_clifford_group(4)
        tracemalloc.start()
        try:
            group.cosets
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(group) * 16 ** 2 * 8 / 2

    def test_replay_allocates_little_beyond_its_stack(self, group11520):
        # each chunk gathers about 0.5 MB of operands; whole levels at once would add about 12 MB
        gens = generator_mats(4)
        tracemalloc.start()
        try:
            out = group11520.replay(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1e6


class TestReplay:
    """The batched replay rounds exactly like per-element products."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_mats_equal_per_element_products(self, group24, group11520, dim):
        # the ideal pulses carry rounding: their replay is within 4e-15 of the exact stack
        group = group24 if dim == 2 else group11520
        replayed = group.replay(generator_mats(dim))
        assert np.array_equal(replayed, loop_replay(group, generator_mats(dim)))
        assert np.max(np.abs(replayed - group.transfer_mats())) <= 4e-15

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel.over_rotation(0.1),
            NoiseModel.over_rotation(0.07, cz_epsilon=0.03),
            NoiseModel.z_tilt(0.1),
            NoiseModel.z_tilt(0.05, cz_epsilon=0.02),
        ],
        ids=["over_rotation", "over_rotation_cz", "z_tilt", "z_tilt_cz"],
    )
    def test_noisy_replay_equals_per_element_products(self, group24, group11520, dim, model):
        group = group24 if dim == 2 else group11520
        gens = _resolve_errors(model, dim)["gens"]
        noisy = build_noisy_gateset(model, group).mats
        assert np.array_equal(noisy, loop_replay(group, gens))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_fixed_channel_models_equal_per_element_products(self, group24, group11520, dim):
        group = group24 if dim == 2 else group11520
        rng = np.random.default_rng(5)
        u = random_unitary(dim, rng)
        us = unitary_to_superop(u).mat
        left = depolarizing(0.97, dim).mat
        right = unitary_to_superop(random_unitary(dim, rng)).mat
        conj = build_noisy_gateset(NoiseModel.conjugation(u), group)
        model = NoiseModel.sandwich(depolarizing(0.97, dim), SuperOp(dim, right))
        sandwich = build_noisy_gateset(model, group)
        for mat, c, s in zip(ideal_mats(group), conj, sandwich):
            assert np.array_equal(c.mat, us @ mat @ np.ascontiguousarray(us.T))
            assert np.array_equal(s.mat, left @ (mat @ right))

