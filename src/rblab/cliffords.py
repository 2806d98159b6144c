"""Generation, indexing, and inversion of the 24- and 11520-element Clifford gate-sets.

In the normalised Pauli basis every Clifford transfer matrix is a signed
permutation, one +-1 per row (Gottesman, quant-ph/9807006).  The group stores
element k as one int8 table row of length d^2 whose entry r is
`sign * (col + 1)` for the +-1 at (r, col), so composing two elements is a
gather and equality is exact.  The entries at each qubit's X and Z rows fix the
element (Aaronson and Gottesman, quant-ph/0406196); as digits, they are its key.
Breadth-first closure gives each element its parent and the generator applied
last, i.e. a minimal-length pulse sequence.  The ideal float transfer matrices
are one exact scatter of the table (`transfer_mats`); only noise models with
imperfect generators replay the closure's steps with them (`replay`).
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from functools import cached_property
from pathlib import Path

import numpy as np

from .noise import generator_mats

# SHA-256 of the breadth-first closure's table (int8), parents (little-endian
# int32) and vias (int8) bytes, in that order
CLOSURE_DIGEST = {
    2: "a21cb590181578481d7f3f661a2f2a05677a41c089cc8bdeed3684f8233e8bfe",
    4: "ef33cff41bf2d9390a94ee877d4f83e5ae1603fe2de06e282faf6f2a2c7bcda1",
}
_KEY_ROWS = {2: [1, 3], 4: [4, 12, 1, 3]}  # the X and Z of each qubit in pauli_basis(dim)
_KEY_SPACE = {dim: (2 * dim ** 2 + 1) ** len(at) for dim, at in _KEY_ROWS.items()}
_REPLAY_BLOCK = 128  # elements per chunk of `replay`: its gathered operands stay cache-sized (2 x 262 kB at d=4)


def compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table rows of `a @ b` (b acts first); leading axes broadcast."""
    cols = np.abs(a).astype(np.intp) - 1
    return np.take_along_axis(b, cols, axis=-1) * np.sign(a)


def _keys(rows: np.ndarray, dim: int) -> np.ndarray:
    """Key of each table row: its X and Z entries, plus d^2, as base-(2 d^2 + 1) digits."""
    digits = rows[..., _KEY_ROWS[dim]].astype(np.int64) + dim ** 2
    return digits @ (2 * dim ** 2 + 1) ** np.arange(len(_KEY_ROWS[dim]))


class CliffordGroup:
    """Closed, indexed gate-set with an exact inverse table.

    Element k is generator `vias[k]`, in label order, applied after element
    `parents[k]` (the identity, element 0, has parent and via -1), in
    breadth-first order; `table[k]` is its signed permutation, scattered into
    an exact float matrix by `transfer_mats` where it is read.  The constructor
    checks the table exactly: its bytes, with parents and vias, hash to
    `CLOSURE_DIGEST[dim]`.  `indices` gathers by key from the read-only `_slot`
    (-1 where no element has the key; 2.4 MB at d=4), then checks the rows
    found in full.  `cosets` is built on first use.  Immutable; safe to share
    across threads.
    """

    def __init__(self, dim: int, table: np.ndarray, parents: np.ndarray, vias: np.ndarray):
        self.dim = dim
        table = np.asarray(table, dtype=np.int8)
        parents = np.asarray(parents, dtype="<i4")
        vias = np.asarray(vias, dtype=np.int8)
        digest = hashlib.sha256(b"".join(arr.tobytes() for arr in (table, parents, vias)))
        if digest.hexdigest() != CLOSURE_DIGEST.get(dim):  # a bad dim is a ValueError too
            raise ValueError(
                f"group table is not the breadth-first closure of the dimension-{dim} generators"
            )
        self._slot = np.full(_KEY_SPACE[dim], -1, dtype=np.int16)
        self._slot[_keys(table, dim)] = np.arange(len(table))
        for arr in (table, parents, vias, self._slot):
            arr.setflags(write=False)
        self.table, self.parents, self.vias = table, parents, vias

        # unitary transfer matrices are orthogonal: the inverse is the transpose,
        # whose entry c is the signed (row + 1) of the row that maps onto column c
        rows_of = np.argsort(np.abs(table), axis=1)
        inv_rows = np.take_along_axis(np.sign(table), rows_of, axis=1) * (rows_of + 1)
        self.inverse_table = self.indices(inv_rows)
        self.inverse_table.setflags(write=False)

    def __len__(self) -> int:
        return len(self.parents)

    @cached_property
    def cosets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`(idx, signs, cols)` over the cosets of the d^2 Paulis, the elements with diagonal rows.

        `idx[c, p]` indexes `c p`, with c the coset's member whose key-row
        entries are all positive, so `G_{cp} = G_c D_p` exactly: `signs[k, p]`
        is `D_p[k, k]` and `cols[k, j, c]` is `G_c[j, k]`, scattered from c's row.
        """
        n = self.dim ** 2
        paulis = np.flatnonzero((np.abs(self.table) == np.arange(1, n + 1)).all(axis=1))
        reps = np.flatnonzero((self.table[:, _KEY_ROWS[self.dim]] > 0).all(axis=1))
        idx = self.indices(compose_rows(self.table[reps, None], self.table[None, paulis]).reshape(-1, n))
        if not np.array_equal(np.sort(idx), np.arange(len(self))):
            raise ValueError("the Pauli cosets do not partition the group")
        out = (idx.reshape(len(reps), -1), np.sign(self.table[paulis]).T.astype(float),
               np.ascontiguousarray(self.transfer_mats(reps).transpose(2, 1, 0)))
        for arr in out:
            arr.setflags(write=False)
        return out

    def transfer_mats(self, idx=slice(None)) -> np.ndarray:
        """Exact transfer matrices of elements `idx`: entry `(r, |v| - 1)` is `sign(v)`, v = `table[k, r]`."""
        rows = self.table[idx]
        out = np.zeros(rows.shape + rows.shape[-1:])
        np.put_along_axis(out, np.abs(rows[..., None]).astype(np.intp) - 1, np.sign(rows[..., None]), axis=-1)
        return out

    def indices(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row of `rows` (k, d^2) by key, checked in full; KeyError if absent."""
        idx = self._slot.take(_keys(rows, self.dim), mode="clip").astype(np.int64)
        if not np.array_equal(self.table[idx], rows):  # a non-member can share a member's key
            raise KeyError("a row is not an element of the group")
        return idx

    def products(self, idx: np.ndarray) -> np.ndarray:
        """Element index of each row's product, the first column acting first.

        The signed-slot table `L[g, v + d^2] = sign(v) table[g, |v| - 1] + d^2`
        maps entry v of a product's row to that entry of the product times
        element g, so the fold runs right to left from the identity rows, one
        flat gather per column; the rows found go through `indices`.
        """
        n = self.dim ** 2
        width = 2 * n + 1
        slots = np.empty((len(self), width), dtype=np.int8)
        slots[:, n + 1:] = self.table  # v > 0
        slots[:, :n] = -self.table[:, ::-1]  # v < 0
        slots[:, n] = 0  # v = 0 is never read
        slots += np.int8(n)
        slots = slots.ravel()
        offsets = np.asarray(idx) * width
        rows = np.broadcast_to(np.arange(n + 1, width), (len(offsets), n))
        for j in range(offsets.shape[1] - 1, -1, -1):
            rows = slots.take(offsets[:, j, None] + rows)
        return self.indices(rows - np.int8(n))

    def replay(self, gens: np.ndarray) -> np.ndarray:
        """Every element's transfer matrix rebuilt from noisy generator matrices in label order.

        Element k is `gens[vias[k]] @ element[parent]`, one batched matmul per
        chunk of `_REPLAY_BLOCK` elements whose parents are built, in breadth-first
        order, which rounds exactly like per-element products.
        """
        n = self.dim ** 2
        out = np.empty((len(self), n, n))
        out[0] = np.eye(n)
        start = 1
        while start < len(self):
            # the level ends where the first child of the chunk's own elements begins
            stop = min(start + _REPLAY_BLOCK, int(np.searchsorted(self.parents, start)))
            np.matmul(gens[self.vias[start:stop]], out[self.parents[start:stop]], out=out[start:stop])
            start = stop
        return out


def compose_sequences(mats: np.ndarray, idx: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Apply each row of gate indices to `start`, first column first.

    `mats` stacks the transfer matrices, `idx` has one sequence per row, and
    each step is one batched matmul over all sequences.  Returns one
    product per row, shaped `(len(idx),) + start.shape`.
    """
    out = np.broadcast_to(start, (len(idx),) + start.shape)
    for j in range(idx.shape[1]):
        out = mats[idx[:, j]] @ out
    return out


def generate_clifford_group(dim: int) -> CliffordGroup:
    """Breadth-first closure of the ideal generators under left multiplication.

    Candidates of one level are ordered parent first, then generator order,
    and each is kept when its key is new.
    """
    n = dim ** 2  # each ideal generator is a signed permutation: its rounded rows give its table row
    gen_rows = (np.rint(generator_mats(dim)) @ np.arange(1, n + 1)).astype(np.int8)
    n_gen = len(gen_rows)
    frontier = np.arange(1, n + 1, dtype=np.int8)[None]  # the identity
    seen = np.zeros(_KEY_SPACE[dim], dtype=bool)
    rows, parents, vias = [frontier], [np.array([-1])], [np.array([-1])]
    first = 0  # index of the frontier's first element
    while len(frontier):
        seen[_keys(frontier, dim)] = True
        cands = compose_rows(gen_rows[None], frontier[:, None]).reshape(-1, n)
        keys = _keys(cands, dim)
        new = np.unique(keys, return_index=True)[1]  # first candidate of each key
        new = np.sort(new[~seen[keys[new]]])
        parents.append(first + new // n_gen)
        vias.append(new % n_gen)
        first += len(frontier)
        frontier = cands[new]
        rows.append(frontier)
    return CliffordGroup(dim, np.concatenate(rows), np.concatenate(parents), np.concatenate(vias))


# ---------------------------------------------------------------------------
# Group cache
# ---------------------------------------------------------------------------


def save_group(group: CliffordGroup, path: str | Path) -> None:
    """Write the integer table, parents and vias; a reader never sees a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # a file object keeps numpy from appending .npz to the name
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                dim=group.dim,
                table=group.table,
                parents=group.parents,
                vias=group.vias,
            )
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_group(path: str | Path) -> CliffordGroup:
    """Load a cached group, checked exactly by the `CliffordGroup` constructor.

    Raises ValueError when the file or one of its members cannot be read, or
    when its table is not the closure of the ideal generators.  Members that
    older versions wrote beside these are ignored.
    """
    try:
        with np.load(Path(path), allow_pickle=False) as data:
            dim = int(data["dim"])
            table, parents, vias = data["table"], data["parents"], data["vias"]
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"unreadable group cache ({type(exc).__name__}: {exc})") from exc
    return CliffordGroup(dim, table, parents, vias)
