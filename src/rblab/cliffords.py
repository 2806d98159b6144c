"""Generation, indexing, and inversion of the 24- and 11520-element Clifford gate-sets.

Elements are deduplicated in transfer-matrix form (which kills global phase)
by a rounded canonical key; Clifford transfer matrices are signed permutations,
so entries sit far from the rounding boundary.  Each element keeps the first
generator word found by breadth-first closure, i.e. a minimal-length pulse
sequence, which noise models replay with imperfect generators.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import SIGMA_I, SIGMA_X, SIGMA_Y, SuperOp, unitary_to_superop
from .noise import CZ_HAMILTONIAN, PulseSpec

GROUP_ORDER = {2: 24, 4: 11520}
CLOSURE_CAP = {2: 25, 4: 12000}


class GroupClosureError(RuntimeError):
    """Closure did not terminate at a known group order."""


def canonical_key(mat: np.ndarray) -> bytes:
    """Entries rounded to 6 decimals in fixed order; adding 0.0 kills -0.0."""
    return (np.round(mat, 6) + 0.0).tobytes()


def default_generators(dim: int) -> dict[str, PulseSpec]:
    """Quarter rotations about x and y (per qubit), plus CZ for two qubits."""
    if dim == 2:
        return {
            "x": PulseSpec(SIGMA_X, np.pi / 2),
            "y": PulseSpec(SIGMA_Y, np.pi / 2),
        }
    if dim == 4:
        return {
            "x1": PulseSpec(np.kron(SIGMA_X, SIGMA_I), np.pi / 2),
            "y1": PulseSpec(np.kron(SIGMA_Y, SIGMA_I), np.pi / 2),
            "x2": PulseSpec(np.kron(SIGMA_I, SIGMA_X), np.pi / 2),
            "y2": PulseSpec(np.kron(SIGMA_I, SIGMA_Y), np.pi / 2),
            "cz": PulseSpec(CZ_HAMILTONIAN, np.pi / 2),
        }
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class CliffordElement:
    """One gate: its transfer matrix, minimal generator word, and BFS parent."""

    index: int
    op: SuperOp
    word: tuple[str, ...]
    key: bytes
    parent: int  # -1 for the identity
    via: str | None  # generator label applied last


class CliffordGroup:
    """Closed, indexed gate-set with an inverse table.

    Immutable once generated; safe to share across threads.
    """

    def __init__(
        self,
        dim: int,
        elements: list[CliffordElement],
        generator_pulses: dict[str, PulseSpec],
    ):
        self.dim = dim
        self.elements = tuple(elements)
        self.generator_pulses = dict(generator_pulses)
        self.generator_ops = {
            label: unitary_to_superop(spec.unitary())
            for label, spec in self.generator_pulses.items()
        }
        self._index = {e.key: e.index for e in self.elements}
        inv = np.empty(len(self.elements), dtype=np.int64)
        for e in self.elements:
            # unitary transfer matrices are orthogonal: inverse == transpose
            inv[e.index] = self._index[canonical_key(e.op.mat.T)]
        inv.setflags(write=False)
        self.inverse_table = inv

    def __len__(self) -> int:
        return len(self.elements)

    def op(self, index: int) -> SuperOp:
        return self.elements[index].op

    def inverse(self, index: int) -> int:
        return int(self.inverse_table[index])

    def find(self, mat: np.ndarray) -> int | None:
        """Index of the element with this transfer matrix, or None."""
        return self._index.get(canonical_key(np.asarray(mat)))

    def random_element(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, len(self.elements)))


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


def generate_clifford_group(
    dim: int,
    generators: dict[str, PulseSpec] | None = None,
    cap: int | None = None,
) -> CliffordGroup:
    """Breadth-first closure of the generators under left multiplication."""
    if generators is None:
        generators = default_generators(dim)
    if cap is None:
        cap = CLOSURE_CAP.get(dim, 0)
    gen_ops = {label: unitary_to_superop(spec.unitary()) for label, spec in generators.items()}

    identity = SuperOp(dim, np.eye(dim ** 2))
    elements = [CliffordElement(0, identity, (), canonical_key(identity.mat), -1, None)]
    seen = {elements[0].key}
    frontier = [elements[0]]
    while frontier:
        next_frontier = []
        for elem in frontier:
            for label, gen in gen_ops.items():
                op = gen @ elem.op
                key = canonical_key(op.mat)
                if key in seen:
                    continue
                if len(elements) >= cap:
                    raise GroupClosureError(
                        f"closure exceeded {cap} elements; wrong generators or tolerance"
                    )
                new = CliffordElement(
                    len(elements), op, elem.word + (label,), key, elem.index, label
                )
                elements.append(new)
                next_frontier.append(new)
                seen.add(key)
        frontier = next_frontier

    expected = GROUP_ORDER.get(dim)
    if expected is not None and len(elements) != expected:
        raise GroupClosureError(
            f"closure terminated at {len(elements)} elements, expected {expected}"
        )
    return CliffordGroup(dim, elements, generators)


# ---------------------------------------------------------------------------
# Group cache
# ---------------------------------------------------------------------------


def generators_hash(dim: int, generators: dict[str, PulseSpec]) -> str:
    h = hashlib.sha256()
    h.update(str(dim).encode())
    for label in sorted(generators):
        spec = generators[label]
        h.update(label.encode())
        h.update(np.round(np.asarray(spec.hamiltonian, dtype=complex), 12).tobytes())
        h.update(np.float64(spec.angle).tobytes())
    return h.hexdigest()


def save_group(group: CliffordGroup, path: str | Path) -> None:
    labels = sorted(group.generator_pulses)
    label_of = {label: i for i, label in enumerate(labels)}
    vias = np.array([-1 if e.via is None else label_of[e.via] for e in group.elements])
    # numpy appends .npz to a path without it; writing through a file object
    # keeps the cache at exactly `path`, where load_group will look for it
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            dim=group.dim,
            ops=np.stack([e.op.mat for e in group.elements]),
            parents=np.array([e.parent for e in group.elements]),
            vias=vias,
            labels=json.dumps(labels),
            gen_hash=generators_hash(group.dim, group.generator_pulses),
        )


def load_group(
    path: str | Path, generators: dict[str, PulseSpec] | None = None
) -> CliffordGroup:
    """Load a cached group; the cache must match the generators' content hash."""
    with np.load(Path(path), allow_pickle=False) as data:
        dim = int(data["dim"])
        if generators is None:
            generators = default_generators(dim)
        if str(data["gen_hash"]) != generators_hash(dim, generators):
            raise ValueError("group cache was built from different generators")
        labels = json.loads(str(data["labels"]))
        ops = data["ops"]
        parents = data["parents"]
        vias = data["vias"]
    elements = []
    words: list[tuple[str, ...]] = []
    for i in range(ops.shape[0]):
        parent = int(parents[i])
        via = None if vias[i] < 0 else labels[int(vias[i])]
        word = () if parent < 0 else words[parent] + (via,)
        words.append(word)
        op = SuperOp(dim, ops[i])
        elements.append(CliffordElement(i, op, word, canonical_key(op.mat), parent, via))
    return CliffordGroup(dim, elements, generators)
