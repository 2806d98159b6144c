"""Pauli transfer matrices and the inner-product / fidelity algebra built on them.

A channel is stored as its real d**2 x d**2 transfer matrix in the normalized
Pauli basis {I/sqrt(d), P_1/sqrt(d), ...}, with tensor products in lexicographic
order for two qubits.  In this basis trace preservation pins the first row to
(1, 0, ..., 0), unitary channels are orthogonal on the traceless block, and the
projector onto traceless operators is the diagonal matrix diag(0, 1, ..., 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Structural invariants (trace rows, unitarity) are held to STRUCT_TOL;
# quantities derived through floating-point chains are held to DERIVED_TOL.
STRUCT_TOL = 1e-12
DERIVED_TOL = 1e-10

SIGMA_I = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_PAULIS_1Q = (SIGMA_I, SIGMA_X, SIGMA_Y, SIGMA_Z)


@lru_cache(maxsize=None)
def pauli_basis(dim: int) -> np.ndarray:
    """Unnormalized Pauli operators for dimension 2 or 4, identity first (read-only)."""
    if dim == 2:
        stack = np.stack(_PAULIS_1Q)
    elif dim == 4:
        stack = np.stack([np.kron(a, b) for a in _PAULIS_1Q for b in _PAULIS_1Q])
    else:
        raise ValueError(f"unsupported dimension {dim}; expected 2 or 4")
    stack.setflags(write=False)
    return stack


def check_unitary(u: np.ndarray) -> None:
    """Raise ValueError when u'u deviates from the identity by more than 1e-8 (Frobenius)."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if not defect <= 1e-8:  # a NaN defect fails too
        raise ValueError(f"matrix is not unitary: orthogonality defect {defect:.3e}")


def checked_transfer(mats, dim: int, ndim: int) -> np.ndarray:
    """`mats` as a float array of `ndim` axes, the last two a d^2 x d^2 transfer matrix.

    Raises ValueError unless the entries are real and every first row is
    (1, 0, ..., 0) within STRUCT_TOL, that is every matrix preserves trace;
    a NaN in a first row is a deviation.
    """
    n = dim ** 2
    if np.iscomplexobj(mats):
        raise ValueError("transfer matrix entries must be real")
    mats = np.asarray(mats, dtype=float)
    if mats.ndim != ndim or mats.shape[-2:] != (n, n):
        raise ValueError(f"expected shape ({'N, ' * (ndim - 2)}{n}, {n}), got {mats.shape}")
    row = np.zeros(n)
    row[0] = 1.0
    diff = mats[..., 0, :] - row
    dev = np.abs(diff, out=diff).max()  # in place: one temporary the size of the first rows
    if not dev <= STRUCT_TOL:  # a NaN entry fails too
        raise ValueError("first row deviates from trace preservation")
    return mats


@dataclass(frozen=True)
class SuperOp:
    """Trace-preserving channel in the normalized Pauli basis.

    The matrix is real with first row (1, 0, ..., 0); composition is plain
    matrix multiplication with the rightmost factor applied first.
    """

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        mat = checked_transfer(self.mat, self.dim, 2).copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    def __matmul__(self, other: "SuperOp") -> "SuperOp":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in composition")
        return SuperOp(self.dim, self.mat @ other.mat)


def unitary_to_superop(u: np.ndarray) -> SuperOp:
    """Transfer matrix of conjugation by u, entries tr(P_j u P_k u')/d.

    Built once per distinct complex128 unitary, keyed on its shape and bytes,
    among the last 128 built; a repeat returns the same read-only `SuperOp`.
    """
    u = np.asarray(u, dtype=complex)
    return _transfer(u.shape, u.tobytes())


@lru_cache(maxsize=128)
def _transfer(shape: tuple[int, ...], data: bytes) -> SuperOp:
    u = np.frombuffer(data, dtype=complex).reshape(shape)
    check_unitary(u)
    dim = u.shape[0]
    paulis = pauli_basis(dim)
    conj = u @ paulis @ u.conj().T
    mat = np.einsum("jab,kba->jk", paulis, conj) / dim
    if np.abs(mat.imag).max() > DERIVED_TOL:
        raise ValueError("transfer matrix has a non-negligible imaginary part")
    mat = mat.real.copy()
    # conjugation is trace preserving and unital: pin the exact rows/columns
    mat[0, :] = 0.0
    mat[:, 0] = 0.0
    mat[0, 0] = 1.0
    return SuperOp(dim, mat)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, so vec(A B C) = kron(C^T, A) vec(B)."""
    m = np.asarray(m)
    return m.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v).reshape(-1)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


def hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(a' b) for real blocks."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float((a * b).sum())


@lru_cache(maxsize=None)
def traceless_projector(dim: int) -> np.ndarray:
    """Projector onto the traceless hyperplane: diag(0, 1, ..., 1)."""
    pi = np.eye(dim ** 2)
    pi[0, 0] = 0.0
    pi.setflags(write=False)
    return pi
