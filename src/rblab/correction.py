"""Finding the unitary that reconciles a noisy gate-set's frame with its targets.

The coherent part of the asymptotic right error operator is what separates the
decay parameter from the gate-set circuit fidelity at a fixed target frame.  For a
single qubit the polar decomposition of the 3x3 Bloch block isolates that
rotation analytically; in general it is recovered by a saddle-free Newton
ascent on the unitary group, from a gradient and Hessian in closed form.
Composing the targets with the recovered unitary restores the plain p^m decay
law up to second order in the infidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    pauli_basis,
    unitary_to_superop,
)
from .cliffords import CliffordGroup
from .noise import NoisyGateSet, pulse
from .twirl import RegimeError, TwirlSpectrum


class ImproperRotationError(RegimeError):
    """The orthogonal polar factor has determinant -1.

    An improper factor cannot come from a high-fidelity channel; it signals
    input far outside the regime where the correction is meaningful.
    """


class SingularBlockError(RegimeError):
    """The right-error block is near-singular, so its polar split is undefined.

    A high-fidelity channel has a well-conditioned Bloch block; a singular one
    signals input far outside the regime where the correction is meaningful.
    """


def _rotation_vector(r3: np.ndarray) -> np.ndarray:
    """Rotation vector (unit axis times angle in [0, pi]) of a 3x3 rotation matrix.

    Reads off Markley's quaternion, branching on the largest of the diagonal
    and the trace, takes the sign with w >= 0 (at w == 0, the first non-zero
    of x, y, z positive), and scales the vector part by angle / sin(angle/2),
    through its series below angle 1e-3.  The operation order, including the
    explicit sums of squares in both norms, is that of scipy's
    `Rotation.from_matrix(r3).as_rotvec()`, so the result is bit-identical to
    it for orthogonal input.
    """
    m = [[float(x) for x in row] for row in r3]
    trace = m[0][0] + m[1][1] + m[2][2]
    decision = [m[0][0], m[1][1], m[2][2], trace]
    choice = decision.index(max(decision))
    if choice == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        i = choice
        j = (i + 1) % 3
        k = (j + 1) % 3
        q = [0.0] * 4
        q[i] = 1 - trace + 2 * m[i][i]
        q[j] = m[j][i] + m[i][j]
        q[k] = m[k][i] + m[i][k]
        q[3] = m[k][j] - m[j][k]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    if w < 0 or (w == 0 and next((c for c in (x, y, z) if c != 0), 0.0) < 0):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return np.array([scale * x, scale * y, scale * z])


def lift_rotation(r3: np.ndarray) -> np.ndarray:
    """SU(2) element whose Bloch action is the given 3x3 rotation matrix.

    The two lifts differ by a global sign, which the channel picture ignores.
    """
    r3 = np.asarray(r3, dtype=float)
    rotvec = _rotation_vector(r3)
    angle = float(np.linalg.norm(rotvec))
    if angle == 0.0:
        return np.eye(2, dtype=complex)
    n = rotvec / angle
    h = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    u = pulse(h, -angle)
    if np.max(np.abs(unitary_to_superop(u).mat[1:, 1:] - r3)) > 1e-8:
        raise RuntimeError("lifted unitary does not reproduce the rotation block")
    return u


@dataclass(frozen=True)
class CorrectionResult:
    """A correction unitary, its fidelity and the right-error block it corrects.

    `rotation` is the rotation factor R of the one-qubit polar split B = D R,
    which the unitary undoes; it is None on the SU(d) ascent.  `converged`
    means a strict local maximum, pinned to rounding (on the ascent, a negative
    definite Hessian).  `start_index` is always 0, the identity start of the
    one ascent; perfbench's traced runs record it.
    """

    unitary: np.ndarray
    fidelity: float
    corrected_block: np.ndarray
    converged: bool
    iterations: int
    start_index: int = 0
    rotation: np.ndarray | None = None

    @property
    def rotation_angle(self) -> float:
        return float(np.linalg.norm(_rotation_vector(self.rotation)))

    @property
    def rotation_axis(self) -> np.ndarray:
        rotvec = _rotation_vector(self.rotation)
        norm = np.linalg.norm(rotvec)
        return rotvec / norm if norm > 0 else np.array([0.0, 0.0, 1.0])


def polar_correct(right_error_block: np.ndarray) -> CorrectionResult:
    """Correction of a single-qubit Bloch block by its left polar split B = D R.

    Undoing the rotation factor R, the fidelity-maximizing choice among all
    unitaries composed on the right, leaves the positive factor D, whose
    fidelity is 1/2 + tr(D)/6.  Exact, so converged after zero iterations.
    """
    block = np.asarray(right_error_block, dtype=float)
    if block.shape != (3, 3):
        raise ValueError(f"expected a 3x3 Bloch block, got shape {block.shape}")
    w, s, vh = np.linalg.svd(block, full_matrices=False)
    smin = s.min()
    if smin <= 1e-6:
        raise SingularBlockError(
            f"block is near-singular (smallest singular value {smin:.3e})"
        )
    # left polar split block = (W S W') (W V') from the same SVD; only its rotation factor is used
    v_tr = w @ vh
    det = np.linalg.det(v_tr)
    if det < 1.0 - 1e-8:
        raise ImproperRotationError(f"rotation factor has determinant {det}")
    corrected = block @ v_tr.T
    return CorrectionResult(
        unitary=lift_rotation(v_tr.T),
        fidelity=float(0.5 + 0.5 * np.trace(corrected) / 3.0),
        corrected_block=corrected,
        converged=True,
        iterations=0,
        rotation=v_tr,
    )


@lru_cache(maxsize=None)
def _structure_constants(dim: int) -> np.ndarray:
    """(G_l)_kj = tr(P_k i[P_l, P_j]) / d at [l, k, j], read-only: G_l rotates the Paulis
    under exp(i t P_l).  The entries are small integers over d, so they are exact."""
    gens = pauli_basis(dim)[1:]
    n = len(gens)
    pairs = gens.reshape(n * dim, dim) @ gens.transpose(1, 0, 2).reshape(dim, n * dim)  # one GEMM
    prods = pairs.reshape(n, dim, n, dim)  # [l, a, j, c] = (P_l P_j)_ac
    comm = prods - prods.transpose(2, 1, 0, 3)  # [l, a, j, c] = [P_l, P_j]_ac
    consts = -np.einsum("kca,lajc->lkj", gens, comm).imag / dim
    consts.setflags(write=False)
    return consts


def _corrected_fidelity(q: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Average fidelity of (right error) o U, with its gradient and Hessian.

    With Q_j = sum_k B_kj P_k over the unnormalized traceless Paulis (`q`), the
    block in U's frame is M, A_j = U Q_j U' = sum_k M_kj P_k, and
    f(U) = 1/d + (d-1)/(d n) tr(M), the fidelity read off the transfer matrix
    of U without building it.  Along exp(i sum_l t_l P_l) U, M moves as
    exp(sum_l t_l G_l) M with the structure constants G_l.  So at t = 0 the
    gradient is g_l = (d-1)/(d n) tr(G_l M) and the Hessian
    H_lm = (d-1)/(2 d n) tr((G_l G_m + G_m G_l) M).
    """
    dim = len(u)
    consts = _structure_constants(dim)
    scale = (dim - 1.0) / (dim * (dim ** 2 - 1))
    m = np.einsum("kab,jba->kj", pauli_basis(dim)[1:], u @ q @ u.conj().T).real / dim
    grad = scale * np.einsum("lab,ba->l", consts, m)
    h = np.tensordot(consts, consts @ m, axes=([1, 2], [2, 1]))
    return 1.0 / dim + scale * float(np.trace(m)), grad, 0.5 * scale * (h + h.T)


_CURVATURE_FLOOR = 0.01
_GRAD_TOL = 1e-9
_VALUE_SLACK = 1e-12  # a step may lower the fidelity by rounding, never by more
_MAX_ITERATIONS = 500


def _ascend(q: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray, bool, int]:
    """Saddle-free Newton ascent from U, re-centred at the current U on every step.

    With H = V diag(w) V' the Hessian of f along exp(i sum_l t_l P_l) U, the
    step is t = V diag(1 / max(|w|, `_CURVATURE_FLOOR`)) V' g: Newton's where
    H is negative definite, uphill along directions of positive or flat
    curvature.  It is halved until f rises, or until |g| halves without f
    falling by more than `_VALUE_SLACK`.  Returns the fidelity, U, whether U
    is a strict local maximum (H negative definite with |g| below `_GRAD_TOL`,
    after which one more step takes |g| to rounding) and the iteration count.
    A zero step, where g is exactly zero, ends the ascent at once.
    """
    gens = pauli_basis(len(u))[1:]
    value, grad, hess = _corrected_fidelity(q, u)
    for iterations in range(1, _MAX_ITERATIONS + 1):
        w, v = np.linalg.eigh(hess)
        converged = w[-1] < -_GRAD_TOL and np.linalg.norm(grad) < _GRAD_TOL  # next to a strict maximum: the last step
        step = v @ ((v.T @ grad) / np.maximum(np.abs(w), _CURVATURE_FLOOR))
        if not step.any():
            break
        for _ in range(40):  # halvings down to about 1e-12 of the full step
            candidate = pulse(np.tensordot(step, gens, axes=1), 2.0) @ u
            new_value, new_grad, new_hess = _corrected_fidelity(q, candidate)
            halves = np.linalg.norm(new_grad) < 0.5 * np.linalg.norm(grad)
            if new_value > value or (halves and new_value > value - _VALUE_SLACK):
                u, value, grad, hess = candidate, new_value, new_grad, new_hess
                break
            step = 0.5 * step
        else:
            break  # no step raises f at float resolution
        if converged:
            break
    return value, u, converged, iterations


def optimize_correct(right_error_block: np.ndarray, dim: int) -> CorrectionResult:
    """Unitary maximizing the average fidelity of (right error) o (correction).

    The ascent of `_ascend` on the unitary group itself, over the d^2 - 1
    non-identity Paulis.  It runs once, from the identity: in the
    high-fidelity regime the maximizer is a small rotation next to it, three
    Newton steps away.  A stop that is not a strict local maximum (a flat or
    saddle direction, or 500 iterations) is reported through the flag, not
    raised.
    """
    block = np.asarray(right_error_block, dtype=float)
    n = dim ** 2 - 1
    if block.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} Bloch block, got shape {block.shape}")
    q = np.tensordot(block.T, pauli_basis(dim)[1:], axes=1)
    value, unitary, converged, iterations = _ascend(q, np.eye(dim, dtype=complex))
    return CorrectionResult(
        unitary=unitary,
        fidelity=value,
        corrected_block=block @ unitary_to_superop(unitary).mat[1:, 1:],
        converged=converged,
        iterations=iterations,
    )


def correct_spectrum(spectrum: TwirlSpectrum) -> CorrectionResult:
    """Correction of the asymptotic right error operator of a twirl spectrum: the
    polar split of `polar_correct` for one qubit, the SU(d) ascent of
    `optimize_correct` otherwise.

    The unit-Frobenius operator's traceless block is scaled by sqrt(d^2 - 1), the
    Frobenius norm of an orthogonal block, so an ideal set's block is the identity.
    An eigenvector's sign is free and d^2 - 1 is odd, so the block takes the sign
    of positive determinant, the one a rotation can undo: the sign that orients
    the operator towards Pi_tr is the other one in frames that turn it far enough.
    """
    block = math.sqrt(spectrum.dim ** 2 - 1) * spectrum.right_error_op[1:, 1:]
    if np.linalg.det(block) < 0:
        block = -block
    return polar_correct(block) if spectrum.dim == 2 else optimize_correct(block, spectrum.dim)


def incoherence_defect(block: np.ndarray) -> float:
    """How far a Bloch block is from having no coherent (rotation) component.

    Zero for pure contractions; grows with any unitary factor.  Compares the
    normalized projector overlap against the normalized Frobenius norm.
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    return abs(float(np.trace(block)) / n - float(np.linalg.norm(block)) / math.sqrt(n))


def correct_from_noisy_set(
    group: CliffordGroup, noisy_set: NoisyGateSet, spectrum: TwirlSpectrum
) -> np.ndarray:
    """Correction unitary from the asymptotic right error operator of a noisy gate-set.

    Reads only `spectrum`, the twirl spectrum of `noisy_set` over `group`; those
    two stay in the signature because callers pass them.  See `correct_spectrum`.
    """
    return correct_spectrum(spectrum).unitary
