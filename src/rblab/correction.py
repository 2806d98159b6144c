"""Finding the unitary that reconciles a noisy gate-set's frame with its targets.

The coherent part of the order-4 right error is what separates the decay
parameter from the gate-set circuit fidelity at a fixed target frame.  For a
single qubit the polar decomposition of the 3x3 Bloch block isolates that
rotation analytically; in general it is recovered by an ascent on the unitary
group that ends in Newton steps, from a gradient and Hessian in closed form.
Composing the targets with the recovered unitary restores the plain p^m decay
law up to second order in the infidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .twirl import RegimeError, TwirlSpectrum, order_m_error_blocks


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
    # left polar split block = d_tr @ v_tr from the same SVD
    v_tr = w @ vh
    d_tr = (w * s) @ w.T
    det = np.linalg.det(v_tr)
    if det < 1.0 - 1e-8:
        raise ImproperRotationError(f"rotation factor has determinant {det}")
    if np.linalg.eigvalsh(d_tr).min() < -1e-10:
        raise RuntimeError("positive polar factor has a negative eigenvalue")
    if np.max(np.abs(d_tr @ v_tr - block)) > 1e-10 * max(1.0, np.max(np.abs(block))):
        raise RuntimeError("polar factors do not reproduce the input block")
    corrected = block @ v_tr.T
    return CorrectionResult(
        unitary=lift_rotation(v_tr.T),
        fidelity=float(0.5 + 0.5 * np.trace(corrected) / 3.0),
        corrected_block=corrected,
        converged=True,
        iterations=0,
        rotation=v_tr,
    )


class _CorrectedFidelity:
    """Average fidelity of (right error) o U, with its gradient and Hessian.

    With Q_j = sum_k B_kj P_k over the unnormalized traceless Paulis, the
    block in U's frame is M, A_j = U Q_j U' = sum_k M_kj P_k, and
    f(U) = 1/d + (d-1)/(d n) tr(M), the fidelity read off the transfer matrix
    of U without building it.  Along exp(i sum_l t_l P_l) U, M moves as
    exp(sum_l t_l G_l) M, where the structure constants
    (G_l)_kj = tr(P_k i[P_l, P_j]) / d generate the rotation of the Paulis.
    So at t = 0 the gradient is g_l = (d-1)/(d n) tr(G_l M) and the Hessian
    H_lm = (d-1)/(2 d n) tr((G_l G_m + G_m G_l) M).
    """

    def __init__(self, block: np.ndarray, dim: int):
        self.dim = dim
        self.gens = pauli_basis(dim)[1:]  # the traceless generators of SU(dim)
        self.q = np.tensordot(block.T, self.gens, axes=1)
        self.scale = (dim - 1.0) / (dim * (dim ** 2 - 1))
        comm = self.gens[:, None] @ self.gens - self.gens @ self.gens[:, None]
        self.adjoint = -np.einsum("kab,ljba->lkj", self.gens, comm).imag / dim

    def _frame(self, u: np.ndarray) -> np.ndarray:
        a = u @ self.q @ u.conj().T
        return np.einsum("kab,jba->kj", self.gens, a).real / self.dim

    def evaluate(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        """f at U and its gradient g_l = d/dt f(exp(i t P_l) U) at t = 0."""
        m = self._frame(u)
        grad = self.scale * np.einsum("lab,ba->l", self.adjoint, m)
        return 1.0 / self.dim + self.scale * float(np.trace(m)), grad

    def hessian(self, u: np.ndarray) -> np.ndarray:
        """H_lm = d^2/dt_l dt_m f(exp(i sum_l t_l P_l) U) at t = 0."""
        h = np.tensordot(self.adjoint, self.adjoint @ self._frame(u), axes=([1, 2], [2, 1]))
        return 0.5 * self.scale * (h + h.T)


_LEARNING_RATE = 0.5
_GRAD_TOL = 1e-9
_VALUE_SLACK = 1e-12  # a Newton step may lower the fidelity by rounding, never by more
_MAX_ITERATIONS = 500


def _ascend(objective: _CorrectedFidelity, u: np.ndarray) -> tuple[float, np.ndarray, bool, int]:
    """Ascent from U, re-centred at the current U on every step.

    Where the Hessian H of f along exp(i sum_l t_l P_l) U is negative definite,
    the step is Newton's, t = -H^-1 g, kept when it halves |g| without
    lowering f beyond rounding.  Elsewhere, or when it is not kept, the step is
    U <- exp(i lr G) U with G = sum_l g_l P_l, the step length halved from
    `_LEARNING_RATE` until the fidelity rises.  Returns the fidelity, U,
    whether U is a strict local maximum (H negative definite with |g| below
    `_GRAD_TOL`, after which one more Newton step takes |g| to rounding) and
    the iteration count.
    """
    value, grad = objective.evaluate(u)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        hess = objective.hessian(u)
        if np.linalg.eigvalsh(hess)[-1] < -_GRAD_TOL:  # negative definite
            converged = np.linalg.norm(grad) < _GRAD_TOL  # next to a strict maximum: the last step
            step = np.linalg.solve(hess, -grad)
            candidate = pulse(np.tensordot(step, objective.gens, axes=1), 2.0) @ u
            candidate_value, candidate_grad = objective.evaluate(candidate)
            if np.linalg.norm(candidate_grad) < 0.5 * np.linalg.norm(grad) and candidate_value > value - _VALUE_SLACK:
                u, value, grad = candidate, candidate_value, candidate_grad
                if not converged:
                    continue
            if converged:
                break
        lr = _LEARNING_RATE
        while lr > 1e-12:
            candidate = pulse(np.tensordot(lr * grad, objective.gens, axes=1), 2.0) @ u
            candidate_value, candidate_grad = objective.evaluate(candidate)
            if candidate_value > value:
                u, value, grad = candidate, candidate_value, candidate_grad
                break
            lr *= 0.5
        else:
            break  # no ascent left at float resolution, and no strict maximum
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
    value, unitary, converged, iterations = _ascend(
        _CorrectedFidelity(block, dim), np.eye(dim, dtype=complex)
    )
    return CorrectionResult(
        unitary=unitary,
        fidelity=value,
        corrected_block=block @ unitary_to_superop(unitary).mat[1:, 1:],
        converged=converged,
        iterations=iterations,
    )


def correct_spectrum(spectrum: TwirlSpectrum) -> CorrectionResult:
    """Correction of the order-4 right-error block of a twirl spectrum: the polar
    split of `polar_correct` for one qubit, the SU(d) ascent of `optimize_correct`
    otherwise."""
    block, _ = order_m_error_blocks(spectrum.twirl, 4)
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
    """Correction unitary from the order-4 right error of a noisy gate-set.

    Reads only `spectrum`, the twirl spectrum of `noisy_set` over `group`; those
    two stay in the signature because callers pass them.  See `correct_spectrum`.
    """
    return correct_spectrum(spectrum).unitary
