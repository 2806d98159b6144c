"""Twirling superoperator, its dominant eigenpair, and exact fidelity curves.

The central object is T = mean over the gate-set of kron(G Pi_tr, G_noisy).
Its dominant eigenvalue is the RB decay parameter p; the left/right dominant
eigenvectors, reshaped to matrices, are the asymptotic right/left error
operators; and m-fold application of T to the vectorized traceless projector
yields the exact traceless-hyperplane fidelity of depth-m circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    SuperOp,
    hs_inner,
    traceless_projector,
    unitary_to_superop,
    unvec,
    vec,
)
from .cliffords import CliffordGroup
from .noise import NoisyGateSet, depth_grid


class RegimeError(RuntimeError):
    """The input left the high-fidelity regime the analysis assumes; the CLI exits 3."""


class DegenerateSpectrumError(RegimeError):
    """The dominant eigenvalue is complex or not isolated.

    The spectral analysis assumes the noisy set is a perturbation of the ideal
    one, leaving a single real dominant eigenvalue; violations are reported
    instead of silently continued.
    """


class FitWindowError(RegimeError):
    """A fidelity curve reaches 1/d inside a log fit's window, where its log is undefined."""


@dataclass(frozen=True)
class TwirlSuperop:
    """Group-averaged kron(G Pi_tr, G_noisy), a (d^2)^2 x (d^2)^2 real matrix."""

    dim: int
    mat: np.ndarray


_COSET_BLOCK = 48  # cosets gathered at once: about 0.8 MB of one entry chunk's rows at d=4, 15 blocks
_ENTRY_BLOCK = 128  # noisy entries (lm) summed at once: one chunk at d=2, two in turn at d=4


def build_twirl(group: CliffordGroup, noisy_set: NoisyGateSet) -> TwirlSuperop:
    """Arithmetic mean of kron(G Pi_tr, G_noisy) over the index-aligned stacks, coset by coset.

    As `G_{cp} = G_c D_p` (`CliffordGroup.cosets`), moment (j, k) is `(1/N) sum_c G_c[j, k] W[k, c]`
    with `W[k, c] = sum_p D_p[k, k] B_{cp}`, one small +-1 GEMM per coset and one matmul over k per
    block of cosets.  Each noisy entry (lm) is summed on its own, `_ENTRY_BLOCK` entries at a time,
    so one chunk's gathers stay cache-sized; every BLAS call stays below the size at which OpenBLAS
    starts threads of its own.
    """
    if len(noisy_set) != len(group):
        raise ValueError(
            f"noisy set has {len(noisy_set)} elements, group has {len(group)}"
        )
    n = group.dim ** 2
    idx, signs, cols = group.cosets
    ks = slice(1, n)  # Pi_tr zeroes column k = 0 of every G
    noisy = noisy_set.mats.reshape(len(group), n * n)
    moments = np.zeros((n, n, n * n))  # axes k, j, (lm)
    for first in range(0, n * n, _ENTRY_BLOCK):
        lm = slice(first, first + _ENTRY_BLOCK)
        for lo in range(0, len(idx), _COSET_BLOCK):
            blk = slice(lo, lo + _COSET_BLOCK)
            x = noisy[idx[blk], lm]  # axes c, p, lm
            w = (signs[ks] @ x).transpose(1, 0, 2)  # axes k, c, lm
            moments[ks, :, lm] += cols[ks, :, blk] @ w
    t = (moments / len(group)).reshape(n, n, n, n).transpose(1, 2, 0, 3).reshape(n * n, n * n)
    return TwirlSuperop(group.dim, t)


_POWER_MAXITER = 100_000


def power_iteration(mat: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair by power iteration, to a 1e-14 Rayleigh-quotient step."""
    w = np.ascontiguousarray(start, dtype=float)  # a strided start would take ddot's strided path
    lam = np.inf
    for _ in range(_POWER_MAXITER):
        # .dot: the BLAS routine of @, without the matmul ufunc's dispatch; sqrt(x.dot(x)) is np.linalg.norm
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            raise DegenerateSpectrumError("power iteration collapsed to the null space")
        v = w / norm
        w = mat.dot(v)  # one matvec per step: the Rayleigh quotient, residual and next step share it
        lam_new = float(v.dot(w))
        if abs(lam_new - lam) <= 1e-14 * max(1.0, abs(lam_new)):
            r = w - lam_new * v
            if math.sqrt(r.dot(r)) <= 1e-11 * max(1.0, abs(lam_new)):
                return lam_new, v
        lam = lam_new
    raise DegenerateSpectrumError(
        f"power iteration did not converge in {_POWER_MAXITER} iterations; "
        "dominant eigenvalue may be complex or degenerate"
    )


def _dense_eigenvalue(mat: np.ndarray) -> float:
    """Dominant eigenvalue from a full eigensolve, raising if it is not isolated: a complex
    one is not, as `eigvals` of a real matrix returns exact conjugate pairs."""
    evals = np.linalg.eigvals(mat)
    order = np.argsort(-np.abs(evals))
    lam = evals[order[0]]
    scale = max(1.0, abs(lam))
    if abs(lam) - abs(evals[order[1]]) < 1e-6 * scale:
        raise DegenerateSpectrumError(
            f"dominant eigenvalue is degenerate: |{lam}| vs |{evals[order[1]]}|"
        )
    return lam.real


def _heaviest_column(mat: np.ndarray) -> np.ndarray:
    """The column of largest norm."""
    return mat[:, int(np.argmax(np.linalg.norm(mat, axis=0)))]


def _fix_eigenop(op: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Orient by positive overlap with Pi_tr (or, at zero overlap, by a positive largest entry), normalize."""
    overlap = hs_inner(pi, op)
    if overlap < 0 or (overlap == 0 and op.flat[np.argmax(np.abs(op))] < 0):
        op = -op
    return op / np.linalg.norm(op)


@dataclass(frozen=True)
class TwirlSpectrum:
    """Dominant eigenpair of a twirl and the operators derived from it.

    `right_error_op` / `left_error_op` are the unit-Frobenius asymptotic error
    operators (left / right dominant eigenvectors of the twirl reshaped to
    matrices, oriented so their overlap with Pi_tr is positive; where that
    overlap is exactly zero, as under a relabeling, so that their entry of
    largest magnitude, the first in C order on ties, is positive).
    """

    dim: int
    p: float
    right_error_op: np.ndarray
    left_error_op: np.ndarray
    twirl: TwirlSuperop

    # -- basis expansion -----------------------------------------------------

    def decay_amplitude(self, basis: SuperOp) -> float:
        """Coefficient of p^m in the exact fidelity curve for this target basis."""
        us = basis.mat
        norm_pi_sq = self.dim ** 2 - 1
        num = hs_inner(self.right_error_op.T, us) * hs_inner(us, self.left_error_op)
        den = norm_pi_sq * hs_inner(self.right_error_op.T, self.left_error_op)
        return num / den


def dominant_spectrum(t: TwirlSuperop) -> TwirlSpectrum:
    """Extract p and the asymptotic error operators from a twirl.

    Power iteration on the twirl from its column of largest norm, and on its
    transpose from its row of largest norm, at every dimension.  Near the
    rank-one limit T ~ p r l^T that column is about p l_j r with the largest
    |l_j|, so its overlap with the dominant mode cannot vanish in any frame
    (vec(Pi_tr) has none under a Pauli relabeling of both qubits).  At d=2 a
    dense eigensolve also guards the answer: a degenerate dominant eigenvalue,
    complex ones included, or one more than 1e-8 off p, is reported.  At d=4 that
    solve would cost more than the power iteration it checks.
    """
    pi = traceless_projector(t.dim)
    lam = _dense_eigenvalue(t.mat) if t.dim == 2 else None
    p, right = power_iteration(t.mat, _heaviest_column(t.mat))
    p_left, left = power_iteration(t.mat.T, _heaviest_column(t.mat.T))
    scale = max(1.0, abs(p))
    if lam is not None and abs(p - lam) > 1e-8 * scale:
        raise DegenerateSpectrumError(f"power iteration and dense eigensolve disagree: {p} vs {lam}")
    if p > 1.0 + 1e-10:
        raise DegenerateSpectrumError(f"dominant eigenvalue {p} exceeds 1")
    # the walk held the left residual r at p_left; at p, the value the error operators use, it is
    # sqrt(r^2 + (p - p_left)^2), as r is orthogonal to `left`: so this also refuses a p_left off p
    if np.linalg.norm(t.mat.T @ left - p * left) > 1e-10 * scale:
        raise DegenerateSpectrumError(f"left eigenvector residual exceeds tolerance at p = {p}, p_left = {p_left}")
    return TwirlSpectrum(
        dim=t.dim,
        p=p,
        right_error_op=_fix_eigenop(unvec(left).T, pi),
        left_error_op=_fix_eigenop(unvec(right), pi),
        twirl=t,
    )


# ---------------------------------------------------------------------------
# Fidelity curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityCurve:
    """Exact gate-set circuit fidelity over a depth grid for one target basis."""

    dim: int
    depths: np.ndarray
    fidelity: np.ndarray  # F at each depth
    traceless_fidelity: np.ndarray  # f_tr at each depth
    amplitude: float  # coefficient C of p^m
    residual: np.ndarray  # f_tr - C p^m at each depth
    ratio_deviation: np.ndarray  # f_tr(m+1)/f_tr(m) - p at each depth
    p: float

    def log_fit(self, lo: int, hi: int) -> tuple[float, float]:
        """Straight-line fit of log(F - 1/d) against m over lo <= m <= hi.

        Returns the slope and the intercept A of F(m) = 1/d + (A - 1/d) exp(slope m).
        Raises FitWindowError if F(m) - 1/d <= 0 at a depth of the window.
        """
        mask = (self.depths >= lo) & (self.depths <= hi)
        excess = self.fidelity[mask] - 1.0 / self.dim
        low = self.depths[mask][excess <= 0]
        if low.size:
            raise FitWindowError(
                f"F(m) - 1/d <= 0 at depth {low[0]}, so the log fit over m = {lo}..{hi} is undefined"
            )
        y = np.log(excess)
        slope, intercept = np.polyfit(self.depths[mask].astype(float), y, 1)
        return slope, 1.0 / self.dim + np.exp(intercept)


def fidelity_curve_exact(spectrum: TwirlSpectrum, basis_u: np.ndarray, depths) -> FidelityCurve:
    """Exact fidelity curve via repeated twirl-vector products; every depth in [0, 2^32)."""
    t = spectrum.twirl.mat
    dim = spectrum.dim
    depths = depth_grid(depths, 0)
    us = unitary_to_superop(basis_u)
    pi = traceless_projector(dim)
    u_vec = vec(us.mat @ pi) / np.sqrt(dim ** 2 - 1)

    max_m = int(depths.max())
    ftr_all = np.empty(max_m + 2)
    v = u_vec.copy()
    ftr_all[0] = u_vec @ v
    for m in range(1, max_m + 2):
        v = t.dot(v)  # .dot: the BLAS routine of @, without the matmul ufunc's dispatch
        ftr_all[m] = u_vec.dot(v)

    ftr = ftr_all[depths]
    c = spectrum.decay_amplitude(us)
    p = spectrum.p
    # the ratio is meaningless once f_tr sits at the numerical-zero floor
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(ftr) > 1e-13, ftr_all[depths + 1] / ftr - p, np.nan)
    return FidelityCurve(
        dim=dim,
        depths=depths,
        fidelity=1.0 / dim + (dim - 1.0) / dim * ftr,
        traceless_fidelity=ftr,
        amplitude=c,
        residual=ftr - c * p ** depths.astype(float),
        ratio_deviation=delta,
        p=p,
    )


def nondominant_radius(t: TwirlSuperop) -> float:
    """Largest modulus among the non-dominant eigenvalues (diagnostic)."""
    evals = np.linalg.eigvals(t.mat)
    order = np.argsort(-np.abs(evals))
    return float(np.abs(evals[order[1]]))
