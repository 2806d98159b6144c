"""Reference routes and helpers that only the tests use.

Each is an independent cross-check of a library route, or a test input
generator, kept beside the tests so the library ships only what its command
line runs.  pytest does not collect this module; test files import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from rblab.channels import (
    SuperOp,
    check_unitary,
    pauli_basis,
    traceless_projector,
    unitary_to_superop,
    unvec,
    vec,
)
from rblab.cliffords import CliffordGroup, compose_rows, compose_sequences
from rblab.noise import NoisyGateSet, generator_mats
from rblab.twirl import (
    _POWER_MAXITER,
    DegenerateSpectrumError,
    TwirlSpectrum,
    TwirlSuperop,
    build_twirl,
    dominant_spectrum,
    fidelity_curve_exact,
)

# the imaginary-part bound of `uncached_unitary_to_superop`, for quantities derived through floating-point chains
DERIVED_TOL = 1e-10


@cache
def ideal_mats(group: CliffordGroup) -> np.ndarray:
    """The exact ideal transfer matrices of every element, read-only.

    Its own route to the group's `transfer_mats()`: the replay of the ideal
    pulses, whose entries are within 4e-15 of +-1 and 0, rounded to them.
    """
    mats = np.rint(group.replay(generator_mats(group.dim)))
    mats.setflags(write=False)
    return mats


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def uncached_unitary_to_superop(u: np.ndarray) -> SuperOp:
    """`unitary_to_superop` as it was before its cache: the same arithmetic on every call.

    The oracle for the cached route's bits, on any memory layout of `u`.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u)
    dim = u.shape[0]
    paulis = pauli_basis(dim)
    conj = u @ paulis @ u.conj().T
    mat = np.einsum("jab,kba->jk", paulis, conj) / dim
    if np.max(np.abs(mat.imag)) > DERIVED_TOL:
        raise ValueError("transfer matrix has a non-negligible imaginary part")
    mat = mat.real.copy()
    # conjugation is trace preserving and unital: pin the exact rows/columns
    mat[0, :] = 0.0
    mat[:, 0] = 0.0
    mat[0, 0] = 1.0
    return SuperOp(dim, mat)


def exp_i_pauli_sum(dim: int, theta: np.ndarray) -> np.ndarray:
    """exp(i sum_l theta_l P_l) over the non-identity Paulis, by a Hermitian eigensolve."""
    h = np.tensordot(theta, pauli_basis(dim)[1:], axes=1)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_ascent_starts(dim: int, seed: int) -> list[np.ndarray]:
    """exp(i sum_l theta_l P_l) with theta ~ N(0, 0.5^2) from default_rng([seed, k]), k < 8."""
    n = dim ** 2 - 1
    return [
        exp_i_pauli_sum(dim, np.random.default_rng([seed, k]).normal(scale=0.5, size=n))
        for k in range(8)
    ]


def sequence_draws(seed: int, m: int, sequences: int, n: int) -> np.ndarray:
    """The RB sequence draw by numpy itself, one generator per sequence.

    Row k is `np.random.default_rng([seed, m, k]).integers(0, n, size=m)`.
    """
    return np.array(
        [np.random.default_rng([seed, m, k]).integers(0, n, size=m) for k in range(sequences)],
        dtype=np.int64,
    ).reshape(sequences, m)


def reference_resample_means(survivals: np.ndarray, bootstrap: int, rng: np.random.Generator) -> np.ndarray:
    """The bootstrap's per-depth means, gathered by fancy indexing one depth at a time.

    The same pick array as `rb._resample_means`, which gathers through
    `ndarray.take` and must match this bit for bit.
    """
    n_seq, n_depths = survivals.shape
    pick = rng.integers(0, n_seq, size=(bootstrap, n_depths, n_seq))
    means = np.empty((bootstrap, n_depths))
    for di, column in enumerate(survivals.T):
        means[:, di] = column[pick[:, di]].mean(axis=-1)
    return means


# Two decay fits for rb._fit_profile.  reference_fit_profile takes the same
# step rule, bisection on the sign of dRSS/dp, written on the helpers below, so
# the library must match it bit for bit.  golden_fit_profile is a golden-section
# search, which compares RSS values only: an independent minimiser that the
# bisection must match or beat on RSS.
_P_BOUNDS = (0.0, 1.02)
_GRID_POINTS = 1025  # coarse p grid over _P_BOUNDS, spacing about 1e-3
_STEPS = 38  # bisections of a 2e-3 grid bracket, down to about 7e-15
_P_TOL = 1e-12  # width of the golden-section search's final bracket on p
_FLAT_TOL = 1e-12  # means within this range of each other carry no decay
# A minimum this close to a bound sits on it.  Near p = 0 the profile is flat
# to rounding (only the shortest depth still sees p^m), so the search stops
# short of 0 instead of on it.
_BOUND_TOL = 1e-6
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _powers_minus_one(p: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """p**m - 1 for each p (leading axes) and depth m (last axis), accurate near p = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = np.expm1(np.log(p)[..., None] * depths)
    return np.where(depths == 0, 0.0, x1)  # 0**0 == 1


def _profile(depths: np.ndarray, y: np.ndarray, p: np.ndarray):
    """Least-squares A, B and residuals of y = A p^m + B, row by row at fixed p.

    For a fixed p the model is linear in (A, B), so both follow in closed form.
    At p = 0 or 1 (all p^m equal) A is not identifiable and is set to 0.
    """
    x1 = _powers_minus_one(p, depths)
    xc = x1 - x1.mean(axis=-1, keepdims=True)
    yc = y - y.mean(axis=-1, keepdims=True)
    sxx = (xc * xc).sum(axis=-1)
    sxy = (xc * yc).sum(axis=-1)
    a = np.divide(sxy, sxx, out=np.zeros_like(sxy), where=sxx > 0)
    b = y.mean(axis=-1) - a * (1.0 + x1.mean(axis=-1))
    return a, b, yc - a[..., None] * xc


def _rss(depths: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    return (_profile(depths, y, p)[2] ** 2).sum(axis=-1)


def _descent(depths: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-dRSS/dp / 2 = A sum_m res_m m p^(m-1) at each row's p (the envelope theorem).

    The derivative of p^m is centred over the depths: the residuals sum to zero
    only up to the rounding of the mean of y, which would otherwise bias the sign.
    """
    a, _, res = _profile(depths, y, p)
    dx = depths * p[..., None] ** (depths - 1)
    return a * (res * (dx - dx.mean(axis=-1, keepdims=True))).sum(axis=-1)


def _grid_bracket(depths: np.ndarray, y: np.ndarray):
    """Each row's best point of the coarse p grid and its two neighbours."""
    grid = np.linspace(*_P_BOUNDS, _GRID_POINTS)
    xc = _powers_minus_one(grid, depths)
    xc -= xc.mean(axis=-1, keepdims=True)
    yc = y - y.mean(axis=-1, keepdims=True)
    sxx = (xc * xc).sum(axis=-1)
    explained = yc @ xc.T  # the largest array, so the rest works in place
    np.square(explained, out=explained)
    np.divide(explained, sxx, out=explained, where=sxx > 0)
    explained[:, sxx <= 0] = 0.0
    k = explained.argmax(axis=-1)  # lowest RSS = Syy - Sxy^2 / Sxx
    return grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, grid.size - 1)]


def _fit_at(depths: np.ndarray, y: np.ndarray, p: np.ndarray):
    """A, B, p and the bound mask at the searched p, with flat rows set to p = 1, A = 0."""
    lo_p, hi_p = _P_BOUNDS
    at_bound = (p < lo_p + _BOUND_TOL) | (p > hi_p - _BOUND_TOL)
    a, b, _ = _profile(depths, y, p)
    flat = np.ptp(y, axis=-1) <= _FLAT_TOL
    return (
        np.where(flat, 0.0, a),
        np.where(flat, y.mean(axis=-1), b),
        np.where(flat, 1.0, p),
        at_bound & ~flat,
    )


def reference_fit_profile(depths: np.ndarray, y: np.ndarray):
    """Minimise the profile RSS(p) over _P_BOUNDS for every row of y at once.

    A coarse grid picks each row's bracket; _STEPS bisections keep the half
    towards which RSS falls at the midpoint.  Returns A, B, p and a mask of
    rows whose minimum sits on a bound, that is whose least-squares p lies
    outside _P_BOUNDS.
    """
    lo, hi = _grid_bracket(depths, y)
    for _ in range(_STEPS):
        mid = 0.5 * (lo + hi)
        falls = _descent(depths, y, mid) > 0
        lo = np.where(falls, mid, lo)
        hi = np.where(falls, hi, mid)
    return _fit_at(depths, y, 0.5 * (lo + hi))


def golden_fit_profile(depths: np.ndarray, y: np.ndarray):
    """The same fit by golden-section search on RSS(p) to a bracket _P_TOL wide."""
    lo, hi = _grid_bracket(depths, y)
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = _rss(depths, y, c), _rss(depths, y, d)
    spacing = (_P_BOUNDS[1] - _P_BOUNDS[0]) / (_GRID_POINTS - 1)
    steps = int(np.ceil(np.log(_P_TOL / (2 * spacing)) / np.log(_INV_PHI)))
    for _ in range(steps):
        left = fc < fd  # the minimum lies in [lo, d]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        new = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fnew = _rss(depths, y, new)
        c, fc, d, fd = (
            np.where(left, new, d),
            np.where(left, fnew, fd),
            np.where(left, c, new),
            np.where(left, fc, fnew),
        )
    return _fit_at(depths, y, np.where(fc < fd, c, d))


def reference_build_twirl(group: CliffordGroup, noisy_set: NoisyGateSet) -> TwirlSuperop:
    """The twirl as one dense moment GEMM over the whole group, the route before the coset split."""
    if len(noisy_set) != len(group):
        raise ValueError(
            f"noisy set has {len(noisy_set)} elements, group has {len(group)}"
        )
    n = group.dim ** 2
    noisy = noisy_set.mats.reshape(len(group), n * n)
    # mean of kron(G_k Pi_tr, B_k) from the (jk),(lm) moments: linear in G[j, k], so Pi_tr zeroes rows (j0)
    moments = ideal_mats(group).reshape(len(group), n * n).T @ noisy / len(group)
    moments.reshape(n, n, n * n)[:, 0] = 0.0
    t = moments.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return TwirlSuperop(group.dim, t)


def matmul_power_iteration(mat: np.ndarray, start: np.ndarray) -> tuple[float, np.ndarray]:
    """`twirl.power_iteration` stepped through `@` and `np.linalg.norm`, the route before `.dot`."""
    w = np.asarray(start, dtype=float)
    lam = np.inf
    for _ in range(_POWER_MAXITER):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise DegenerateSpectrumError("power iteration collapsed to the null space")
        v = w / norm
        w = mat @ v
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= 1e-14 * max(1.0, abs(lam_new)):
            if np.linalg.norm(w - lam_new * v) <= 1e-11 * max(1.0, abs(lam_new)):
                return lam_new, v
        lam = lam_new
    raise DegenerateSpectrumError("power iteration did not converge")


def matmul_traceless_curve(spectrum: TwirlSpectrum, basis_u: np.ndarray, max_m: int) -> np.ndarray:
    """f_tr(m) = u^T T^m u for m = 0..max_m, the loop of `fidelity_curve_exact` stepped through `@`."""
    t = spectrum.twirl.mat
    pi = traceless_projector(spectrum.dim)
    u_vec = vec(unitary_to_superop(basis_u).mat @ pi) / np.sqrt(spectrum.dim ** 2 - 1)
    ftr = np.empty(max_m + 1)
    v = u_vec.copy()
    ftr[0] = u_vec @ v
    for m in range(1, max_m + 1):
        v = t @ v
        ftr[m] = u_vec @ v
    return ftr


def find(group: CliffordGroup, mat: np.ndarray):
    """Index of the element with this signed-permutation transfer matrix (array of them for a stack)."""
    rows = (np.rint(mat) @ np.arange(1, mat.shape[-1] + 1)).astype(np.int8)
    idx = group.indices(rows.reshape(-1, mat.shape[-1]))
    return idx if mat.ndim == 3 else int(idx[0])


def enumerated_products(group: CliffordGroup, noisy_set: NoisyGateSet, m: int):
    """Ideal and noisy products of all N^m sequences of m gates, as two stacks.

    Row r belongs to the r-th sequence of `itertools.product(range(N), repeat=m)`,
    whose first gate acts first.  Each gate is one batched matmul of every
    element against every product so far, with no library composition routine.
    """
    n = group.dim ** 2
    ideal = noisy = np.eye(n)[None]
    for _ in range(m):
        ideal = (ideal_mats(group)[None] @ ideal[:, None]).reshape(-1, n, n)
        noisy = (noisy_set.mats[None] @ noisy[:, None]).reshape(-1, n, n)
    return ideal, noisy


def deflated(spectrum: TwirlSpectrum) -> np.ndarray:
    """The twirl with its dominant rank-1 part removed."""
    vr = vec(spectrum.left_error_op)
    vl = vec(spectrum.right_error_op.T)
    return spectrum.twirl.mat - spectrum.p * np.outer(vr, vl) / float(vl @ vr)


def right_error_op_at(spectrum, m):
    """Depth-m right-error operator (converges to right_error_op as m grows)."""
    pi = traceless_projector(spectrum.dim)
    v = vec(pi)
    for _ in range(m):
        v = spectrum.twirl.mat.T @ v
    return unvec(v).T / spectrum.p ** m


def order_m_error_blocks(twirl: TwirlSuperop, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bloch blocks of the depth-m right and left error operators.

    The right block is the traceless block of the projected average of
    (ideal sequence inverse) o (noisy sequence) over all depth-m sequences,
    obtained here by m-fold application of the twirl rather than enumeration.
    The correction reads the m -> infinity limit, `TwirlSpectrum.right_error_op`.
    """
    if m < 1:
        raise ValueError("order must be at least 1")
    v = vec(traceless_projector(twirl.dim))
    vr = v.copy()
    vl = v.copy()
    for _ in range(m):
        vr = twirl.mat.T @ vr
        vl = twirl.mat @ vl
    right = unvec(vr).T
    left = unvec(vl)
    return right[1:, 1:], left[1:, 1:]


def exact_rb_means(
    group: CliffordGroup,
    noisy_set: NoisyGateSet,
    depths,
    rho: np.ndarray,
    mu: np.ndarray,
) -> np.ndarray:
    """Exact mean survival of motion-reversal RB at each depth, by group convolution.

    The convolution of Merkel, Pritchett and Fong (arXiv:1804.05951), at both
    dims.  `a_m[h]` sums, over the sequences of m gates whose ideal product is
    h, their noisy product applied to `rho`, over N^m: `a_1[h] = noisy(h) rho / N`,
    and as the last gate g leaves a prefix of product g^-1 h,
    `a_m[h] = (1/N) sum_g noisy(g) a_{m-1}[g^-1 h]`, one g at a time from the
    N products `g^-1 h` of its row.  The depth-m mean survival is
    `sum_h mu . noisy(h^-1) a_m[h]`.  `depths` must be increasing, from 1.
    """
    n_el = len(group)
    noisy = noisy_set.mats
    closing = noisy[group.inverse_table]
    a = noisy @ rho / n_el
    done = 1
    means = []
    for m in depths:
        for _ in range(m - done):
            step = np.zeros_like(a)
            for g in range(n_el):
                rows = compose_rows(group.table[group.inverse_table[g]][None], group.table)  # g^-1 h
                step += a[group.indices(rows)] @ noisy[g].T / n_el
            a = step
        done = m
        means.append(float(np.einsum("i,hij,hj->", mu, closing, a)))
    return np.array(means)


def rb_convolution_operator(group: CliffordGroup, noisy_set: NoisyGateSet) -> np.ndarray:
    """The step of `exact_rb_means` as one (N d^2, N d^2) matrix M.

    On functions `a: G -> R^{d^2}`, stacked element by element, block (h, k)
    is `noisy(h k^-1) / N`, so `a_m = M a_{m-1}` and the depth-m mean
    survival is `L . M^(m-1) a_1`, with `a_1[h] = noisy(h) rho / N` and
    `L[h] = mu . noisy(h^-1)`.  96 x 96 at d=2.
    """
    n_el, n = len(group), group.dim ** 2
    rows = compose_rows(group.table[:, None], group.table[group.inverse_table][None])  # h k^-1
    blocks = noisy_set.mats[group.indices(rows.reshape(-1, n)).reshape(n_el, n_el)] / n_el
    return blocks.transpose(0, 2, 1, 3).reshape(n_el * n, n_el * n)


def rb_mean_expansion(
    group: CliffordGroup, noisy_set: NoisyGateSet, rho: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues `mu_i` of M and weights `c_i` with mean_m = sum_i c_i mu_i^(m-1), no fit.

    From one eigendecomposition M = V diag(mu_i) V^-1: c = (L V) * (V^-1 a_1).
    """
    n_el = len(group)
    noisy = noisy_set.mats
    first = (noisy @ rho / n_el).reshape(-1)  # a_1
    closing = (mu @ noisy[group.inverse_table]).reshape(-1)  # L
    values, vectors = np.linalg.eig(rb_convolution_operator(group, noisy_set))
    return values, (closing @ vectors) * np.linalg.solve(vectors, first)


def traceless_fidelity(e: SuperOp, g: SuperOp) -> float:
    """Fidelity of e to g restricted to the traceless hyperplane."""
    if e.dim != g.dim:
        raise ValueError("dimension mismatch")
    n = e.dim ** 2 - 1
    return float(np.sum(g.mat[:, 1:] * e.mat[:, 1:])) / n


def avg_gate_fidelity(e: SuperOp, g: SuperOp) -> float:
    """Average fidelity of channel e to target g, in [0, 1]."""
    d = e.dim
    return 1.0 / d + (d - 1.0) / d * traceless_fidelity(e, g)


def infidelity(e: SuperOp, g: SuperOp | None = None) -> float:
    """1 - average fidelity; target defaults to the identity channel."""
    if g is None:
        g = SuperOp(e.dim, np.eye(e.dim ** 2))
    return 1.0 - avg_gate_fidelity(e, g)


def choi_matrix(op: SuperOp) -> np.ndarray:
    """Choi form (1/d) sum_jk M_jk P_j (x) P_k^T; positive iff the map is CP."""
    paulis = pauli_basis(op.dim)
    d = op.dim
    n = d ** 2
    choi = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if op.mat[j, k] != 0.0:
                choi += op.mat[j, k] * np.kron(paulis[j], paulis[k].T)
    return choi / d


def assert_completely_positive(op: SuperOp, tol: float = 1e-10) -> None:
    evals = np.linalg.eigvalsh(choi_matrix(op))
    if evals.min() < -tol:
        raise ValueError(f"channel is not completely positive (min Choi eigenvalue {evals.min():.3e})")


@dataclass(frozen=True)
class MonteCarloCurve:
    """Sampled gate-set circuit fidelity with per-depth standard errors."""

    basis: np.ndarray
    depths: np.ndarray
    fidelity: np.ndarray
    stderr: np.ndarray
    samples: int
    seed: int


def fidelity_curve_mc(
    group: CliffordGroup,
    noisy_set: NoisyGateSet,
    basis_u: np.ndarray,
    depths,
    samples: int,
    seed: int,
) -> MonteCarloCurve:
    """Monte-Carlo estimate of the fidelity curve from random gate sequences."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    depths = np.asarray(list(depths), dtype=int)
    basis_u = np.asarray(basis_u, dtype=complex)
    us = unitary_to_superop(basis_u).mat
    noisy_mats = noisy_set.mats
    dim = group.dim
    n = dim ** 2 - 1
    eye = np.eye(dim ** 2)

    means = np.empty(depths.size)
    errs = np.empty(depths.size)
    for i, m in enumerate(depths):
        rng = np.random.default_rng([seed, int(m)])
        idx = rng.integers(0, len(group), size=(samples, int(m)))
        target = us @ compose_sequences(ideal_mats(group), idx, eye) @ us.T
        noisy = compose_sequences(noisy_mats, idx, eye)
        f_tr = np.array([np.sum(t[:, 1:] * g[:, 1:]) for t, g in zip(target, noisy)]) / n
        vals = 1.0 / dim + (dim - 1.0) / dim * f_tr
        means[i] = vals.mean()
        errs[i] = vals.std(ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
    return MonteCarloCurve(
        basis=basis_u, depths=depths, fidelity=means, stderr=errs,
        samples=samples, seed=seed,
    )


@dataclass(frozen=True)
class DecayLawReport:
    """How well f_tr at a corrected basis follows the plain p^m decay."""

    p: float
    depths: np.ndarray
    max_residual: float  # max |f_tr(m) - p^m|
    envelope: float  # envelope_const * (1 - p)^2
    passed: bool
    match_residual: float | None  # fixed-error fidelity match, when channels given
    multiplicativity_residual: float


def verify_decay_law(
    group: CliffordGroup,
    noisy_set: NoisyGateSet,
    basis_u: np.ndarray,
    depths,
    envelope_const: float = 10.0,
    floor: float = 1e-12,
    spectrum: TwirlSpectrum | None = None,
    left_error: SuperOp | None = None,
    right_error: SuperOp | None = None,
) -> DecayLawReport:
    """Check the corrected-basis decay law against its second-order envelope.

    The floor keeps the check meaningful for exactly solvable models where
    1 - p vanishes and the envelope falls below float resolution.  When the
    model is a fixed left/right sandwich and those channels are supplied, also
    compares the fidelity of their product to the depth-1 gate-set circuit
    fidelity at the corrected basis.
    """
    if spectrum is None:
        spectrum = dominant_spectrum(build_twirl(group, noisy_set))
    basis_u = np.asarray(basis_u, dtype=complex)
    curve = fidelity_curve_exact(spectrum, basis_u, depths)
    p = spectrum.p
    residual = np.max(
        np.abs(curve.traceless_fidelity - p ** curve.depths.astype(float))
    )
    envelope = max(envelope_const * (1.0 - p) ** 2, floor)

    match_residual = None
    if left_error is not None and right_error is not None:
        lhs = avg_gate_fidelity(right_error @ left_error, SuperOp(group.dim, np.eye(group.dim ** 2)))
        rhs = fidelity_curve_exact(spectrum, basis_u, [1]).fidelity[0]
        match_residual = abs(lhs - rhs)

    # multiplicativity of projector overlaps once the right error is decohered
    right_blk, left_blk = order_m_error_blocks(spectrum.twirl, 4)
    us = unitary_to_superop(basis_u)
    u_blk = us.mat[1:, 1:]
    n = group.dim ** 2 - 1
    d_blk = right_blk @ u_blk
    l_blk = u_blk.T @ left_blk
    mult_residual = abs(
        np.trace(d_blk @ l_blk) / n - (np.trace(d_blk) / n) * (np.trace(l_blk) / n)
    )

    return DecayLawReport(
        p=p,
        depths=curve.depths,
        max_residual=float(residual),
        envelope=float(envelope),
        passed=bool(residual <= envelope),
        match_residual=match_residual,
        multiplicativity_residual=float(mult_residual),
    )
