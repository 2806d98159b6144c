"""Motion-reversal benchmarking: sequence sampling, survival, and decay fitting.

Sequences are sampled uniformly from the group, inverted through the ideal
composition (exact lookup, then implemented with the noisy counterpart), and the
survival probability <effect | noisy circuit | state> is recorded exactly; the
only randomness is the sequence draw.  Each (depth, sequence) pair derives its
own generator from the base seed, so results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import SuperOp
from .cliffords import CliffordGroup, compose_rows, compose_sequences
from .noise import NoisyGateSet


def default_state(dim: int) -> np.ndarray:
    """Pauli coefficients of |0...0><0...0|."""
    one = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    if dim == 2:
        return one
    if dim == 4:
        return np.kron(one, one)
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class RBConfig:
    """Depth grid, sequences per depth, and optional SPAM noise around |0...0>."""

    depths: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    sequences: int = 200
    seed: int = 0
    prep_noise: SuperOp | None = None
    meas_noise: SuperOp | None = None

    def resolve(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Pauli vectors of the prepared state and the measured effect."""
        rho = mu = default_state(dim)
        if self.prep_noise is not None:
            rho = self.prep_noise.mat @ rho
        if self.meas_noise is not None:
            mu = self.meas_noise.mat.T @ mu
        return rho, mu


@dataclass(frozen=True)
class SurvivalTable:
    """Survival probabilities, one row per sequence, one column per depth."""

    depths: np.ndarray
    survivals: np.ndarray  # shape (sequences, len(depths))
    seed: int

    @property
    def means(self) -> np.ndarray:
        return self.survivals.mean(axis=0)


def run_rb(group: CliffordGroup, noisy_set: NoisyGateSet, config: RBConfig) -> SurvivalTable:
    """Sample motion-reversal circuits and record exact survival probabilities.

    All sequences of one depth are composed together, one batched matmul per
    step; each sequence still draws from its own (seed, depth, index) generator.
    """
    if len(noisy_set) != len(group):
        raise ValueError("noisy set is not index-aligned with the group")
    dim = group.dim
    rho, mu = config.resolve(dim)
    depths = np.asarray(config.depths, dtype=int)
    if depths.size < 1 or depths.min() < 1:
        raise ValueError("depths must be positive")
    if config.sequences < 1:
        raise ValueError("sequences must be positive")
    noisy_mats = noisy_set.mats
    n_elems = len(group)

    table = np.empty((config.sequences, depths.size))
    for di, m in enumerate(depths.tolist()):
        idx = np.array(
            [
                np.random.default_rng([config.seed, m, k]).integers(0, n_elems, size=m)
                for k in range(config.sequences)
            ],
            dtype=np.int64,
        ).reshape(config.sequences, m)
        vecs = compose_sequences(noisy_mats, idx, rho[:, None])
        ideal = group.table[idx[:, 0]]
        for j in range(1, m):
            ideal = compose_rows(group.table[idx[:, j]], ideal)
        inv = group.inverse_table[group.indices(ideal)]
        vecs = noisy_mats[inv] @ vecs
        # one 1-D dot per sequence: a batched product rounds differently
        table[:, di] = [mu @ v for v in vecs[:, :, 0]]
    return SurvivalTable(depths=depths, survivals=table, seed=config.seed)


@dataclass(frozen=True)
class DecayFit:
    """Estimates for survival = A p^m + B with a bootstrap interval on p."""

    a: float
    b: float
    p: float
    p_interval: tuple[float, float]
    mean_survival: np.ndarray
    residuals: np.ndarray
    flagged: bool = False
    message: str = ""
    bootstrap_samples: int = 0
    bootstrap_p: np.ndarray = field(default=None, repr=False)


_P_BOUNDS = (0.0, 1.02)
_GRID_POINTS = 1025  # coarse p grid over _P_BOUNDS, spacing about 1e-3
_P_TOL = 1e-12  # width of the final bracket on p
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


def _fit_profile(depths: np.ndarray, y: np.ndarray):
    """Minimise the profile RSS(p) over _P_BOUNDS for every row of y at once.

    A coarse grid picks each row's bracket; golden-section search shrinks it
    to _P_TOL.  Returns A, B, p and a mask of rows whose minimum sits on a
    bound, that is whose least-squares p lies outside _P_BOUNDS.
    """
    lo_p, hi_p = _P_BOUNDS
    grid = np.linspace(lo_p, hi_p, _GRID_POINTS)
    xc = _powers_minus_one(grid, depths)
    xc -= xc.mean(axis=-1, keepdims=True)
    yc = y - y.mean(axis=-1, keepdims=True)
    sxx = (xc * xc).sum(axis=-1)
    explained = yc @ xc.T  # the largest array, so the rest works in place
    np.square(explained, out=explained)
    np.divide(explained, sxx, out=explained, where=sxx > 0)
    explained[:, sxx <= 0] = 0.0
    k = explained.argmax(axis=-1)  # lowest RSS = Syy - Sxy^2 / Sxx

    lo = grid[np.maximum(k - 1, 0)]
    hi = grid[np.minimum(k + 1, grid.size - 1)]
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = _rss(depths, y, c), _rss(depths, y, d)
    steps = int(np.ceil(np.log(_P_TOL / (2 * (grid[1] - grid[0]))) / np.log(_INV_PHI)))
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
    p = np.where(fc < fd, c, d)
    at_bound = (p < lo_p + _BOUND_TOL) | (p > hi_p - _BOUND_TOL)
    a, b, _ = _profile(depths, y, p)
    flat = np.ptp(y, axis=-1) <= _FLAT_TOL
    return (
        np.where(flat, 0.0, a),
        np.where(flat, y.mean(axis=-1), b),
        np.where(flat, 1.0, p),
        at_bound & ~flat,
    )


def _resample_means(survivals: np.ndarray, bootstrap: int, rng: np.random.Generator) -> np.ndarray:
    """Per-depth means of `bootstrap` resamples of the sequences, drawn within each depth."""
    n_seq, n_depths = survivals.shape
    pick = rng.integers(0, n_seq, size=(bootstrap, n_depths, n_seq))
    means = np.empty((bootstrap, n_depths))
    for di, column in enumerate(survivals.T):
        means[:, di] = column[pick[:, di]].mean(axis=-1)
    return means


def fit_decay(
    table: SurvivalTable,
    dim: int = 2,
    bootstrap: int = 200,
) -> DecayFit:
    """Profile least squares on per-depth means plus a percentile bootstrap.

    For each p in [0, 1.02] the best A and B are closed-form, so the fit is
    a 1-D minimisation of RSS(p), done for the point estimate and every
    bootstrap resample (sequences resampled within each depth) in one batch.
    Means flat to 1e-12 identify no decay and give p = 1, A = 0.  A minimum
    on a bound of [0, 1.02] flags the result instead of raising.  `dim` is
    kept for callers; the fit does not use it.
    """
    depths = table.depths
    if np.unique(depths).size < 3:
        raise ValueError("need at least 3 distinct depths to fit three parameters")
    means = table.means
    rng = np.random.default_rng(table.seed + 0x5EED)
    resampled = _resample_means(table.survivals, bootstrap, rng)
    a, b, p, at_bound = _fit_profile(depths, np.vstack([means, resampled]))
    a, b, p, boot = float(a[0]), float(b[0]), float(p[0]), p[1:]

    flagged = bool(at_bound[0])
    message = f"least-squares p lies outside [0, 1.02]; stopped at p={p}" if flagged else ""
    if bootstrap >= 10:
        lo, hi = np.percentile(boot, [2.5, 97.5])
    else:
        lo = hi = np.nan
        flagged = True
        message = (message + "; " if message else "") + f"{bootstrap} bootstrap resamples are too few"
    return DecayFit(
        a=a,
        b=b,
        p=p,
        p_interval=(float(lo), float(hi)),
        mean_survival=means,
        residuals=means - (a * p ** depths.astype(float) + b),
        flagged=flagged,
        message=message,
        bootstrap_samples=int(boot.size),
        bootstrap_p=boot,
    )
