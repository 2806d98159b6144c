"""Motion-reversal benchmarking: sequence sampling, survival, and decay fitting.

Sequences are sampled uniformly from the group, inverted through the ideal
composition (a signed-slot table gather per step, then implemented with the
noisy counterpart), and the survival probability <effect | noisy circuit | state>
is recorded exactly; the only randomness is the sequence draw.  The sequences
at depth m are the rows of
`np.random.default_rng([seed, m]).integers(0, N, size=(sequences, m))`, so a
depth's column does not depend on execution order or on the other depths of
a run, and a row does not depend on how many sequences follow it.  Each
depth is below 2^32, one uint32 word and the last word of the seed entropy,
which keeps distinct (seed, m) pairs on distinct streams.  numpy may change
this stream between releases (NEP 19); the tests pin literal draws, so such
a change fails the suite rather than silently changing the survivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import SuperOp
from .cliffords import CliffordGroup, compose_sequences
from .noise import ConfigError, NoisyGateSet, depth_grid, integer


def default_state(dim: int) -> np.ndarray:
    """Pauli coefficients of |0...0><0...0|."""
    one = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    if dim == 2:
        return one
    if dim == 4:
        return np.kron(one, one)
    raise ValueError(f"unsupported dimension {dim}")


# Gate applications per run, sequences x sum(depths): each took about 190 ns and 25 B
# of peak RSS at d=2 and 580 ns at d=4 (one BLAS thread, shared 2-vCPU x86-64).
MAX_APPLICATIONS = 10**7


@dataclass(frozen=True)
class RBConfig:
    """Depth grid, sequences per depth, and optional SPAM noise around |0...0>.

    Every depth and `sequences` must be an integer in [1, 2^32), and `seed`
    one >= 0, or ConfigError is raised; `depths` is kept as a tuple of ints.
    """

    depths: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
    sequences: int = 200
    seed: int = 0
    prep_noise: SuperOp | None = None
    meas_noise: SuperOp | None = None

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(depth_grid(self.depths, 1).tolist()))
        object.__setattr__(self, "sequences", integer("sequences", self.sequences, 1, bounded=True))
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))

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

    Depth m's sequences are the rows of
    `np.random.default_rng([seed, m]).integers(0, N, size=(sequences, m))`,
    drawn one depth at a time.  All sequences of one depth are composed
    together, one batched matmul per step; their ideal products come from
    `CliffordGroup.products`, one table gather per step; and the survivals
    are one batched dot with the effect.  `RBConfig` keeps depths and
    `sequences` in [1, 2^32), seed >= 0; a run of more than MAX_APPLICATIONS
    gate applications raises ConfigError.
    """
    if len(noisy_set) != len(group):
        raise ValueError("noisy set is not index-aligned with the group")
    work = config.sequences * sum(config.depths)
    if work > MAX_APPLICATIONS:
        raise ConfigError(f"sequences x sum(depths): expected at most {MAX_APPLICATIONS} gate applications, got {work}")
    rho, mu = config.resolve(group.dim)
    noisy_mats = noisy_set.mats

    table = np.empty((config.sequences, len(config.depths)))
    for di, m in enumerate(config.depths):
        idx = np.random.default_rng([config.seed, m]).integers(0, len(group), size=(config.sequences, m))
        vecs = compose_sequences(noisy_mats, idx, rho[:, None])
        vecs = noisy_mats.take(group.inverse_table.take(group.products(idx)), axis=0) @ vecs
        # mu @ (k, n, 1) rounds like one 1-D dot per sequence; (k, n) @ mu does not
        table[:, di] = (mu @ vecs)[:, 0]
    return SurvivalTable(depths=np.array(config.depths), survivals=table, seed=config.seed)


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


def check_fit_depths(depths) -> None:
    """A p^m + B has three parameters, so the fit needs at least 3 distinct depths."""
    if len(set(depths)) < 3:
        raise ConfigError(f"depths: expected at least 3 distinct depths to fit A p^m + B, got {list(depths)!r}")


_P_BOUNDS = (0.0, 1.02)
_GRID_POINTS = 1025  # coarse p grid over _P_BOUNDS, spacing about 1e-3
_STEPS = 38  # bisections of a 2e-3 grid bracket, down to about 7e-15
_FLAT_TOL = 1e-12  # means within this range of each other carry no decay
# A minimum this close to a bound sits on it.  Near p = 0 the profile is flat
# to rounding (only the shortest depth still sees p^m), so the search stops
# short of 0 instead of on it.
_BOUND_TOL = 1e-6


def _fit_profile(depths: np.ndarray, y: np.ndarray):
    """Minimise the profile RSS(p) over _P_BOUNDS for every row of y at once.

    For a fixed p the model y = A p^m + B is linear in (A, B), so both follow
    in closed form; at p = 0 or 1 (all p^m equal) A is not identifiable and
    is set to 0.  A coarse grid picks each row's bracket, and _STEPS
    bisections on the sign of dRSS/dp shrink it to about 7e-15.  The sign
    needs no comparison of RSS values, which are resolved only to rounding,
    so p is pinned by the data.  Returns A, B, p and a mask of rows whose
    minimum sits on a bound, that is whose least-squares p lies outside
    _P_BOUNDS.
    """
    lo_p, hi_p = _P_BOUNDS
    depths = depths.astype(float)  # cast once, with the exponents of dx, not in every step
    count, zero, lower = depths.size, np.flatnonzero(depths == 0), depths - 1.0
    yc = y - y.mean(axis=-1, keepdims=True)

    def centred(p: np.ndarray):
        """p^m - 1 for each p (rows) and depth m, centred over the depths, and its mean."""
        x1 = np.expm1(np.log(p)[:, None] * depths)  # accurate near p = 1
        if zero.size:
            x1[:, zero] = 0.0  # 0**0 == 1
        mean = x1.sum(axis=-1, keepdims=True) / count  # rounds like np.mean
        return x1 - mean, mean[:, 0]

    def slope(p: np.ndarray):
        """Least-squares A at each row's p, with the centred p^m - 1 and its mean."""
        xc, mean = centred(p)
        sxx = (xc * xc).sum(axis=-1)
        sxy = (xc * yc).sum(axis=-1)
        return np.divide(sxy, sxx, out=np.zeros_like(sxy), where=sxx > 0), xc, mean

    def falls(p: np.ndarray) -> np.ndarray:
        """Whether RSS(p) falls at each row's p, from the sign of dRSS/dp.

        By the envelope theorem dRSS/dp = -2 A sum(res dx), with dx = m p^(m-1).
        """
        a, xc, _ = slope(p)
        res = yc - a[:, None] * xc
        dx = depths * p[:, None] ** lower
        # The residuals sum to zero only up to the rounding of the mean of y
        # (about 1e-16), and that offset times sum(dx) would tip the sign near
        # the minimum: centring dx takes it out.
        return a * (res * (dx - dx.sum(axis=-1, keepdims=True) / count)).sum(axis=-1) > 0

    grid = np.linspace(lo_p, hi_p, _GRID_POINTS)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc, _ = centred(grid)
        sxx = (xc * xc).sum(axis=-1)
        explained = yc @ xc.T  # the largest array, so the rest works in place
        np.square(explained, out=explained)
        np.divide(explained, sxx, out=explained, where=sxx > 0)
        explained[:, sxx <= 0] = 0.0
        k = explained.argmax(axis=-1)  # lowest RSS = Syy - Sxy^2 / Sxx

        lo = grid[np.maximum(k - 1, 0)]
        hi = grid[np.minimum(k + 1, grid.size - 1)]
        for _ in range(_STEPS):
            mid = 0.5 * (lo + hi)
            right = falls(mid)  # the minimum lies in [mid, hi]
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        p = 0.5 * (lo + hi)
        a, _, mean = slope(p)
    b = y.mean(axis=-1) - a * (1.0 + mean)
    at_bound = (p < lo_p + _BOUND_TOL) | (p > hi_p - _BOUND_TOL)
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
        means[:, di] = column.take(pick[:, di]).mean(axis=-1)
    return means


def fit_decay(
    table: SurvivalTable,
    dim: int = 2,
    bootstrap: int = 200,
) -> DecayFit:
    """Profile least squares on per-depth means plus a percentile bootstrap.

    For each p in [0, 1.02] the best A and B are closed-form, so the fit is
    a 1-D minimisation of RSS(p), done for the point estimate and every
    bootstrap resample (sequences resampled within each depth) in one batch:
    a 1025-point grid brackets each row's minimum, and bisection on the sign
    of dRSS/dp narrows it to about 7e-15; A and B are solved once, at the
    final p.
    Means flat to 1e-12 identify no decay and give p = 1, A = 0.  A minimum
    on a bound of [0, 1.02] flags the result instead of raising.  `dim` is
    kept for callers; the fit does not use it.
    """
    depths = table.depths
    check_fit_depths(depths.tolist())
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
