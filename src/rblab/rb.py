"""Motion-reversal benchmarking: sequence sampling, survival, and decay fitting.

Sequences are sampled uniformly from the group, inverted through the ideal
composition (a signed-slot table gather per step, then implemented with the
noisy counterpart), and the survival probability <effect | noisy circuit | state>
is recorded exactly; the only randomness is the sequence draw.  Sequence k at
depth m, each depth below 2^32, holds exactly the indices
`np.random.default_rng([seed, m, k]).integers(0, N, size=m)`, so results do not
depend on execution order or on the other depths of a run.  Those streams are
computed by numpy's seeding, PCG64 and bounded-draw algorithms on uint64 arrays:
every generator of a run is seeded in one pass, then each depth draws its
indices at once.  The tests compare them with numpy itself, so a numpy release
that changes the stream fails the suite rather than silently changing the
survivals.
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_M32 = np.uint64(0xFFFFFFFF)


def _uint32_words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, low word first."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: each call mixes one uint32 array with the next constant."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> 16)


def _seed_states(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, uint64) per row; entropy is uint32 columns."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [words[i] | (words[i + 1] << 32) for i in range(0, 8, 2)]


def _mul128(a, b):
    """a * b mod 2^128, each a (hi, lo) pair of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> 32, al & _M32, bl >> 32, bl & _M32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + ah * bl + al * bh
    return hi, (mid << 32) | (p00 & _M32)


def _add128(a, b):
    """a + b mod 2^128, each a (hi, lo) pair of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    lo = al + bl
    return ah + bh + (lo < al), lo


def _limbs(values: list[int]):
    """Python ints below 2^128 as a (hi, lo) pair of uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64),
    )


def _step(state, inc):
    """One PCG64 step: state * multiplier + inc."""
    return _add128(_mul128(state, _limbs([_PCG_MULT])), inc)


def _pcg_words(state, inc, count: int) -> np.ndarray:
    """32-bit words of the first `count` PCG64 outputs of every row, low half first.

    Output t is XSL-RR of the state t steps after `state`, which is
    M^t state + (M^(t-1) + ... + M + 1) inc for the multiplier M, so all
    outputs come from one pass over the rows.
    """
    mults, sums, a, c = [], [], 1, 0
    for _ in range(count):
        a, c = a * _PCG_MULT % 2**128, (c * _PCG_MULT + 1) % 2**128
        mults.append(a)
        sums.append(c)
    (sh, sl), (ih, il) = state, inc
    hi, lo = _add128(
        _mul128((sh[:, None], sl[:, None]), _limbs(mults)),
        _mul128((ih[:, None], il[:, None]), _limbs(sums)),
    )
    rot = hi >> 58
    out = hi ^ lo
    out = (out >> rot) | (out << ((64 - rot) & 63))
    return np.stack([out & _M32, out >> 32], axis=-1).reshape(len(out), -1)


def _bounded_draws(state, inc, m: int, n: int) -> np.ndarray:
    """`integers(0, n, size=m)` of the seeded PCG64 generator of every row.

    numpy's buffered 32-bit draws take the low half of each output first;
    Lemire's method maps a word w to w * n >> 32 and rejects it when the low
    32 bits of w * n fall below (2^32 - n) % n.  Each row keeps its first m
    accepted words; while a row is short, all rows draw again with more words.
    """
    if m == 0:
        return np.empty((state.shape[1], 0), dtype=np.int64)
    threshold = (2**32 - n) % n
    count, short = 0, m
    while short > 0:
        count += -(-short // 2)
        scaled = _pcg_words(state, inc, count) * np.uint64(n)
        accepted = (scaled & _M32) >= threshold
        short = m - int(accepted.sum(axis=1).min())
    if accepted[:, :m].all():  # no word rejected: each row keeps its first m
        return (scaled[:, :m] >> 32).astype(np.int64)
    first = np.argsort(~accepted, axis=1, kind="stable")[:, :m]
    return (np.take_along_axis(scaled, first, axis=1) >> 32).astype(np.int64)


def _pcg_seeds(seed: int, depths: list[int], sequences: int):
    """PCG64 (state, inc) of `default_rng([seed, m, k])` for each m in depths and k < sequences.

    One pass over every row, depth-major: SeedSequence mixes the uint32 words
    of seed, then m and k as one word each (every depth is below 2^32), and
    PCG64 is seeded from its four uint64 words (state 0, inc = initseq<<1 | 1,
    step, which from 0 gives inc, add initstate, step).
    """
    entropy = [np.full(len(depths) * sequences, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.repeat(np.array(depths, dtype=np.uint32), sequences))
    entropy.append(np.tile(np.arange(sequences, dtype=np.uint32), len(depths)))
    s0, s1, s2, s3 = _seed_states(entropy)
    inc = ((s2 << 1) | (s3 >> 63), (s3 << 1) | 1)
    return np.array(_step(_add128(inc, (s0, s1)), inc)), np.array(inc)


def _sequence_indices(seed: int, depths: list[int], sequences: int, n: int) -> list[np.ndarray]:
    """Entry i, row k is `np.random.default_rng([seed, depths[i], k]).integers(0, n, size=depths[i])`.

    Every depth is below 2^32 (`RBConfig` checks it).  All generators are
    seeded at once by `_pcg_seeds`; the draws then run depth by depth.
    """
    if not 2 <= n < 2**32:
        raise ValueError(f"only 2 <= n < 2^32 draws are reproduced, got n={n}")
    state, inc = _pcg_seeds(seed, depths, sequences)
    draws = []
    for i, m in enumerate(depths):
        rows = slice(i * sequences, (i + 1) * sequences)
        draws.append(_bounded_draws(state[:, rows], inc[:, rows], m, n))
    return draws


def run_rb(group: CliffordGroup, noisy_set: NoisyGateSet, config: RBConfig) -> SurvivalTable:
    """Sample motion-reversal circuits and record exact survival probabilities.

    Sequence k at depth m is exactly
    `np.random.default_rng([seed, m, k]).integers(0, N, size=m)`; every
    sequence of the run is drawn up front by `_sequence_indices`.  All
    sequences of one depth are then composed together, one batched matmul per
    step; their ideal products come from `CliffordGroup.products`, one
    table gather per step; and the survivals are one batched dot with the
    effect.  `RBConfig` keeps depths and `sequences` in [1, 2^32), seed >= 0;
    a run of more than MAX_APPLICATIONS gate applications raises ConfigError.
    """
    if len(noisy_set) != len(group):
        raise ValueError("noisy set is not index-aligned with the group")
    work = config.sequences * sum(config.depths)
    if work > MAX_APPLICATIONS:
        raise ConfigError(f"sequences x sum(depths): expected at most {MAX_APPLICATIONS} gate applications, got {work}")
    rho, mu = config.resolve(group.dim)
    noisy_mats = noisy_set.mats

    draws = _sequence_indices(config.seed, config.depths, config.sequences, len(group))
    table = np.empty((config.sequences, len(config.depths)))
    for di, idx in enumerate(draws):
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
