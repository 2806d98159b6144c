import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from rblab.channels import traceless_projector, unitary_to_superop
from rblab.cliffords import generate_clifford_group
from rblab.noise import ConfigError, NoiseModel, NoisyGateSet, build_noisy_gateset, depolarizing
from rblab.rb import (
    RBConfig,
    SurvivalTable,
    _fit_profile,
    _pcg_seeds,
    _resample_means,
    _sequence_indices,
    default_state,
    fit_decay,
    run_rb,
)
from rblab.twirl import build_twirl, dominant_spectrum
from reference import (
    enumerated_products,
    exact_rb_means,
    exp_i_pauli_sum,
    find,
    golden_fit_profile,
    ideal_mats,
    rb_convolution_operator,
    rb_mean_expansion,
    reference_fit_profile,
    reference_resample_means,
    sequence_draws,
)


class TestSpamVectors:
    def test_ground_state_overlap_is_one(self):
        for dim in (2, 4):
            rho = default_state(dim)
            mu = default_state(dim)
            assert mu @ rho == pytest.approx(1.0, abs=1e-14)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension 3"):
            default_state(3)


class TestRunRB:
    def test_ideal_gates_give_unit_survival(self, group24):
        noisy = build_noisy_gateset(NoiseModel("ideal"), group24)
        table = run_rb(group24, noisy, RBConfig(depths=(1, 3, 9), sequences=20, seed=1))
        assert np.max(np.abs(table.survivals - 1.0)) < 1e-12

    def test_relabeling_survival_is_one(self, group24):
        noisy = build_noisy_gateset(NoiseModel.conjugation({"channel": "relabeling"}), group24)
        table = run_rb(
            group24, noisy, RBConfig(depths=(1, 2, 4, 8, 16, 32, 64), sequences=30, seed=5)
        )
        assert np.max(np.abs(table.survivals - 1.0)) < 1e-10

    def test_survival_in_unit_interval_for_cp_noise(self, group24, ztilt_noisy):
        table = run_rb(
            group24, ztilt_noisy, RBConfig(depths=(1, 4, 16, 64), sequences=50, seed=9)
        )
        assert table.survivals.min() >= -1e-10
        assert table.survivals.max() <= 1.0 + 1e-10

    def test_seeded_reproducibility_and_order_independence(self, group24, ztilt_noisy):
        cfg_full = RBConfig(depths=(2, 8), sequences=10, seed=21)
        cfg_sub = RBConfig(depths=(8,), sequences=10, seed=21)
        full = run_rb(group24, ztilt_noisy, cfg_full)
        again = run_rb(group24, ztilt_noisy, cfg_full)
        sub = run_rb(group24, ztilt_noisy, cfg_sub)
        assert np.array_equal(full.survivals, again.survivals)
        # per-(depth, sequence) seeding: the depth-8 column is schedule-independent
        assert np.array_equal(full.survivals[:, 1], sub.survivals[:, 0])

    def test_gate_independent_left_noise_exact_average_at_depth_one(self, group24):
        # exact enumeration over all 24 single-gate circuits with inversion
        err = depolarizing(0.97)
        noisy = build_noisy_gateset(NoiseModel.left(err), group24)
        rho = default_state(2)
        mu = default_state(2)
        mean = enumerated_mean(group24, noisy, 1, rho, mu)
        pi = traceless_projector(2)
        p = np.trace(err.mat[1:, 1:]) / 3
        a = mu @ err.mat @ (pi @ rho)
        e00 = np.zeros((4, 4))
        e00[0, 0] = 1.0
        b = mu @ err.mat @ (e00 @ rho)
        assert mean == pytest.approx(a * p + b, abs=1e-10)

    def test_mismatched_sets_rejected(self, group24, ztilt_noisy):
        with pytest.raises(ValueError, match="index-aligned"):
            run_rb(group24, NoisyGateSet(2, ztilt_noisy.mats[:-1]), RBConfig())

    def test_work_cap_counts_sequences_times_summed_depths(self, group24, ztilt_noisy, monkeypatch):
        monkeypatch.setattr("rblab.rb.MAX_APPLICATIONS", 60)
        table = run_rb(group24, ztilt_noisy, RBConfig(depths=(1, 2, 3), sequences=10))  # 60 applications
        assert table.survivals.shape == (10, 3)
        message = r"sequences x sum\(depths\): expected at most 60 gate applications, got 70"
        with pytest.raises(ConfigError, match=message):
            run_rb(group24, ztilt_noisy, RBConfig(depths=(1, 2, 4), sequences=10))

    def test_no_sequences_rejected(self, group24, ztilt_noisy):
        with pytest.raises(ValueError, match="sequences: expected an integer >= 1, got 0"):
            run_rb(group24, ztilt_noisy, RBConfig(sequences=0))

    @pytest.mark.parametrize(
        "fields, message",
        [
            # each was run before: depth 1.7 as depth 1, 2^64 as an OverflowError, 2.5 as a TypeError
            ({"depths": (1.7, 2, 3)}, "depths: expected a non-empty list of integers >= 1, got"),
            ({"depths": (1, True, 3)}, "depths: expected a non-empty list of integers >= 1, got"),
            ({"depths": ()}, "depths: expected a non-empty list of integers >= 1, got"),
            ({"depths": (1, 2, 2 ** 64)}, "depths: expected every depth below 2\\^32, got 18446744073709551616"),
            ({"sequences": 2.5}, "sequences: expected an integer >= 1, got 2.5"),
            ({"sequences": 2 ** 32}, "sequences: expected an integer below 2\\^32, got 4294967296"),
            ({"seed": 1.0}, "seed: expected an integer >= 0, got 1.0"),
        ],
    )
    def test_bad_request_raises_config_error(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            RBConfig(**fields)

    def test_request_kept_as_plain_ints(self):
        config = RBConfig(depths=np.array([4, 1]), sequences=np.int64(2 ** 32 - 1), seed=np.uint64(3))
        assert config.depths == (4, 1) and config.sequences == 2 ** 32 - 1 and config.seed == 3
        assert {type(v) for v in (*config.depths, config.sequences, config.seed)} == {int}


class TestFitDecay:
    def test_exact_synthetic_recovery(self):
        depths = np.array([1, 2, 4, 8, 16, 32, 64, 128])
        curve = 0.5 * 0.99 ** depths + 0.5
        table = SurvivalTable(depths=depths, survivals=np.tile(curve, (5, 1)), seed=1)
        fit = fit_decay(table, bootstrap=25)
        assert abs(fit.a - 0.5) < 1e-8
        assert abs(fit.b - 0.5) < 1e-8
        assert abs(fit.p - 0.99) < 1e-8
        assert not fit.flagged

    def test_noisy_synthetic_within_three_sigma(self):
        rng = np.random.default_rng(77)
        depths = np.array([1, 2, 4, 8, 16, 32, 64, 128])
        truth = 0.5 * 0.97 ** depths + 0.5
        survivals = truth + rng.normal(scale=0.005, size=(200, depths.size))
        table = SurvivalTable(depths=depths, survivals=survivals, seed=77)
        fit = fit_decay(table)
        sigma = (fit.p_interval[1] - fit.p_interval[0]) / 4  # 95% interval ~ 4 sigma
        assert abs(fit.p - 0.97) <= 3 * sigma

    def test_relabeling_fit_finds_unit_decay(self, group24):
        noisy = build_noisy_gateset(NoiseModel.conjugation({"channel": "relabeling"}), group24)
        table = run_rb(
            group24, noisy, RBConfig(depths=(1, 2, 4, 8, 16, 32, 64), sequences=30, seed=5)
        )
        fit = fit_decay(table, bootstrap=50)
        assert abs(fit.p - 1.0) < 1e-6

    def test_flags_unphysical_decay(self):
        depths = np.array([1, 2, 4, 8])
        rising = np.tile(0.5 + 0.4 * 1.08 ** depths / 10, (4, 1))
        table = SurvivalTable(depths=depths, survivals=rising, seed=2)
        fit = fit_decay(table, bootstrap=10)
        assert fit.flagged
        assert "outside" in fit.message

    def test_requires_three_depths(self):
        table = SurvivalTable(
            depths=np.array([1, 2]), survivals=np.ones((4, 2)), seed=0
        )
        with pytest.raises(ValueError, match="3 distinct depths"):
            fit_decay(table)

    def test_spectral_p_inside_bootstrap_interval(self, group24, ztilt_noisy, ztilt_spectrum):
        table = run_rb(group24, ztilt_noisy, RBConfig(seed=42))
        fit = fit_decay(table)
        assert fit.p_interval[0] <= ztilt_spectrum.p <= fit.p_interval[1]

    def test_decay_parameter_spam_independent(self, group24, overrot_noisy, overrot_spectrum):
        plain = fit_decay(run_rb(group24, overrot_noisy, RBConfig(seed=4)))
        depol_meas = RBConfig(seed=4, meas_noise=depolarizing(0.9))
        spam = fit_decay(run_rb(group24, overrot_noisy, depol_meas))
        # same decay constant within the joint confidence region
        assert spam.p_interval[0] <= plain.p <= spam.p_interval[1]
        assert overrot_spectrum.p == pytest.approx(spam.p, abs=4 * (spam.p_interval[1] - spam.p_interval[0]))


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_D2 = sorted(path.stem for path in CONFIG_DIR.glob("*_d2.json"))


def shipped_table(group, name, seed=None):
    """The survival table `rblab rb --config configs/<name>.json` fits, at its own seed or `seed`."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    noisy = build_noisy_gateset(NoiseModel.from_config(cfg["model"], 2), group)
    rb_cfg = RBConfig(
        depths=tuple(cfg["depths"]),
        sequences=cfg.get("sequences", 200),
        seed=cfg["seed"] if seed is None else seed,
    )
    return run_rb(group, noisy, rb_cfg)


def curve_fit_reference(depths, means):
    """Three-parameter curve_fit from a log-linear start: an independent route."""
    shifted = means - 0.5
    mask = shifted > 1e-12
    slope, intercept = np.polyfit(depths[mask], np.log(shifted[mask]), 1)
    start = (float(np.exp(intercept)), 0.5, float(np.clip(np.exp(slope), 1e-6, 1.0)))
    popt, _ = curve_fit(
        lambda m, a, b, p: a * p ** m + b, depths.astype(float), means, p0=start, maxfev=10_000
    )
    return popt


def rss(depths, means, a, b, p):
    return float(np.sum((means - (a * p ** depths.astype(float) + b)) ** 2))


def brute_force_min_rss(depths, means, points=100_000):
    """Lowest RSS over a dense p grid, with A and B solved by plain least squares."""
    p = np.linspace(0.0, 1.02, points)
    x = p[:, None] ** depths.astype(float)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = means - means.mean()
    sxx = (xc ** 2).sum(axis=1)
    a = np.where(sxx > 0, xc @ yc / np.where(sxx > 0, sxx, 1.0), 0.0)
    return float(((yc - a[:, None] * xc) ** 2).sum(axis=1).min())


def synthetic_table(p, a, b, noise, seed, depths=(1, 2, 4, 8, 16, 32, 64, 128)):
    rng = np.random.default_rng(seed)
    depths = np.asarray(depths)
    curve = a * p ** depths + b
    survivals = curve + rng.normal(scale=noise, size=(60, depths.size))
    return SurvivalTable(depths=depths, survivals=survivals, seed=seed)


SYNTHETIC = [
    (0.97, 0.5, 0.5, 0.005, 1),
    (0.9, 0.45, 0.52, 0.01, 2),
    (0.995, 0.48, 0.5, 0.002, 3),
    (0.9995, 0.5, 0.49, 0.001, 4),
    (0.99995, 0.5, 0.5, 0.0005, 5),
    (0.6, 0.4, 0.5, 0.002, 6),
    (0.98, 0.3, 0.45, 0.0, 7),
]


class TestFitAgainstIndependentRoutes:
    """The profile fit is checked against curve_fit and a brute-force grid."""

    def check(self, table):
        fit = fit_decay(table, bootstrap=20)
        depths, means = table.depths, table.means
        ours = rss(depths, means, fit.a, fit.b, fit.p)
        a_cf, b_cf, p_cf = curve_fit_reference(depths, means)
        # the floor covers noise-free tables, where both routes sit at rounding level
        floor = 1e-20
        if 0.0 <= p_cf <= 1.02:
            assert ours <= rss(depths, means, a_cf, b_cf, p_cf) * (1 + 1e-9) + floor
        if p_cf < 0.999:
            assert fit.p == pytest.approx(p_cf, abs=1e-6)
        assert brute_force_min_rss(depths, means) >= ours * (1 - 1e-9) - floor
        return fit, p_cf

    @pytest.mark.parametrize("name", [n for n in SHIPPED_D2 if n != "relabeling_d2"])
    def test_shipped_configs(self, group24, name):
        fit, _ = self.check(shipped_table(group24, name))
        assert not fit.flagged
        assert fit.bootstrap_samples == 20

    @pytest.mark.parametrize("p, a, b, noise, seed", SYNTHETIC)
    def test_synthetic_tables(self, p, a, b, noise, seed):
        fit, _ = self.check(synthetic_table(p, a, b, noise, seed))
        if noise == 0.0:
            assert fit.p == pytest.approx(p, abs=1e-9)

    def test_two_basins_picks_the_lower(self):
        # noisy means whose profile RSS has a second, higher basin near p = 0.07
        means = np.array([0.6155, 0.5102, 0.4856, 0.6, 0.5374, 0.4719, 0.4519, 0.4649])
        depths = np.array([1, 2, 4, 8, 16, 32, 64, 128])
        fit = fit_decay(SurvivalTable(depths, means[None, :], seed=0), bootstrap=10)
        ours = rss(depths, means, fit.a, fit.b, fit.p)
        assert brute_force_min_rss(depths, means) >= ours * (1 - 1e-9)
        assert 0.9 < fit.p < 1.0 and not fit.flagged

    def test_bootstrap_matches_per_resample_fits(self, group24):
        # reference: the resampled means drawn one depth at a time, each fitted alone
        table = shipped_table(group24, "overrotation_d2")
        fit = fit_decay(table, bootstrap=12)
        rng = np.random.default_rng(table.seed + 0x5EED)
        n_seq, n_depths = table.survivals.shape
        for p_boot in fit.bootstrap_p:
            resampled = np.empty((1, n_depths))
            for di in range(n_depths):
                resampled[0, di] = table.survivals[rng.integers(0, n_seq, size=n_seq), di].mean()
            alone = fit_decay(SurvivalTable(table.depths, resampled, seed=0), bootstrap=0)
            assert p_boot == pytest.approx(alone.p, abs=1e-9)

    @pytest.mark.parametrize("name", [n for n in SHIPPED_D2 if n != "relabeling_d2"])
    def test_rounding_of_the_means_moves_p_by_rounding(self, group24, name):
        # a golden-section search on RSS values, which are resolved only to
        # rounding, moved p by up to 2.6e-10 under the same perturbations
        table = shipped_table(group24, name, seed=7)
        rng = np.random.default_rng(7)
        y = table.means + rng.uniform(-4e-14, 4e-14, size=(20, table.means.size))
        _, _, p, at_bound = _fit_profile(table.depths, y)
        assert not at_bound.any()
        assert np.ptp(p) <= 1e-11


def sequence_survival(group, noisy_set, idx, rho, mu):
    """Survival of one motion-reversal sequence, one gate at a time."""
    vec = rho
    ideal = np.eye(group.dim ** 2)
    for j in idx:
        vec = noisy_set.mats[j] @ vec
        ideal = ideal_mats(group)[j] @ ideal
    vec = noisy_set.mats[find(group, ideal.T)] @ vec
    return mu @ vec


def enumerated_mean(group, noisy_set, m, rho, mu):
    """Mean survival over all N^m sequences of m gates."""
    ideal, noisy = enumerated_products(group, noisy_set, m)
    closing = noisy_set.mats[find(group, ideal.transpose(0, 2, 1))]
    return float(np.einsum("i,sij,sj->", mu, closing, noisy @ rho)) / len(noisy)


SPAM_CASES = {
    "no_spam": {},
    "spam": {"prep_noise": depolarizing(0.98), "meas_noise": depolarizing(0.97)},
}


class TestExactMeans:
    """The mean survival in closed form, without sampling, on every shipped d=2 config."""

    @pytest.fixture(params=[(n, s) for n in SHIPPED_D2 for s in SPAM_CASES], ids="-".join)
    def case(self, request, group24):
        name, spam = request.param
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        noisy = build_noisy_gateset(NoiseModel.from_config(cfg["model"], 2), group24)
        config = RBConfig(**SPAM_CASES[spam])
        rho, mu = config.resolve(2)
        return noisy, rho, mu, config

    def test_convolution_matches_enumeration(self, group24, case):
        noisy, rho, mu, _ = case
        # all 24^3 = 13824 sequences at m = 3
        exact = exact_rb_means(group24, noisy, [1, 2, 3], rho, mu)
        for m, mean in zip([1, 2, 3], exact):
            assert mean == pytest.approx(enumerated_mean(group24, noisy, m, rho, mu), abs=1e-12)

    def test_fit_of_exact_means_gives_spectral_p(self, group24, case):
        # from m = 10 the non-dominant part of the twirl (|lambda_2|/p <= 0.037) is below 1e-14
        noisy, rho, mu, _ = case
        depths = np.arange(10, 65)
        means = exact_rb_means(group24, noisy, depths, rho, mu)
        _, _, p, at_bound = _fit_profile(depths, means[None])
        assert not at_bound[0]
        assert p[0] == pytest.approx(dominant_spectrum(build_twirl(group24, noisy)).p, abs=1e-10)

    def test_run_rb_means_within_sampling_error(self, group24, case):
        # relabeling_d2 and depolarizing_left_d2 survive exactly, so their spread
        # is rounding (about 4e-15) and only the 1e-12 floor bounds it
        noisy, rho, mu, config = case
        config = replace(config, depths=(1, 2, 8, 32), sequences=200, seed=11)
        table = run_rb(group24, noisy, config)
        stderr = table.survivals.std(axis=0, ddof=1) / np.sqrt(config.sequences)
        exact = exact_rb_means(group24, noisy, config.depths, rho, mu)
        assert np.all(np.abs(table.means - exact) <= 4 * stderr + 1e-12)

    def test_d4_depth_one_mean_matches_run_rb(self, group11520):
        # at m = 1 the mean needs no convolution step: (1/N) sum_h mu . noisy(h^-1) noisy(h) rho
        cfg = json.loads((CONFIG_DIR / "ztilt_d4.json").read_text())
        noisy = build_noisy_gateset(NoiseModel.from_config(cfg["model"], 4), group11520)
        config = RBConfig(depths=(1,), sequences=2000, seed=19)
        rho, mu = config.resolve(4)
        exact = exact_rb_means(group11520, noisy, [1], rho, mu)[0]
        assert exact == pytest.approx(0.9830524, abs=1e-7)
        survivals = run_rb(group11520, noisy, config).survivals[:, 0]
        stderr = survivals.std(ddof=1) / np.sqrt(survivals.size)
        assert abs(survivals.mean() - exact) <= 4 * stderr


def per_element_noise(group, seed):
    """Gate-dependent noise: each element its own small rotation, then its own Pauli contraction."""
    rng = np.random.default_rng(seed)
    mats = [
        ideal
        @ unitary_to_superop(exp_i_pauli_sum(2, rng.normal(scale=0.05, size=3))).mat
        @ np.diag([1.0, *(1.0 - rng.uniform(0.0, 2e-3, size=3))])
        for ideal in ideal_mats(group)
    ]
    return NoisyGateSet(2, np.stack(mats))


class TestConvolutionSpectrum:
    """p_RB = p with no fit and no sampling: the spectrum of the RB convolution operator M.

    `relabeling_d2` has p = 1 to 2e-15, which merges with the trivial
    eigenvalue, so it has its own case.
    """

    @pytest.fixture(params=[n for n in SHIPPED_D2 if n != "relabeling_d2"] + [f"seed{s}" for s in range(6)])
    def noisy(self, request, group24):
        name = request.param
        if name.startswith("seed"):
            return per_element_noise(group24, int(name.removeprefix("seed")))
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        return build_noisy_gateset(NoiseModel.from_config(cfg["model"], 2), group24)

    def test_p_is_a_triple_eigenvalue_and_dominant(self, group24, noisy):
        p = dominant_spectrum(build_twirl(group24, noisy)).p
        values = np.linalg.eigvals(rb_convolution_operator(group24, noisy))
        by_distance = values[np.argsort(np.abs(values - p))]
        assert np.all(np.abs(by_distance[:3] - p) <= 1e-12)
        assert abs(by_distance[3] - p) > 1e-12
        rest = by_distance[3:]
        trivial = np.abs(rest - 1.0) <= 1e-12
        assert trivial.sum() == 1
        assert np.all(np.abs(rest[~trivial]) < abs(p))

    @pytest.mark.parametrize("spam", SPAM_CASES)
    def test_eigen_expansion_is_the_convolution(self, group24, noisy, spam):
        rho, mu = RBConfig(**SPAM_CASES[spam]).resolve(2)
        depths = np.arange(1, 40)
        values, weights = rb_mean_expansion(group24, noisy, rho, mu)
        series = (weights * values ** (depths[:, None] - 1)).sum(axis=1)
        assert np.max(np.abs(series - exact_rb_means(group24, noisy, depths, rho, mu))) <= 1e-12

    def test_relabeling_has_rank_4_and_eigenvalue_1_four_times(self, group24):
        noisy = build_noisy_gateset(NoiseModel.conjugation({"channel": "relabeling"}), group24)
        m = rb_convolution_operator(group24, noisy)
        assert np.linalg.matrix_rank(m) == 4
        assert np.sum(np.abs(np.linalg.eigvals(m) - 1.0) <= 1e-12) == 4


def reference_run_rb(group, noisy_set, config):
    """Per-sequence loop: one gate at a time, one sequence at a time."""
    rho, mu = config.resolve(group.dim)
    table = np.empty((config.sequences, len(config.depths)))
    for di, m in enumerate(config.depths):
        draws = sequence_draws(config.seed, m, config.sequences, len(group))
        for k, idx in enumerate(draws):
            table[k, di] = sequence_survival(group, noisy_set, idx, rho, mu)
    return table


class TestSequenceDraws:
    """The vectorised draw against numpy's own per-sequence generators."""

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 70 - 1),
        m=st.integers(min_value=1, max_value=130),
        sequences=st.integers(min_value=1, max_value=40),
        n=st.sampled_from([24, 11520]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_per_sequence(self, seed, m, sequences, n):
        drawn = _sequence_indices(seed, [m], sequences, n)[0]
        assert np.array_equal(drawn, sequence_draws(seed, m, sequences, n))

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 70 - 1),
        m=st.integers(min_value=8, max_value=130),
        sequences=st.integers(min_value=8, max_value=40),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_numpy_under_heavy_rejection(self, seed, m, sequences):
        # n = 2^31 + 1 rejects about half of all words, so rows run short and refill
        n = 2 ** 31 + 1
        drawn = _sequence_indices(seed, [m], sequences, n)[0]
        assert np.array_equal(drawn, sequence_draws(seed, m, sequences, n))

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 70 - 1),
        depths=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=6),
        sequences=st.integers(min_value=1, max_value=20),
        n=st.sampled_from([24, 11520, 2 ** 31 + 1]),
    )
    @example(seed=2 ** 64 + 5, depths=[33, 1, 33, 2], sequences=7, n=24)
    @settings(max_examples=30, deadline=None)
    def test_every_depth_of_a_tuple_matches_numpy(self, seed, depths, sequences, n):
        # one call seeds every (depth, k) row; repeats and any order are allowed
        drawn = _sequence_indices(seed, depths, sequences, n)
        assert len(drawn) == len(depths)
        for m, idx in zip(depths, drawn):
            assert np.array_equal(idx, sequence_draws(seed, m, sequences, n))

    @given(
        seed=st.integers(min_value=0, max_value=2 ** 70 - 1),
        depths=st.lists(
            st.integers(min_value=1, max_value=200) | st.integers(min_value=1, max_value=2 ** 32 - 1),
            min_size=1,
            max_size=5,
        ),
        sequences=st.integers(min_value=1, max_value=6),
    )
    @example(seed=3, depths=[2 ** 32 - 1, 5, 2 ** 31, 1], sequences=3)
    @settings(max_examples=30, deadline=None)
    def test_seeding_matches_numpy_for_one_word_depths(self, seed, depths, sequences):
        # every depth is one uint32 word of the entropy, up to 2^32 - 1
        state, inc = _pcg_seeds(seed, depths, sequences)
        rows = itertools.product(depths, range(sequences))
        for row, (m, k) in enumerate(rows):
            want = np.random.default_rng([seed, m, k]).bit_generator.state["state"]
            assert int(state[0, row]) << 64 | int(state[1, row]) == want["state"]
            assert int(inc[0, row]) << 64 | int(inc[1, row]) == want["inc"]

    @pytest.mark.parametrize("depths", [[2 ** 32], [1, 2, 2 ** 32], [2 ** 64 + 1]])
    def test_depth_of_two_words_rejected(self, depths):
        with pytest.raises(ValueError, match="depths: expected every depth below 2\\^32"):
            RBConfig(depths=depths, sequences=4, seed=0)

    def test_depth_zero_draws_nothing_like_numpy(self):
        # numpy's integers(0, n, size=0) is an empty int64 draw
        drawn = _sequence_indices(0, [0, 3], 2, 24)
        for m, idx in zip([0, 3], drawn):
            want = sequence_draws(0, m, 2, 24)
            assert idx.shape == want.shape == (2, m) and idx.dtype == want.dtype
            assert np.array_equal(idx, want)

    def test_no_rejection_keeps_the_first_words_like_numpy(self):
        # n = 24 rejects a word with probability 16 / 2^32, so no row drops one
        # and the draw takes its first m words without sorting
        assert np.array_equal(_sequence_indices(11, [130], 40, 24)[0], sequence_draws(11, 130, 40, 24))

    def test_rejections_keep_the_accepted_words_in_order_like_numpy(self):
        # n = 2^31 + 1 rejects about half of all words, so rows drop words and
        # refill, and the accepted words are kept in order by the stable sort
        n = 2 ** 31 + 1
        drawn = _sequence_indices(5, [8, 33], 12, n)
        for m, idx in zip([8, 33], drawn):
            assert np.array_equal(idx, sequence_draws(5, m, 12, n))

    @pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
    @pytest.mark.parametrize("n", [2, 3, 2 ** 32 - 1])
    def test_edge_bounds_and_seed_words(self, seed, n):
        assert np.array_equal(_sequence_indices(seed, [9], 5, n)[0], sequence_draws(seed, 9, 5, n))

    @pytest.mark.parametrize("n", [1, 2 ** 32])
    def test_unreproduced_bound_rejected(self, n):
        with pytest.raises(ValueError, match="only 2 <= n < 2"):
            _sequence_indices(0, [3], 4, n)

    def test_negative_seed_rejected(self, group24, ztilt_noisy):
        with pytest.raises(ValueError, match="seed: expected an integer >= 0, got -1"):
            run_rb(group24, ztilt_noisy, RBConfig(depths=(1, 2, 4), sequences=3, seed=-1))

    def test_depth_column_independent_of_the_other_depths(self, group24, ztilt_noisy):
        def column(depths, col):
            config = RBConfig(depths=depths, sequences=15, seed=2 ** 64 + 5)
            return run_rb(group24, ztilt_noisy, config).survivals[:, col].tobytes()

        alone = column((9,), 0)
        assert column((1, 9, 30), 1) == alone  # with other depths
        assert column((30, 2, 9), 2) == alone  # reordered
        assert column((9, 4, 9), 0) == alone == column((9, 4, 9), 2)  # twice


class TestResampleOracle:
    """`_resample_means` against the fancy-index gather of the reference, bit for bit."""

    def check(self, survivals, seed):
        got = _resample_means(survivals, 200, np.random.default_rng(seed))
        assert np.array_equal(got, reference_resample_means(survivals, 200, np.random.default_rng(seed)))

    @pytest.mark.parametrize("name", SHIPPED_D2)
    def test_shipped_tables(self, group24, name):
        table = shipped_table(group24, name)
        self.check(table.survivals, table.seed + 0x5EED)

    def test_one_sequence(self):
        self.check(np.random.default_rng(3).uniform(0.5, 1.0, size=(1, 8)), 3)

    def test_three_depths(self):
        self.check(np.random.default_rng(4).uniform(0.5, 1.0, size=(37, 3)), 4)


class TestBatchedSampler:
    @pytest.mark.parametrize(
        "model, spam",
        [
            (NoiseModel.z_tilt(0.1), {}),
            (NoiseModel.over_rotation(0.07), {"meas_noise": depolarizing(0.95)}),
            (NoiseModel.left(depolarizing(0.99)), {"prep_noise": depolarizing(0.98)}),
        ],
    )
    def test_d2_matches_per_sequence_loop(self, group24, model, spam):
        noisy = build_noisy_gateset(model, group24)
        config = RBConfig(depths=(1, 2, 5, 16, 33), sequences=25, seed=8, **spam)
        table = run_rb(group24, noisy, config)
        assert np.array_equal(table.survivals, reference_run_rb(group24, noisy, config))

    def test_d4_matches_per_sequence_loop(self):
        group = generate_clifford_group(4)
        noisy = build_noisy_gateset(NoiseModel.z_tilt(0.1, cz_epsilon=0.1), group)
        config = RBConfig(depths=(1, 3, 6), sequences=6, seed=19)
        table = run_rb(group, noisy, config)
        assert np.array_equal(table.survivals, reference_run_rb(group, noisy, config))

    def test_d4_with_spam_and_multiword_seed_matches_per_sequence_loop(self, group11520):
        noisy = build_noisy_gateset(NoiseModel.over_rotation(0.05), group11520)
        spam = {"prep_noise": depolarizing(0.98, 4), "meas_noise": depolarizing(0.97, 4)}
        config = RBConfig(depths=(4, 1, 7), sequences=5, seed=2 ** 64 + 5, **spam)
        table = run_rb(group11520, noisy, config)
        assert np.array_equal(table.survivals, reference_run_rb(group11520, noisy, config))


class TestFitOracle:
    """`_fit_profile` against the reference's bisection (the same bits) and golden-section search."""

    CURVES = {
        "decay": lambda p, depths: 0.5 * p ** depths + 0.5,
        "flat": lambda p, depths: np.full(depths.size, 0.8),
        "rising": lambda p, depths: 0.6 + 0.01 * 1.05 ** depths,  # pinned at 1.02
        "alternating": lambda p, depths: 0.5 + 0.3 * (-0.6) ** depths,  # pinned at 0
    }
    MEANS = dict(
        rows=st.sampled_from([1, 201]),
        kind=st.sampled_from(sorted(CURVES)),
        zero_depth=st.booleans(),
        p=st.floats(min_value=0.3, max_value=0.99999),
        noise=st.sampled_from([1e-6, 1e-3, 3e-2]),
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )

    @given(**MEANS)
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_against_reference(self, rows, kind, zero_depth, p, noise, seed):
        depths, y = self.means(rows, kind, zero_depth, p, noise, seed)
        got, want = _fit_profile(depths, y), reference_fit_profile(depths, y)
        for name, ours, theirs in zip(("A", "B", "p", "at_bound"), got, want):
            assert np.array_equal(ours, theirs), name
        if kind in ("rising", "alternating"):
            assert want[3][0]
        if kind == "flat":
            assert want[2][0] == 1.0 and want[0][0] == 0.0

    @given(**MEANS)
    @settings(max_examples=60, deadline=None)
    def test_no_worse_than_golden_section(self, rows, kind, zero_depth, p, noise, seed):
        depths, y = self.means(rows, kind, zero_depth, p, noise, seed)
        ours, golden = _fit_profile(depths, y), golden_fit_profile(depths, y)
        assert np.array_equal(ours[3], golden[3])

        def rss_at(fit):
            # in extended precision: at noise 1e-6 an RSS of about 3e-14 evaluated in
            # float64 carries rounding of about 1e-9 relative, the size of the bound below
            a, b, p, _ = (np.asarray(v, dtype=np.longdouble) for v in fit)
            model = a[:, None] * p[:, None] ** depths + b[:, None]
            return ((y.astype(np.longdouble) - model) ** 2).sum(axis=-1)

        # the floor is rounding: on the noise-free row 0 both fits leave
        # residuals of about 1e-15, and their RSS differ by about 1e-29 at most
        kept = ~ours[3]
        assert np.all(rss_at(ours)[kept] <= rss_at(golden)[kept] * (1 + 1e-9) + 1e-28)

    def means(self, rows, kind, zero_depth, p, noise, seed):
        """Depths and `rows` noisy copies of one curve; row 0 is noise-free: flat, or on a bound."""
        depths = np.array([0, 1, 2, 4, 8, 16, 32] if zero_depth else [1, 2, 4, 8, 16, 32, 64])
        curve = self.CURVES[kind](p, depths)
        y = curve + np.random.default_rng(seed).normal(scale=noise, size=(rows, depths.size))
        y[0] = curve
        return depths, y


class TestFitEdgeCases:
    def test_flat_data_gives_unit_decay(self):
        depths = np.array([1, 2, 4, 8, 16])
        table = SurvivalTable(depths=depths, survivals=np.full((6, 5), 0.8), seed=3)
        fit = fit_decay(table, bootstrap=20)
        assert fit.p == 1.0 and fit.a == 0.0
        assert fit.b == pytest.approx(0.8, abs=1e-15)
        assert fit.p_interval == (1.0, 1.0)
        assert not fit.flagged

    def test_rising_data_is_flagged_at_upper_bound(self):
        depths = np.array([1, 2, 4, 8, 16, 32])
        table = SurvivalTable(depths=depths, survivals=np.tile(0.6 + 0.01 * 1.05 ** depths, (5, 1)), seed=4)
        fit = fit_decay(table, bootstrap=10)
        assert fit.flagged and "outside" in fit.message
        assert fit.p == pytest.approx(1.02, abs=1e-6)

    def test_alternating_data_is_flagged_at_lower_bound(self):
        depths = np.array([1, 2, 3, 4, 5])
        table = SurvivalTable(depths=depths, survivals=np.tile(0.5 + 0.3 * (-0.6) ** depths, (5, 1)), seed=5)
        fit = fit_decay(table, bootstrap=10)
        assert fit.flagged and "outside" in fit.message
        assert fit.p == pytest.approx(0.0, abs=1e-6)
