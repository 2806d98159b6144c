"""Acceptance checks: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

import numpy as np

from rblab.channels import traceless_projector, unitary_to_superop
from rblab.cliffords import generate_clifford_group
from rblab.correction import (
    correct_from_noisy_set,
    incoherence_defect,
    optimize_correct,
    polar_correct,
)
from rblab.noise import NoiseModel, build_noisy_gateset, depolarizing, rotation
from rblab.rb import RBConfig, fit_decay, run_rb
from rblab.twirl import (
    build_twirl,
    dominant_spectrum,
    fidelity_curve_exact,
)
from reference import enumerated_products, order_m_error_blocks, random_unitary, right_error_op_at

COMPOSITE_FACTORS = [
    {"channel": "dephasing", "axis": "z", "q": 0.999},
    {"channel": "rotation", "axis": "z", "angle": 0.02},
    {"channel": "amplitude_damping", "gamma": 0.001},
    {"channel": "rotation", "axis": "x", "angle": 0.01},
]


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def spectrum_of(group, model):
    noisy = build_noisy_gateset(model, group)
    return noisy, dominant_spectrum(build_twirl(group, noisy))


def test_criterion_01_gate_independent_law():
    start = time.perf_counter()
    q = 0.995
    group = generate_clifford_group(2)
    noisy, spectrum = spectrum_of(group, NoiseModel.left(depolarizing(q)))
    curve = fidelity_curve_exact(spectrum, np.eye(2), range(1, 257))
    law = 0.5 + 0.5 * q ** curve.depths.astype(float)
    curve_err = float(np.max(np.abs(curve.fidelity - law)))
    p_err = abs(spectrum.p - q)
    elapsed = time.perf_counter() - start
    ok = curve_err <= 1e-10 and p_err <= 1e-10 and elapsed < 1.0
    announce(
        1,
        ok,
        f"gate-independent law: max curve error {curve_err:.2e} (tol 1e-10), "
        f"|p - q| {p_err:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 1s)",
    )
    assert ok


def test_criterion_02_relabeling_example():
    start = time.perf_counter()
    group = generate_clifford_group(2)
    noisy, spectrum = spectrum_of(group, NoiseModel.conjugation({"channel": "relabeling"}))
    p_err = abs(spectrum.p - 1.0)
    curve = fidelity_curve_exact(spectrum, np.eye(2), range(1, 65))
    ftr_max = float(np.max(np.abs(curve.traceless_fidelity)))
    table = run_rb(group, noisy, RBConfig(depths=(1, 2, 4, 8, 16, 32, 64), sequences=30, seed=5))
    surv_err = float(np.max(np.abs(table.survivals - 1.0)))
    elapsed = time.perf_counter() - start
    ok = p_err <= 1e-10 and ftr_max <= 1e-10 and surv_err <= 1e-10 and elapsed < 1.0
    announce(
        2,
        ok,
        f"relabeling: |p - 1| {p_err:.2e}, max |f_tr| {ftr_max:.2e}, "
        f"max |survival - 1| {surv_err:.2e} (tol 1e-10 each), runtime {elapsed:.2f}s (< 1s)",
    )
    assert ok


def test_criterion_03_conjugation_example():
    group = generate_clifford_group(2)
    rng = np.random.default_rng(20260808)
    p_errs, ftr_u_errs, ftr_i = [], [], []
    for _ in range(10):
        u = random_unitary(2, rng)
        noisy, spectrum = spectrum_of(group, NoiseModel.conjugation(unitary_to_superop(u)))
        p_errs.append(abs(spectrum.p - 1.0))
        ftr_u_errs.append(
            abs(fidelity_curve_exact(spectrum, u, [1, 5]).traceless_fidelity - 1.0).max()
        )
        ftr_i.append(fidelity_curve_exact(spectrum, np.eye(2), [1]).traceless_fidelity[0])
    ftr_i = np.array(ftr_i)
    ok = (
        max(p_errs) <= 1e-10
        and max(ftr_u_errs) <= 1e-10
        and np.all(ftr_i < 1.0)
        and np.ptp(ftr_i) > 0.01
    )
    announce(
        3,
        ok,
        f"conjugation: max |p - 1| {max(p_errs):.2e}, max |f_tr(U) - 1| {max(ftr_u_errs):.2e} "
        f"(tol 1e-10), identity-basis f_tr in [{ftr_i.min():.3f}, {ftr_i.max():.3f}] (all < 1)",
    )
    assert ok


def test_criterion_04_corrected_decay_envelope():
    start = time.perf_counter()
    group = generate_clifford_group(2)
    noisy, spectrum = spectrum_of(group, NoiseModel.z_tilt(0.1))
    p = spectrum.p
    basis = correct_from_noisy_set(group, noisy, spectrum=spectrum)
    powers = p ** np.arange(1.0, 129.0)
    resid_u = float(
        np.max(
            np.abs(
                fidelity_curve_exact(spectrum, basis, range(1, 129)).traceless_fidelity
                - powers
            )
        )
    )
    resid_i = float(
        np.max(
            np.abs(
                fidelity_curve_exact(spectrum, np.eye(2), range(1, 129)).traceless_fidelity
                - powers
            )
        )
    )
    envelope = 10 * (1 - p) ** 2
    elapsed = time.perf_counter() - start
    ok = resid_u <= envelope and resid_i >= 10 * envelope and elapsed < 5.0
    announce(
        4,
        ok,
        f"corrected decay law: corrected residual {resid_u:.2e} <= {envelope:.2e}, "
        f"identity residual {resid_i:.2e} >= {10 * envelope:.2e}, runtime {elapsed:.2f}s (< 5s)",
    )
    assert ok


def test_criterion_05_deviation_reproduction():
    group = generate_clifford_group(2)
    noisy, spectrum = spectrum_of(group, NoiseModel.z_tilt(0.1))
    basis = correct_from_noisy_set(group, noisy, spectrum=spectrum)
    curve_u = fidelity_curve_exact(spectrum, basis, range(1, 65))
    curve_i = fidelity_curve_exact(spectrum, np.eye(2), range(1, 65))
    ref = (1 - spectrum.p) ** 2
    dev_u = np.abs(curve_u.ratio_deviation)
    below = bool(np.all(dev_u[~np.isnan(dev_u)] < ref))
    dev_i = np.abs(curve_i.ratio_deviation)
    monotone = all(
        dev_i[i + 1] <= dev_i[i] + 1e-15 or dev_i[i + 1] <= 1e-12
        for i in range(1, len(dev_i) - 1)
    )
    ok = below and monotone
    announce(
        5,
        ok,
        f"deviation figure: max corrected |delta| {np.nanmax(dev_u):.2e} < (1-p)^2 {ref:.2e}; "
        f"identity |delta| monotone for m >= 2 to 1e-12 floor: {monotone}",
    )
    assert ok


FRAMES = ("U", "I", "U2")


def intercept_orders(group, model_at, strengths):
    """Criterion 06's clauses on the m = 5..10 fit intercepts in the frames U, I, U^2.

    Returns the worst |fit intercept - exact amplitude 1/d + (d-1)/d C|, the
    |1 - intercept| of each frame per strength, 10 (1-p)^2 per strength, the
    log-log slopes against r = 1 - p, how far |1 - I| and |1 - U^2| exceed
    10 (1-p)^2 at the weakest strength, and whether every clause holds.
    """
    dim = group.dim
    depths = range(1, 13)
    rs = []
    dev = {k: [] for k in FRAMES}
    envelopes = []
    fit_err = 0.0
    for eps in strengths:
        noisy, spectrum = spectrum_of(group, model_at(eps))
        basis = correct_from_noisy_set(group, noisy, spectrum=spectrum)
        for key, frame in zip(FRAMES, (basis, np.eye(dim), basis @ basis)):
            _, intercept = fidelity_curve_exact(spectrum, frame, depths).log_fit(5, 10)
            amplitude = spectrum.decay_amplitude(unitary_to_superop(frame))
            exact = 1.0 / dim + (dim - 1.0) / dim * amplitude
            fit_err = max(fit_err, abs(intercept - exact))
            dev[key].append(abs(1.0 - intercept))
        rs.append(1 - spectrum.p)
        envelopes.append(10 * (1 - spectrum.p) ** 2)
    log_r = np.log(rs)
    slope = {k: float(np.polyfit(log_r, np.log(dev[k]), 1)[0]) for k in FRAMES}
    corrected_ok = all(d <= env for d, env in zip(dev["U"], envelopes))
    weak_margin = {k: dev[k][0] / envelopes[0] for k in ("I", "U2")}
    ok = (
        fit_err <= 1e-8
        and corrected_ok
        and slope["U"] >= 1.75
        and 0.75 <= slope["I"] <= 1.25
        and 0.75 <= slope["U2"] <= 1.25
        and weak_margin["I"] > 1.0
        and weak_margin["U2"] > 1.0
    )
    return fit_err, dev, envelopes, slope, weak_margin, ok


def test_criterion_06_intercept_reproduction():
    """Order of the short-depth fit intercepts for the over-rotation model.

    In a frame with a basis mismatch the intercept of the `m = 5..10` fit
    departs from 1 at first order in r = 1 - p; in the corrected frame U it
    departs at second order. Measured on the exact curves, |1 - intercept|
    is about 0.020 r^2 for U, 0.138 r for the identity (intercept above 1)
    and 0.46 r for U^2 (intercept below 1) at every strength in the sweep;
    the correction itself rotates by about 1.15 times the over-rotation
    angle. Because the identity coefficient is fixed, a comparison with the
    second-order envelope 10 (1-p)^2 only separates the frames where 10 r is
    small against it, so the check asserts:

    - each fit intercept equals the exact asymptotic amplitude to 1e-8, so a
      fit-window artefact cannot pass or fail the other clauses;
    - |1 - U| <= 10 (1-p)^2 at every strength, including the fig-pbloch
      default 0.1;
    - log-log slopes against r: >= 1.75 for U, in [0.75, 1.25] for I and U^2;
    - |1 - I| and |1 - U^2| exceed 10 (1-p)^2 at the weakest strength.
    """
    strengths = (0.025, 0.05, 0.1)
    fit_err, dev, envelopes, slope, weak_margin, ok = intercept_orders(
        generate_clifford_group(2), NoiseModel.over_rotation, strengths
    )
    margins_u = ", ".join(
        f"eps {eps}: {d:.2e} <= {env:.2e}" for eps, d, env in zip(strengths, dev["U"], envelopes)
    )
    announce(
        6,
        ok,
        f"intercepts: fit vs exact amplitude {fit_err:.1e} (tol 1e-8); |1-U| {margins_u}; "
        f"log-log slopes vs 1-p: U {slope['U']:.2f} (>= 1.75), I {slope['I']:.2f} and "
        f"U^2 {slope['U2']:.2f} (in [0.75, 1.25]); at eps {strengths[0]}: "
        f"|1-I| {dev['I'][0]:.2e} and |1-U^2| {dev['U2'][0]:.2e} > {envelopes[0]:.2e} "
        f"by {weak_margin['I']:.1f}x and {weak_margin['U2']:.1f}x",
    )
    assert ok


def test_criterion_07_tilt_sweep_reproduction():
    group = generate_clifford_group(2)
    worst = 0.0
    envelopes = []
    for theta in (0.02, 0.05, 0.1, 0.2):
        noisy, spectrum = spectrum_of(group, NoiseModel.z_tilt(theta))
        basis = correct_from_noisy_set(group, noisy, spectrum=spectrum)
        f1 = fidelity_curve_exact(spectrum, basis, [1]).fidelity[0]
        gap = abs((1.0 - f1) - (1.0 - spectrum.p) / 2)
        envelope = 10 * (1 - spectrum.p) ** 2
        envelopes.append(gap <= envelope)
        worst = max(worst, gap / envelope if envelope > 0 else 0.0)
    ok = all(envelopes)
    announce(
        7,
        ok,
        f"tilt sweep: |(1 - F(U,1)) - (1-p)/2| <= 10(1-p)^2 at all four angles "
        f"(worst margin ratio {worst:.2e})",
    )
    assert ok


def test_criterion_08_rb_matches_spectral_decay():
    start = time.perf_counter()
    group = generate_clifford_group(2)
    results = {}
    for name, model, seed in (
        ("z_tilt", NoiseModel.z_tilt(0.1), 42),
        ("over_rotation", NoiseModel.over_rotation(0.1), 43),
    ):
        noisy, spectrum = spectrum_of(group, model)
        fit = fit_decay(run_rb(group, noisy, RBConfig(seed=seed)))
        results[name] = (
            spectrum.p,
            fit.p_interval,
            fit.p_interval[0] <= spectrum.p <= fit.p_interval[1],
        )
    elapsed = time.perf_counter() - start
    ok = all(r[2] for r in results.values()) and elapsed < 30.0
    detail = "; ".join(
        f"{name}: p {p:.6f} in [{lo:.6f}, {hi:.6f}]" for name, (p, (lo, hi), _) in results.items()
    )
    announce(8, ok, f"RB vs spectral: {detail}; runtime {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_09_order_four_sufficiency():
    group = generate_clifford_group(2)
    models = {
        "z_tilt": NoiseModel.z_tilt(0.1),
        "over_rotation": NoiseModel.over_rotation(0.1),
        "sandwich": NoiseModel.sandwich(
            depolarizing(0.999), rotation("y", 0.05)
        ),
        "composite": NoiseModel.right(COMPOSITE_FACTORS),
    }
    gaps = {}
    for name, model in models.items():
        noisy, spectrum = spectrum_of(group, model)
        a4 = right_error_op_at(spectrum, 4)
        a8 = right_error_op_at(spectrum, 8)
        gaps[name] = (
            float(np.linalg.norm(a4 - a8)),
            5 * (1 - spectrum.p) ** 2,
        )
    close = all(gap <= bound for gap, bound in gaps.values())

    # depth-2 enumeration oracle against the power construction
    noisy, spectrum = spectrum_of(group, NoiseModel.z_tilt(0.1))
    pi = traceless_projector(2)
    ideal, nz = enumerated_products(group, noisy, 2)
    acc = (pi @ ideal.transpose(0, 2, 1) @ nz).mean(axis=0)
    enum_err = float(np.max(np.abs(acc / spectrum.p ** 2 - right_error_op_at(spectrum, 2))))
    ok = close and enum_err <= 1e-10
    worst = max(gap / bound for gap, bound in gaps.values())
    announce(
        9,
        ok,
        f"order-4 sufficiency: ||A4 - A8|| <= 5(1-p)^2 on all shipped models "
        f"(worst ratio {worst:.2e}); enumeration oracle error {enum_err:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_10_composite_incoherence():
    group = generate_clifford_group(2)
    chains = [
        COMPOSITE_FACTORS,
        [
            {"channel": "amplitude_damping", "gamma": 0.002},
            {"channel": "rotation", "axis": "y", "angle": 0.03},
            {"channel": "dephasing", "axis": "x", "q": 0.9985},
            {"channel": "rotation", "axis": [1, 1, 0], "angle": 0.015},
        ],
    ]
    margins = []
    for factors in chains:
        noisy = build_noisy_gateset(NoiseModel.right(factors), group)
        right_blk, _ = order_m_error_blocks(build_twirl(group, noisy), 4)
        corrected = polar_correct(right_blk).corrected_block
        r = 1.0 - (0.5 + 0.5 * np.trace(corrected) / 3)
        margins.append((incoherence_defect(corrected), 5 * r ** 2))
    ok = all(defect <= bound for defect, bound in margins)
    detail = ", ".join(f"defect {d:.2e} <= 5r^2 {b:.2e}" for d, b in margins)
    announce(10, ok, f"composite chains: {detail}")
    assert ok


def test_criterion_11_two_qubit_extended():
    start = time.perf_counter()
    group = generate_clifford_group(4)
    size_ok = len(group) == 11520
    noisy = build_noisy_gateset(NoiseModel.z_tilt(0.1, cz_epsilon=0.1), group)
    twirl = build_twirl(group, noisy)
    spectrum = dominant_spectrum(twirl)
    right_blk, _ = order_m_error_blocks(twirl, 4)
    result = optimize_correct(right_blk, 4)
    curve = fidelity_curve_exact(spectrum, result.unitary, range(1, 21))
    dev = np.abs(curve.ratio_deviation)
    ref = (1 - spectrum.p) ** 2
    below = bool(np.all(dev[~np.isnan(dev)] < ref))
    elapsed = time.perf_counter() - start
    ok = size_ok and below and elapsed < 600.0
    announce(
        11,
        ok,
        f"two-qubit: group {len(group)} (= 11520), corrected max |delta| "
        f"{np.nanmax(dev):.2e} < (1-p)^2 {ref:.2e} (p {spectrum.p:.6f}, "
        f"optimizer converged {result.converged}), runtime {elapsed:.0f}s (< 600s)",
    )
    assert ok


def test_criterion_12_two_qubit_intercept_orders():
    """Criterion 06 at d=4, the paper's higher-dimension conjecture: the same
    clauses and bounds for the over-rotation and z-tilt models, each with a CZ
    error equal to its single-qubit error. Measured: |1 - U| is about
    0.005 r^2 (over-rotation) and 0.012 r^2 (z-tilt); the log-log slopes are
    near 2 for U and near 1 for I and U^2.
    """
    start = time.perf_counter()
    group = generate_clifford_group(4)
    strengths = (0.025, 0.05, 0.1)
    models = {
        "over_rotation": lambda eps: NoiseModel.over_rotation(eps, cz_epsilon=eps),
        "z_tilt": lambda eps: NoiseModel.z_tilt(eps, cz_epsilon=eps),
    }
    verdicts, details = [], []
    for name, model_at in models.items():
        fit_err, dev, envelopes, slope, weak_margin, ok = intercept_orders(group, model_at, strengths)
        verdicts.append(ok)
        worst_u = max(d / env for d, env in zip(dev["U"], envelopes))
        details.append(
            f"{name}: fit vs exact {fit_err:.1e} (tol 1e-8), max |1-U| / 10(1-p)^2 {worst_u:.2e}, "
            f"slopes U {slope['U']:.2f} (>= 1.75), I {slope['I']:.2f} and U^2 {slope['U2']:.2f} "
            f"(in [0.75, 1.25]), at eps {strengths[0]} I and U^2 exceed 10(1-p)^2 by "
            f"{weak_margin['I']:.1f}x and {weak_margin['U2']:.1f}x"
        )
    elapsed = time.perf_counter() - start
    ok = all(verdicts)
    announce(12, ok, "two-qubit intercepts: " + "; ".join(details) + f"; runtime {elapsed:.1f}s")
    assert ok
