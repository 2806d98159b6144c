"""Command-line front end: wires JSON configs to the library and emits CSV data.

Every output file starts with '#'-prefixed metadata (tool version, seed, model
parameters), contains no timestamps, and is byte-identical across reruns of
the same manifest.  Exit codes: 0 success, 2 configuration error, 3 numerical
regime error (e.g. a degenerate dominant eigenvalue).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import unitary_to_superop
from .cliffords import (
    CliffordGroup,
    GroupClosureError,
    generate_clifford_group,
    load_group,
    save_group,
)
from .correction import (
    ImproperRotationError,
    SingularBlockError,
    correct_from_noisy_set,
    incoherence_defect,
    optimize_correct,
    polar_correct,
)
from .noise import ConfigError, NoiseModel, build_noisy_gateset, channel_from_spec
from .rb import RBConfig, fit_decay, run_rb
from .twirl import (
    DegenerateSpectrumError,
    build_twirl,
    dominant_spectrum,
    fidelity_curve_exact,
    nondominant_radius,
    order_m_error_blocks,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, meta: dict, columns: list[tuple[str, list]]) -> None:
    lines = [f"# rblab {__version__}"]
    for key, value in meta.items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(name for name, _ in columns))
    length = len(columns[0][1])
    for i in range(length):
        lines.append(",".join(_fmt(values[i]) for _, values in columns))
    path.write_text("\n".join(lines) + "\n")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def model_from_config(cfg: dict, dim: int, default: NoiseModel | None = None) -> NoiseModel:
    if "model" in cfg:
        return NoiseModel.from_config(cfg["model"], dim)
    if default is not None:
        return default
    raise ConfigError("model: missing from config")


def model_summary(model: NoiseModel) -> str:
    return json.dumps({"kind": model.kind, **model.params}, sort_keys=True, default=str)


def obtain_group(dim: int, cache: str | None) -> CliffordGroup:
    if cache is not None and Path(cache).exists():
        try:
            group = load_group(cache)
        except (ValueError, GroupClosureError) as exc:
            raise ConfigError(
                f"group cache {cache} is unusable, delete it to rebuild: {exc}"
            ) from exc
        if group.dim != dim:
            raise ConfigError(
                f"group cache {cache} holds a dimension-{group.dim} gate-set, need {dim}"
            )
        return group
    group = generate_clifford_group(dim)
    if cache is not None:
        save_group(group, cache)
    return group


def _default_fig_model(kind: str, dim: int) -> NoiseModel:
    cz = 0.1 if dim == 4 else 0.0
    if kind == "z_tilt":
        return NoiseModel.z_tilt(0.1, cz_epsilon=cz)
    return NoiseModel.over_rotation(0.1, cz_epsilon=cz if dim == 4 else None)


def _meta(args, model: NoiseModel | None, seed: int, dim: int) -> dict:
    meta = {"dim": dim, "seed": seed}
    if model is not None:
        meta["model"] = model_summary(model)
    return meta


def _seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", 0))


def _dim(args, cfg: dict) -> int:
    dim = args.dim if args.dim is not None else int(cfg.get("dim", 2))
    if dim not in (2, 4):
        raise ConfigError(f"dim: expected 2 or 4, got {dim}")
    return dim


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_group(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    group = obtain_group(dim, args.group_cache)
    print(f"group of {len(group)} elements (dim {dim})")
    if args.group_cache:
        print(f"cache: {args.group_cache}")
    return 0


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    model = model_from_config(cfg, dim)
    group = obtain_group(dim, args.group_cache)
    noisy = build_noisy_gateset(model, group)
    twirl = build_twirl(group, noisy)
    spectrum = dominant_spectrum(twirl)
    radius = nondominant_radius(twirl)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "spectrum.csv",
        _meta(args, model, seed, dim),
        [
            ("p", [spectrum.p]),
            ("one_minus_p", [1.0 - spectrum.p]),
            ("nondominant_radius", [radius]),
        ],
    )
    print(f"p = {spectrum.p!r}  (1-p = {1.0 - spectrum.p:.3e}, subleading radius {radius:.3e})")
    return 0


def _basis_matrix(name: str, group, noisy, spectrum, seed: int) -> np.ndarray:
    if name == "identity":
        return np.eye(group.dim, dtype=complex)
    u = correct_from_noisy_set(group, noisy, spectrum=spectrum, seed=seed)
    if name == "corrected":
        return u
    if name == "corrected-squared":
        return u @ u
    raise ConfigError(
        f"basis: expected identity|corrected|corrected-squared, got {name!r}"
    )


def cmd_curve(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    model = model_from_config(cfg, dim)
    depths = [int(m) for m in cfg.get("depths", range(1, 33))]
    basis_name = cfg.get("basis", "identity")
    group = obtain_group(dim, args.group_cache)
    noisy = build_noisy_gateset(model, group)
    spectrum = dominant_spectrum(build_twirl(group, noisy))
    basis = _basis_matrix(basis_name, group, noisy, spectrum, seed)
    curve = fidelity_curve_exact(spectrum, basis, depths)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(args, model, seed, dim)
    meta["p"] = repr(curve.p)
    write_csv(
        out / "curve.csv",
        meta,
        [
            ("m", list(curve.depths)),
            ("F", list(curve.fidelity)),
            ("f_tr", list(curve.traceless_fidelity)),
            ("C", [curve.amplitude] * curve.depths.size),
            ("D", list(curve.residual)),
            ("delta", list(curve.ratio_deviation)),
            ("basis", [basis_name] * curve.depths.size),
        ],
    )
    print(f"curve written for basis {basis_name}; p = {curve.p!r}")
    return 0


def cmd_correct(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    model = model_from_config(cfg, dim)
    group = obtain_group(dim, args.group_cache)
    noisy = build_noisy_gateset(model, group)
    twirl = build_twirl(group, noisy)
    spectrum = dominant_spectrum(twirl)
    right_blk, _ = order_m_error_blocks(group, noisy, 4, twirl=twirl)

    meta = _meta(args, model, seed, dim)
    meta["p"] = repr(spectrum.p)
    if dim == 2:
        factors = polar_correct(right_blk)
        basis = factors.correction
        corrected_block = right_blk @ factors.rotation_block.T
        achieved = 0.5 + 0.5 * np.trace(corrected_block) / 3.0
        meta["rotation_angle"] = repr(factors.rotation_angle)
        meta["rotation_axis"] = json.dumps([round(x, 12) for x in factors.rotation_axis])
    else:
        result = optimize_correct(right_blk, dim, seed=seed)
        basis = result.unitary
        u_blk = unitary_to_superop(basis).mat[1:, 1:]
        corrected_block = right_blk @ u_blk
        achieved = result.fidelity
        meta["converged"] = result.converged
    meta["achieved_fidelity"] = repr(float(achieved))
    meta["incoherence_defect"] = repr(incoherence_defect(corrected_block))

    depths = [int(m) for m in cfg.get("depths", range(1, 33))]
    curve = fidelity_curve_exact(spectrum, basis, depths)
    resid = np.abs(curve.traceless_fidelity - spectrum.p ** curve.depths.astype(float))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "correct.csv",
        meta,
        [
            ("m", list(curve.depths)),
            ("f_tr_corrected", list(curve.traceless_fidelity)),
            ("p_power", list(spectrum.p ** curve.depths.astype(float))),
            ("abs_residual", list(resid)),
        ],
    )
    print(
        f"correction found: achieved fidelity {float(achieved)!r}, "
        f"max decay-law residual {resid.max():.3e}"
    )
    return 0


def cmd_rb(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    model = model_from_config(cfg, dim)
    group = obtain_group(dim, args.group_cache)
    noisy = build_noisy_gateset(model, group)

    spam = cfg.get("spam", {}) or {}
    prep = channel_from_spec(spam["prep"], dim) if spam.get("prep") else None
    meas = channel_from_spec(spam["meas"], dim) if spam.get("meas") else None
    rb_cfg = RBConfig(
        depths=tuple(int(m) for m in cfg.get("depths", (1, 2, 4, 8, 16, 32, 64, 128))),
        sequences=int(cfg.get("sequences", 200)),
        seed=seed,
        prep_noise=prep,
        meas_noise=meas,
    )
    table = run_rb(group, noisy, rb_cfg)
    fit = fit_decay(table, dim=dim)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    depth_col, seq_col, surv_col = [], [], []
    for di, m in enumerate(table.depths):
        for k in range(table.survivals.shape[0]):
            depth_col.append(int(m))
            seq_col.append(k)
            surv_col.append(table.survivals[k, di])
    write_csv(
        out / "rb_survival.csv",
        _meta(args, model, seed, dim),
        [("depth", depth_col), ("sequence", seq_col), ("survival", surv_col)],
    )
    lines = [
        f"rblab {__version__}",
        f"model: {model_summary(model)}",
        f"seed: {seed}",
        f"A: {fit.a!r}",
        f"B: {fit.b!r}",
        f"p: {fit.p!r}",
        f"p_95_interval: [{fit.p_interval[0]!r}, {fit.p_interval[1]!r}]",
        f"bootstrap_samples: {fit.bootstrap_samples}",
        f"flagged: {fit.flagged}",
        f"message: {fit.message}",
        "depth,mean_survival,residual",
    ]
    for di, m in enumerate(table.depths):
        lines.append(f"{m},{fit.mean_survival[di]!r},{fit.residuals[di]!r}")
    (out / "rb_fit.txt").write_text("\n".join(lines) + "\n")
    print(f"fitted p = {fit.p!r}  95% interval {fit.p_interval}")
    if fit.flagged:
        print(f"fit flagged: {fit.message}")
    return 0


def cmd_fig_delta(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    model = model_from_config(cfg, dim, default=_default_fig_model("z_tilt", dim))
    max_depth = int(cfg.get("max_depth", 30))
    group = obtain_group(dim, args.group_cache)
    noisy = build_noisy_gateset(model, group)
    spectrum = dominant_spectrum(build_twirl(group, noisy))
    u = correct_from_noisy_set(group, noisy, spectrum=spectrum, seed=seed)

    depths = range(1, max_depth + 1)
    curve_i = fidelity_curve_exact(spectrum, np.eye(dim, dtype=complex), depths)
    curve_u = fidelity_curve_exact(spectrum, u, depths)
    infid_1 = 1.0 - curve_i.fidelity[0]
    p = spectrum.p
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(args, model, seed, dim)
    meta["p"] = repr(p)
    write_csv(
        out / "fig_delta.csv",
        meta,
        [
            ("m", list(curve_i.depths)),
            ("abs_delta_identity", list(np.abs(curve_i.ratio_deviation))),
            ("abs_delta_corrected", list(np.abs(curve_u.ratio_deviation))),
            ("ref_one_minus_p_sq", [(1.0 - p) ** 2] * curve_i.depths.size),
            ("ref_one_minus_F1_sq", [infid_1 ** 2] * curve_i.depths.size),
        ],
    )
    print(f"fig-delta written; p = {p!r}")
    return 0


def cmd_fig_pbloch(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    model = model_from_config(cfg, dim, default=_default_fig_model("over_rotation", dim))
    max_depth = int(cfg.get("max_depth", 12))
    group = obtain_group(dim, args.group_cache)
    noisy = build_noisy_gateset(model, group)
    spectrum = dominant_spectrum(build_twirl(group, noisy))
    u = correct_from_noisy_set(group, noisy, spectrum=spectrum, seed=seed)

    depths = range(1, max_depth + 1)
    curves = {
        "identity": fidelity_curve_exact(spectrum, np.eye(dim, dtype=complex), depths),
        "corrected": fidelity_curve_exact(spectrum, u, depths),
        "corrected_sq": fidelity_curve_exact(spectrum, u @ u, depths),
    }
    meta = _meta(args, model, seed, dim)
    meta["p"] = repr(spectrum.p)
    columns = [("m", list(curves["identity"].depths))]
    ms = curves["identity"].depths
    for name, curve in curves.items():
        slope, intercept = curve.log_fit(5, 10)
        meta[f"intercept_{name}"] = repr(float(intercept))
        meta[f"slope_{name}"] = repr(float(slope))
        fit_vals = 1.0 / dim + (intercept - 1.0 / dim) * np.exp(slope * ms.astype(float))
        columns.append((f"F_{name}", list(curve.fidelity)))
        columns.append((f"fit_{name}", list(fit_vals)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "fig_pbloch.csv", meta, columns)
    print(
        "fig-pbloch written; intercepts: "
        + ", ".join(f"{n}={meta[f'intercept_{n}']}" for n in curves)
    )
    return 0


def cmd_fig_basis(args) -> int:
    cfg = load_config(args.config)
    dim = _dim(args, cfg)
    seed = _seed(args, cfg)
    grid_cfg = cfg.get("theta_grid", [0.0, 0.3, 31])
    if not (isinstance(grid_cfg, (list, tuple)) and len(grid_cfg) == 3):
        raise ConfigError("theta_grid: expected [start, stop, num]")
    thetas = np.linspace(float(grid_cfg[0]), float(grid_cfg[1]), int(grid_cfg[2]))
    cz_eps = float(cfg.get("cz_epsilon", 0.1 if dim == 4 else 0.0))
    group = obtain_group(dim, args.group_cache)

    infid_i, infid_u, half_gap = [], [], []
    for theta in thetas:
        model = NoiseModel.z_tilt(float(theta), cz_epsilon=cz_eps)
        noisy = build_noisy_gateset(model, group)
        spectrum = dominant_spectrum(build_twirl(group, noisy))
        u = correct_from_noisy_set(group, noisy, spectrum=spectrum, seed=seed)
        curve_i = fidelity_curve_exact(spectrum, np.eye(dim, dtype=complex), [1])
        curve_u = fidelity_curve_exact(spectrum, u, [1])
        infid_i.append(1.0 - curve_i.fidelity[0])
        infid_u.append(1.0 - curve_u.fidelity[0])
        half_gap.append((1.0 - spectrum.p) * (dim - 1.0) / dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(args, None, seed, dim)
    meta["model"] = json.dumps(
        {"kind": "z_tilt", "theta_grid": list(grid_cfg), "cz_epsilon": cz_eps}
    )
    write_csv(
        out / "fig_basis.csv",
        meta,
        [
            ("theta_z", list(thetas)),
            ("infid_identity", infid_i),
            ("infid_corrected", infid_u),
            ("scaled_one_minus_p", half_gap),
        ],
    )
    print(f"fig-basis written over {thetas.size} tilt angles")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rblab",
        description="Decay analysis for randomized benchmarking under gate-dependent noise",
    )
    parser.add_argument("--version", action="version", version=f"rblab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen-group": cmd_gen_group,
        "spectrum": cmd_spectrum,
        "curve": cmd_curve,
        "correct": cmd_correct,
        "rb": cmd_rb,
        "fig-delta": cmd_fig_delta,
        "fig-pbloch": cmd_fig_pbloch,
        "fig-basis": cmd_fig_basis,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument("--dim", type=int, default=None, choices=(2, 4))
        p.add_argument("--group-cache", default=None, help="npz cache for the gate-set")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DegenerateSpectrumError, GroupClosureError, ImproperRotationError, SingularBlockError
    ) as exc:
        print(f"numerical regime error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
