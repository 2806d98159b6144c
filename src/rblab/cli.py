"""Command-line front end: wires JSON configs to the library and emits CSV data.

`main` builds one `_Setup` from the arguments and hands it to the command.
The `_Setup` builds the model, group, noisy set, spectrum and correction on
first use, so the command only formats library results.  Accepted config
values, anything else being a configuration error: dim 2 or 4 and seed an
integer >= 0 (--dim and --seed override them); depths a non-empty list of
integers below 2^32, >= 0 for curve and correct and, for rb, >= 1 with at
least 3 distinct values; sequences an integer >= 1 and below 2^32, and for
rb sequences x sum(depths) at most 10^7 gate applications (rb.MAX_APPLICATIONS,
about 2 s at d=2); basis identity, corrected or corrected-squared; spam an
object with optional prep and meas channels; max_depth an integer below 2^32,
>= 1 for fig-delta and >= 10 for fig-pbloch, whose fits span m = 5..10;
theta_grid [start, stop, num] with finite start and stop and an integer num
>= 1 and below 2^32; cz_epsilon a finite number.  Numbers are JSON numbers
(not strings or booleans) and finite, and a list axis has a finite, non-zero
norm; a key no command reads, at the top level, in spam, in the model or in a
channel spec, is an error too.

Every output file starts with '#'-prefixed metadata (tool version, seed, model
parameters), contains no timestamps, and is byte-identical across reruns of
the same manifest.  Exit codes: 0 success, 2 configuration error, 3 numerical
regime error, which is every `twirl.RegimeError` (e.g. a degenerate dominant
eigenvalue, a singular right-error block, a correction whose ascent
did not converge, or a fig-pbloch curve with F - 1/d <= 0 in its fit window).
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .cliffords import (
    CliffordGroup,
    generate_clifford_group,
    load_group,
    save_group,
)
from .correction import CorrectionResult, correct_spectrum, incoherence_defect
from .noise import ConfigError, NoiseModel, NoisyGateSet, build_noisy_gateset, check_keys, field_channel, finite, integer
from .rb import RBConfig, check_fit_depths, fit_decay, run_rb
from .twirl import (
    FidelityCurve,
    FitWindowError,
    RegimeError,
    TwirlSpectrum,
    build_twirl,
    dominant_spectrum,
    fidelity_curve_exact,
    nondominant_radius,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class CorrectionNotConvergedError(RegimeError):
    """The SU(d) ascent stopped short of a strict local maximum, at its iteration cap or
    where no step raises the fidelity, so the command refuses its unitary."""


# every top-level config key some command reads
_CONFIG_KEYS = (
    "dim", "seed", "model", "depths", "sequences", "basis", "spam", "max_depth", "theta_grid",
    "cz_epsilon",
)


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
    write_text(path, "\n".join(lines) + "\n")


def write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"{path} cannot be written: {exc.strerror or exc}") from exc


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int past the digit limit, lists past the depth limit
        raise ConfigError(f"{path}: {str(exc).partition('; use sys.set_int_max_str_digits')[0]}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    check_keys(cfg, _CONFIG_KEYS, "the config")
    return cfg


def model_summary(model: NoiseModel) -> str:
    return json.dumps({"kind": model.kind, **model.params}, sort_keys=True, default=str)


def obtain_group(dim: int, cache: str | None) -> CliffordGroup:
    if cache is not None and Path(cache).exists():
        try:
            group = load_group(cache)
        except ValueError as exc:
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
        try:
            save_group(group, cache)
        except OSError as exc:
            raise ConfigError(f"group cache {cache} cannot be written: {exc.strerror or exc}") from exc
    return group


class _Setup:
    """The config, dim, seed, output directory and group cache that every command shares.

    The model (which a figure command may set first), group, noisy set,
    spectrum and correction are built on first use.
    """

    def __init__(self, args):
        self.cfg = load_config(args.config)
        self.dim = args.dim if args.dim is not None else self.cfg.get("dim", 2)
        if type(self.dim) is not int or self.dim not in (2, 4):
            raise ConfigError(f"dim: expected 2 or 4, got {self.dim!r}")
        seed = args.seed if args.seed is not None else self.cfg.get("seed", 0)
        self.seed = integer("seed", seed, 0)
        self.out = Path(args.out)
        self.group_cache = args.group_cache

    @cached_property
    def model(self) -> NoiseModel:
        if "model" not in self.cfg:
            raise ConfigError("model: missing from config")
        return NoiseModel.from_config(self.cfg["model"], self.dim)

    @cached_property
    def group(self) -> CliffordGroup:
        return obtain_group(self.dim, self.group_cache)

    @cached_property
    def noisy(self) -> NoisyGateSet:
        return build_noisy_gateset(self.model, self.group)

    @cached_property
    def spectrum(self) -> TwirlSpectrum:
        return dominant_spectrum(build_twirl(self.group, self.noisy))

    @cached_property
    def correction(self) -> CorrectionResult:
        result = correct_spectrum(self.spectrum)
        if not result.converged:
            raise CorrectionNotConvergedError(
                f"the correction did not converge in {result.iterations} iterations "
                f"(achieved fidelity {result.fidelity!r})"
            )
        return result

    def curve(self, basis: str, depths) -> FidelityCurve:
        """Exact fidelity curve in the frame `basis` names: I, the correction U or U^2."""
        if basis not in ("identity", "corrected", "corrected-squared"):
            raise ConfigError(f"basis: expected identity|corrected|corrected-squared, got {basis!r}")
        frame = np.eye(self.dim, dtype=complex)
        if basis != "identity":
            u = self.correction.unitary
            frame = u if basis == "corrected" else u @ u
        return fidelity_curve_exact(self.spectrum, frame, depths)

    def for_model(self, model: NoiseModel) -> "_Setup":
        """The same config, seed, output directory and group with another model."""
        other = copy.copy(self)
        for name in ("noisy", "spectrum", "correction"):
            vars(other).pop(name, None)
        other.group = self.group
        other.model = model
        return other

    def meta(self, **extra) -> dict:
        return {"dim": self.dim, "seed": self.seed, "model": model_summary(self.model), **extra}

    def output(self, name: str) -> Path:
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {self.out} cannot be created: {exc.strerror or exc}") from exc
        return self.out / name


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_group(s: _Setup) -> int:
    print(f"group of {len(s.group)} elements (dim {s.dim})")
    if s.group_cache:
        print(f"cache: {s.group_cache}")
    return 0


def cmd_spectrum(s: _Setup) -> int:
    p = s.spectrum.p
    radius = nondominant_radius(s.spectrum.twirl)
    write_csv(
        s.output("spectrum.csv"),
        s.meta(),
        [
            ("p", [p]),
            ("one_minus_p", [1.0 - p]),
            ("nondominant_radius", [radius]),
        ],
    )
    print(f"p = {p!r}  (1-p = {1.0 - p:.3e}, subleading radius {radius:.3e})")
    return 0


def cmd_curve(s: _Setup) -> int:
    basis_name = s.cfg.get("basis", "identity")
    curve = s.curve(basis_name, s.cfg.get("depths", range(1, 33)))
    write_csv(
        s.output("curve.csv"),
        s.meta(p=repr(curve.p)),
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


def cmd_correct(s: _Setup) -> int:
    result = s.correction
    p = s.spectrum.p
    meta = s.meta(p=repr(p))
    if result.rotation is not None:
        meta["rotation_angle"] = repr(result.rotation_angle)
        meta["rotation_axis"] = json.dumps([round(x, 12) for x in result.rotation_axis])
    fidelity = float(s.curve("corrected", [1]).fidelity[0])  # the gate-set circuit fidelity F_U(1)
    meta["circuit_fidelity_1"] = repr(fidelity)
    meta["incoherence_defect"] = repr(incoherence_defect(result.corrected_block))

    curve = s.curve("corrected", s.cfg.get("depths", range(1, 33)))
    p_power = p ** curve.depths.astype(float)
    resid = np.abs(curve.traceless_fidelity - p_power)
    write_csv(
        s.output("correct.csv"),
        meta,
        [
            ("m", list(curve.depths)),
            ("f_tr_corrected", list(curve.traceless_fidelity)),
            ("p_power", list(p_power)),
            ("abs_residual", list(resid)),
        ],
    )
    print(
        f"correction found: circuit fidelity F_U(1) {fidelity!r}, "
        f"max decay-law residual {resid.max():.3e}"
    )
    return 0


def cmd_rb(s: _Setup) -> int:
    spam = {} if s.cfg.get("spam") is None else s.cfg["spam"]
    if not isinstance(spam, dict):
        raise ConfigError(f"spam: expected an object with prep and meas channels, got {spam!r}")
    check_keys(spam, ("prep", "meas"), "spam", "spam.")
    prep = None if spam.get("prep") is None else field_channel("spam.prep", spam["prep"], s.dim)
    meas = None if spam.get("meas") is None else field_channel("spam.meas", spam["meas"], s.dim)
    sizes = {key: s.cfg[key] for key in ("depths", "sequences") if key in s.cfg}
    rb_cfg = RBConfig(**sizes, seed=s.seed, prep_noise=prep, meas_noise=meas)
    check_fit_depths(rb_cfg.depths)  # before any sequence is sampled
    table = run_rb(s.group, s.noisy, rb_cfg)
    fit = fit_decay(table)

    write_csv(
        s.output("rb_survival.csv"),
        s.meta(),
        [
            ("depth", [int(m) for m in table.depths for _ in range(rb_cfg.sequences)]),
            ("sequence", list(range(rb_cfg.sequences)) * table.depths.size),
            ("survival", list(table.survivals.T.ravel())),
        ],
    )
    lines = [
        f"rblab {__version__}",
        f"model: {model_summary(s.model)}",
        f"seed: {s.seed}",
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
        lines.append(f"{m},{_fmt(fit.mean_survival[di])},{_fmt(fit.residuals[di])}")
    write_text(s.output("rb_fit.txt"), "\n".join(lines) + "\n")
    print(f"fitted p = {fit.p!r}  95% interval {fit.p_interval}")
    if fit.flagged:
        print(f"fit flagged: {fit.message}")
    return 0


def cmd_fig_delta(s: _Setup) -> int:
    if "model" not in s.cfg:
        s.model = NoiseModel.z_tilt(0.1, cz_epsilon=0.1 if s.dim == 4 else 0.0)
    depths = range(1, integer("max_depth", s.cfg.get("max_depth", 30), 1, bounded=True) + 1)
    curve_i = s.curve("identity", depths)
    curve_u = s.curve("corrected", depths)
    infid_1 = 1.0 - curve_i.fidelity[0]
    p = s.spectrum.p
    write_csv(
        s.output("fig_delta.csv"),
        s.meta(p=repr(p)),
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


def cmd_fig_pbloch(s: _Setup) -> int:
    if "model" not in s.cfg:
        s.model = NoiseModel.over_rotation(0.1, cz_epsilon=0.1 if s.dim == 4 else None)
    # the log fits run over m = 5..10, so the curves must reach depth 10
    depths = range(1, integer("max_depth", s.cfg.get("max_depth", 12), 10, bounded=True) + 1)
    curves = {
        "identity": s.curve("identity", depths),
        "corrected": s.curve("corrected", depths),
        "corrected_sq": s.curve("corrected-squared", depths),
    }
    meta = s.meta(p=repr(s.spectrum.p))
    columns = [("m", list(curves["identity"].depths))]
    ms = curves["identity"].depths
    for name, curve in curves.items():
        try:
            slope, intercept = curve.log_fit(5, 10)
        except FitWindowError as exc:
            raise FitWindowError(f"frame {name}: {exc}") from exc
        meta[f"intercept_{name}"] = repr(float(intercept))
        meta[f"slope_{name}"] = repr(float(slope))
        fit_vals = 1.0 / s.dim + (intercept - 1.0 / s.dim) * np.exp(slope * ms.astype(float))
        columns.append((f"F_{name}", list(curve.fidelity)))
        columns.append((f"fit_{name}", list(fit_vals)))
    write_csv(s.output("fig_pbloch.csv"), meta, columns)
    print(
        "fig-pbloch written; intercepts: "
        + ", ".join(f"{n}={meta[f'intercept_{n}']}" for n in curves)
    )
    return 0


def cmd_fig_basis(s: _Setup) -> int:
    grid_cfg = s.cfg.get("theta_grid", [0.0, 0.3, 31])
    if not (isinstance(grid_cfg, list) and len(grid_cfg) == 3):
        raise ConfigError(f"theta_grid: expected [start, stop, num], got {grid_cfg!r}")
    start, stop = (finite("theta_grid", x) for x in grid_cfg[:2])
    thetas = np.linspace(start, stop, integer("theta_grid", grid_cfg[2], 1, bounded=True))
    cz_eps = finite("cz_epsilon", s.cfg.get("cz_epsilon", 0.1 if s.dim == 4 else 0.0))

    infid_i, infid_u, half_gap = [], [], []
    for theta in thetas:
        run = s.for_model(NoiseModel.z_tilt(float(theta), cz_epsilon=cz_eps))
        infid_i.append(1.0 - run.curve("identity", [1]).fidelity[0])
        infid_u.append(1.0 - run.curve("corrected", [1]).fidelity[0])
        half_gap.append((1.0 - run.spectrum.p) * (s.dim - 1.0) / s.dim)
    model = {"kind": "z_tilt", "theta_grid": list(grid_cfg), "cz_epsilon": cz_eps}
    write_csv(
        s.output("fig_basis.csv"),
        {"dim": s.dim, "seed": s.seed, "model": json.dumps(model)},
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
        return args.func(_Setup(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegimeError as exc:
        print(f"numerical regime error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
