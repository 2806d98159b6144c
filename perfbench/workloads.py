"""The four workloads: inputs from the seed, the timed op, and the output checks.

Each workload exposes
- `prepare()`: untimed one-off work, such as filling a missing group cache;
- `setup()`: timed and repeated for `setup_s`;
- `make_pass(index)`: the fixed list of ops of one pass, drawn from the seed;
- `run_op(op)`: the timed call into rblab;
- `check(op, result)`: the answers to record and, if the op fails, why.

Library calls go through module attributes (`twirl.build_twirl`, not a
from-import) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rblab import cliffords, correction, noise, rb, twirl

from spans import adopt, clock

RB_DEPTHS = (1, 2, 4, 8, 16, 32, 64, 128)
ENVELOPE = 10.0  # the paper's corrected-basis envelope, in units of (1-p)^2
ENVELOPE_FLOOR = 1e-13  # (1-p)^2 floor for exactly solvable models, as in verify_decay_law
P_RTOL = 1e-10


@dataclass
class Op:
    name: str
    params: dict
    payload: object = None


@dataclass
class Outcome:
    """Answers of one op and, when it failed, the reason."""

    answers: dict = field(default_factory=dict)
    reason: str | None = None
    wrong: bool = False  # an answer was produced and is wrong (not merely an error)


def group_cache(bench, dim: int) -> Path:
    """Warm cache path, keyed by the source of rblab.cliffords."""
    key = hashlib.sha256(Path(cliffords.__file__).read_bytes()).hexdigest()[:12]
    return bench.work / "cache" / key / f"g{dim}.npz"


def ensure_group_cache(bench, dim: int) -> Path:
    path = group_cache(bench, dim)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"tmp-{os.getpid()}-g{dim}.npz")
        cliffords.save_group(cliffords.generate_clifford_group(dim), tmp)
        os.replace(tmp, path)
    return path


def reference_p(mat: np.ndarray) -> float:
    """Top real eigenvalue of the twirl by a dense eigensolve, independent of rblab's route."""
    evals = np.linalg.eigvals(mat)
    real = evals[np.abs(evals.imag) <= 1e-9 * np.maximum(1.0, np.abs(evals))]
    return float(real.real.max())


def spectral_outcome(p: float, mat: np.ndarray, depths, ftr_corrected) -> Outcome:
    p_ref = reference_p(mat)
    resid = float(np.max(np.abs(ftr_corrected - p ** np.asarray(depths, dtype=float))))
    ratio = resid / max((1.0 - p) ** 2, ENVELOPE_FLOOR)
    out = Outcome({"p": p, "p_ref": p_ref, "decay_resid": resid, "decay_resid_ratio": ratio})
    if abs(p - p_ref) > P_RTOL * abs(p_ref):
        out.reason, out.wrong = f"p={p!r} differs from eigvals reference {p_ref!r}", True
    elif ratio > ENVELOPE:
        out.reason, out.wrong = f"corrected residual {ratio:.3g} (1-p)^2 exceeds {ENVELOPE}", True
    return out


# ---------------------------------------------------------------------------
# In-process spectral workloads
# ---------------------------------------------------------------------------


class InProcess:
    """Shared parts of the in-process workloads: a warm group cache loaded in set-up."""

    in_process = True
    min_passes = 1
    dim = 2

    def __init__(self, bench):
        self.bench = bench

    def prepare(self):
        self.cache = ensure_group_cache(self.bench, self.dim)

    def setup(self):
        self.group = cliffords.load_group(self.cache)

    def cache_files(self) -> list[Path]:
        return [self.cache]

    def check(self, op: Op, result) -> Outcome:
        return spectral_outcome(*result)


class SpectralD4(InProcess):
    """Two-qubit chain: noisy set, twirl, spectrum, SU(4) correction, curves 1..128."""

    name = "spectral_d4"
    dim = 4
    min_passes = 2  # one op is ~10 s; two average out more of the machine's drift

    def make_pass(self, index: int) -> list[Op]:
        """One op per pass; the optimizer's work hardly varies with the model (~80k evaluations)."""
        rng = np.random.default_rng([self.bench.seed, index])
        angle, cz = (float(x) for x in rng.uniform(0.03, 0.1, size=2))
        if rng.integers(2):
            model = noise.NoiseModel.z_tilt(angle, cz_epsilon=cz)
        else:
            model = noise.NoiseModel.over_rotation(angle, cz_epsilon=cz)
        return [Op(model.kind, {"angle": angle, "cz_epsilon": cz}, model)]

    def run_op(self, op: Op):
        group = self.group
        noisy = noise.build_noisy_gateset(op.payload, group)
        tw = twirl.build_twirl(group, noisy)
        spectrum = twirl.dominant_spectrum(tw)
        u = correction.correct_from_noisy_set(group, noisy, spectrum=spectrum)
        depths = range(1, 129)
        twirl.fidelity_curve_exact(spectrum, np.eye(4, dtype=complex), depths)
        curve = twirl.fidelity_curve_exact(spectrum, u, depths)
        return spectrum.p, tw.mat, curve.depths, curve.traceless_fidelity


def d2_model(kind: str, rng: np.random.Generator) -> tuple[noise.NoiseModel, dict]:
    """One single-qubit model of the given kind at seeded strengths."""
    s = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    axis = [float(x) for x in rng.normal(size=3)]
    rot = {"channel": "rotation", "axis": axis, "angle": s(0.01, 0.1)}
    if kind == "z_tilt":
        model = noise.NoiseModel.z_tilt(s(0.02, 0.15))
    elif kind == "over_rotation":
        model = noise.NoiseModel.over_rotation(s(0.02, 0.15))
    elif kind == "left":
        model = noise.NoiseModel.left([rot, {"channel": "depolarizing", "q": s(0.99, 0.999)}])
    elif kind == "right":
        model = noise.NoiseModel.right([{"channel": "amplitude_damping", "gamma": s(0.001, 0.01)}, rot])
    elif kind == "sandwich":
        model = noise.NoiseModel.sandwich({"channel": "depolarizing", "q": s(0.99, 0.999)}, rot)
    elif kind == "composite":
        model = noise.NoiseModel.composite(
            [
                {"channel": "dephasing", "axis": "z", "q": s(0.99, 0.999)},
                {"channel": "rotation", "axis": "z", "angle": s(0.01, 0.05)},
                {"channel": "amplitude_damping", "gamma": s(0.0005, 0.005)},
                {"channel": "rotation", "axis": "x", "angle": s(0.005, 0.03)},
            ],
            side="left" if rng.integers(2) else "right",
        )
    elif kind == "conjugation":
        model = noise.NoiseModel.conjugation(noise.channel_from_spec(rot, 2))
        return model, {"kind": kind, "axis": axis, "angle": rot["angle"]}
    else:
        raise ValueError(kind)
    return model, {"kind": kind, **model.params}


class SpectralD2(InProcess):
    """Single-qubit figure-style ops: spectrum, polar correction, three curves 1..30."""

    name = "spectral_d2"
    kinds = ("z_tilt", "over_rotation", "left", "right", "sandwich", "composite", "conjugation")

    def __init__(self, bench):
        super().__init__(bench)
        self.ops_per_kind = 1 if bench.smoke else 40

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.bench.seed, index])
        kinds = [k for k in self.kinds for _ in range(self.ops_per_kind)]
        ops = []
        for i in rng.permutation(len(kinds)):
            model, params = d2_model(kinds[i], rng)
            ops.append(Op(kinds[i], params, model))
        return ops

    def run_op(self, op: Op):
        group = self.group
        noisy = noise.build_noisy_gateset(op.payload, group)
        tw = twirl.build_twirl(group, noisy)
        spectrum = twirl.dominant_spectrum(tw)
        u = correction.correct_from_noisy_set(group, noisy, spectrum=spectrum)
        depths = range(1, 31)
        twirl.fidelity_curve_exact(spectrum, np.eye(2, dtype=complex), depths)
        curve = twirl.fidelity_curve_exact(spectrum, u, depths)
        twirl.fidelity_curve_exact(spectrum, u @ u, depths)
        return spectrum.p, tw.mat, curve.depths, curve.traceless_fidelity


# ---------------------------------------------------------------------------
# In-process RB workload
# ---------------------------------------------------------------------------


def shipped_configs(bench, dim: int) -> list[Path]:
    return sorted((bench.root / "configs").glob(f"*_d{dim}.json"))


class RbD2(InProcess):
    """Monte-Carlo RB plus bootstrap fit on every shipped single-qubit config."""

    name = "rb_d2"
    bootstrap = 200

    def __init__(self, bench):
        super().__init__(bench)
        self.sequences = 20 if bench.smoke else 200

    def prepare(self):
        super().prepare()
        self.configs = shipped_configs(self.bench, 2)
        if not self.configs:
            raise FileNotFoundError(f"no *_d2.json configs under {self.bench.root / 'configs'}")
        if self.bench.smoke:
            self.configs = self.configs[:2]

    def setup(self):
        """Load the group, build each config's noisy set and its spectral p."""
        super().setup()
        self.models = {}
        for path in self.configs:
            model = noise.NoiseModel.from_config(json.loads(path.read_text())["model"], 2)
            noisy = noise.build_noisy_gateset(model, self.group)
            p = twirl.dominant_spectrum(twirl.build_twirl(self.group, noisy)).p
            self.models[path.stem] = (noisy, p)

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.bench.seed, index])
        names = list(self.models)
        with_spam = set(rng.permutation(names)[: len(names) // 2].tolist())
        ops = []
        for i in rng.permutation(len(names)):
            name = names[i]
            params = {"config": name, "rb_seed": int(rng.integers(2**31))}
            if name in with_spam:
                params["prep_q"] = float(rng.uniform(0.98, 0.995))
                params["meas_q"] = float(rng.uniform(0.97, 0.99))
            ops.append(Op(name, params))
        return ops

    def run_op(self, op: Op):
        noisy, p = self.models[op.name]
        spam = {
            f"{side}_noise": noise.depolarizing(op.params[f"{side}_q"], 2)
            for side in ("prep", "meas")
            if f"{side}_q" in op.params
        }
        config = rb.RBConfig(
            depths=RB_DEPTHS, sequences=self.sequences, seed=op.params["rb_seed"], **spam
        )
        table = rb.run_rb(self.group, noisy, config)
        return p, rb.fit_decay(table, dim=2, bootstrap=self.bootstrap)

    def check(self, op: Op, result) -> Outcome:
        p, fit = result
        lo, hi = fit.p_interval
        out = Outcome(
            {
                "p": p,
                "fit_p": fit.p,
                "fit_interval": [lo, hi],
                "bootstrap_kept": fit.bootstrap_samples,
                "flagged": fit.flagged,
                "interval_covers_p": bool(lo <= p <= hi),
            }
        )
        if not np.isfinite([fit.p, lo, hi]).all() or fit.flagged:
            out.reason, out.wrong = f"fit NaN or flagged: {fit.message}", True
        elif fit.bootstrap_samples < self.bootstrap / 2:
            out.reason, out.wrong = f"kept {fit.bootstrap_samples} of {self.bootstrap} resamples", True
        return out


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    out_dir: Path
    log: Path
    maxrss_mb: float
    spans: list | None
    cache_state: dict | None = None


def file_digests(directory: Path) -> dict[str, str]:
    if not directory.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def read_csv(path: Path) -> tuple[dict, dict]:
    meta, rows, header = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if sep:
                meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, {name: [row[i] for row in rows] for i, name in enumerate(header or [])}


class Cli:
    """Every subcommand on every shipped d=2 config, the figures, and d=4 spectrum."""

    name = "cli"
    in_process = False
    min_passes = 2  # later passes are compared with the first

    def __init__(self, bench):
        self.bench = bench
        self.dir = bench.work / "cli"
        self.setups = 0
        self.first_outputs: dict[str, tuple] = {}  # op name -> (exit code, output digests)
        self.p_refs: dict[str, float] = {}
        self.groups: dict[int, object] = {}

    def prepare(self):
        self.configs = shipped_configs(self.bench, 2)
        self.config_d4 = self.bench.root / "configs" / "ztilt_d4.json"
        if not self.configs or not self.config_d4.exists():
            raise FileNotFoundError(f"shipped configs missing under {self.bench.root / 'configs'}")
        if self.bench.smoke:
            self.configs = [c for c in self.configs if c.stem in ("relabeling_d2", "ztilt_d2")]
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        rng = np.random.default_rng(self.bench.seed)
        self.seed = int(rng.integers(2**31))
        # gen-group reads only `dim` from a config, so one config per run covers it
        self.gen_group_config = self.configs[int(rng.integers(len(self.configs)))]

    def command(self, args: list[str], out_dir: Path) -> CliResult:
        """Run one CLI command to completion; only this is timed for an op."""
        out_dir.mkdir(parents=True, exist_ok=True)
        log = out_dir / "stdout.log"
        spans_path = out_dir / "spans.json"
        if self.bench.tracer is not None:
            argv = [sys.executable, str(self.bench.root / "perfbench" / "cli_child.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "rblab.cli"]
        with open(log, "wb") as fh:
            proc = subprocess.Popen(argv + args, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.bench.child_env, cwd=self.bench.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
        return CliResult(proc.returncode, out_dir, log, usage.ru_maxrss / 1024.0, spans)

    def setup(self):
        """Cold gen-group into fresh d=2 and d=4 caches, as a first-time user would."""
        self.setups += 1
        cache_dir = self.dir / f"setup-{self.setups}"
        self.caches = {dim: cache_dir / f"g{dim}.npz" for dim in (2, 4)}
        for dim, path in self.caches.items():
            args = ["gen-group", "--dim", str(dim), "--group-cache", str(path)]
            result = self.timed_command("gen-group", args, cache_dir / f"gen-group-{dim}")
            if result.returncode != 0:
                raise RuntimeError(f"cold gen-group --dim {dim} exited {result.returncode}")
        self.cache_stat0 = self.cache_state()

    def cache_files(self) -> list[Path]:
        return list(self.caches.values())

    def timed_command(self, name: str, args: list[str], out_dir: Path) -> CliResult:
        tracer = self.bench.tracer
        if tracer is None:
            return self.command(args, out_dir)
        with tracer.span(f"cli.{name}") as record:
            result = self.command(args, out_dir)
        if result.spans:
            adopt(tracer.spans, result.spans, record["id"])
        return result

    def make_pass(self, index: int) -> list[Op]:
        ops = []
        cfg = self.gen_group_config
        ops.append(Op(f"gen-group:{cfg.stem}", {"command": "gen-group", "config": cfg.name, "dim": 2}))
        for cfg in self.configs:
            for cmd in ("spectrum", "curve", "correct", "rb"):
                ops.append(Op(f"{cmd}:{cfg.stem}", {"command": cmd, "config": cfg.name, "dim": 2}))
        for cmd in ("fig-delta", "fig-pbloch", "fig-basis"):
            ops.append(Op(cmd, {"command": cmd, "dim": 2}))
        ops.append(Op("spectrum:ztilt_d4", {"command": "spectrum", "config": self.config_d4.name, "dim": 4}))
        rng = np.random.default_rng([self.bench.seed, index])
        self.pass_dir = self.dir / f"pass-{index}-{'traced' if self.bench.tracer else 'plain'}"
        return [ops[i] for i in rng.permutation(len(ops))]

    def run_op(self, op: Op) -> CliResult:
        p = op.params
        args = [p["command"]]
        if "config" in p:
            args += ["--config", str(self.bench.root / "configs" / p["config"])]
        else:
            args += ["--dim", str(p["dim"])]
        out_dir = self.pass_dir / op.name.replace(":", "-")
        args += ["--out", str(out_dir), "--seed", str(self.seed),
                 "--group-cache", str(self.caches[p["dim"]])]
        result = self.timed_command(p["command"], args, out_dir)
        result.cache_state = self.cache_state()
        return result

    def cache_state(self) -> dict:
        return {dim: (s.st_ino, s.st_mtime_ns, s.st_size)
                for dim, path in self.caches.items() for s in [path.stat()]}

    def check(self, op: Op, result: CliResult) -> Outcome:
        digests = file_digests(result.out_dir)
        for name in ("stdout.log", "spans.json"):
            digests.pop(name, None)
        out = Outcome({"returncode": result.returncode, "digests": digests,
                       "maxrss_mb": result.maxrss_mb})
        first = self.first_outputs.setdefault(op.name, (result.returncode, digests))
        if result.returncode != 0:
            tail = result.log.read_text(errors="replace").strip().splitlines()[-1:]
            out.reason = f"exit {result.returncode}: {' '.join(tail)}"
        elif first != (result.returncode, digests):
            out.reason, out.wrong = "outputs differ from the first pass", True
        elif result.cache_state != self.cache_stat0:
            out.reason, out.wrong = "group cache was rewritten", True
        elif op.params["command"] == "correct":
            meta, cols = read_csv(result.out_dir / "correct.csv")
            p = float(meta["p"])
            ratio = max(float(x) for x in cols["abs_residual"]) / max((1.0 - p) ** 2, ENVELOPE_FLOOR)
            out.answers.update({"p": p, "decay_resid_ratio": ratio})
            if ratio > ENVELOPE:
                out.reason, out.wrong = f"corrected residual {ratio:.3g} (1-p)^2 exceeds {ENVELOPE}", True
        elif op.params["command"] == "spectrum":
            meta, cols = read_csv(result.out_dir / "spectrum.csv")
            p = float(cols["p"][0])
            p_ref = self.reference_p(op.params)
            out.answers.update({"p": p, "p_ref": p_ref})
            if abs(p - p_ref) > P_RTOL * abs(p_ref):
                out.reason, out.wrong = f"p={p!r} differs from eigvals reference {p_ref!r}", True
        return out

    def reference_p(self, params: dict) -> float:
        key = params["config"]
        if key not in self.p_refs:
            dim = params["dim"]
            if dim not in self.groups:
                self.groups[dim] = cliffords.load_group(self.caches[dim])
            group = self.groups[dim]
            cfg = json.loads((self.bench.root / "configs" / key).read_text())
            model = noise.NoiseModel.from_config(cfg["model"], dim)
            mat = twirl.build_twirl(group, noise.build_noisy_gateset(model, group)).mat
            self.p_refs[key] = reference_p(mat)
        return self.p_refs[key]


WORKLOADS = {w.name: w for w in (SpectralD4, SpectralD2, RbD2, Cli)}
