"""Fixed-seed benchmark for rblab.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectral_d4 --seed 1 --seconds 12 --trace 0

Runs one workload (spectral_d4, spectral_d2, rb_d2 or cli, see README.md)
from the seed, checks every op's answers, and prints a summary followed by
one JSON line {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are BENCHMARK.json's end-to-end metrics; with --trace 1 they are
its per-layer metrics, from passes run with spans around rblab's public
functions.  The full record (environment, per-op answers and timings, every
metric with its sample count, spans) goes to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, clock, self_times

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = 1  # pinned: steadier on a shared machine, and no higher than nproc
KERNEL_STEPS = 3000  # reference kernel size, about 0.1 s
KERNEL_EVERY = 1.0  # seconds of op time between reference kernels
KERNEL_NOMINAL_S = 0.12  # reference kernel time that `setup_s` is scaled to
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CLI_COMMANDS = ("gen-group", "spectrum", "curve", "correct", "rb", "fig-delta", "fig-pbloch", "fig-basis")
LAYERS = ("cliffords", "noise", "twirl", "correction", "rb", "cli")


@dataclass
class Bench:
    root: Path
    work: Path
    seed: int
    smoke: bool
    child_env: dict
    tracer: Tracer | None = None


def median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "rblab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python loops (~0.1 s).

    It resembles rblab's inner loops (4x4 eigh, exponentials, Kronecker
    products) but runs no rblab code, so a change to rblab cannot move it;
    only the machine's speed can.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    t0 = clock()
    acc = 0.0
    for k in range(KERNEL_STEPS):
        w, v = np.linalg.eigh(h * (1.0 + 1e-3 * k))
        u = (v * np.exp(1j * w)) @ v.conj().T
        acc += float(np.real(np.trace(np.kron(u, u.conj()))))
    return clock() - t0


class Calibrator:
    """Times the reference kernel between ops, after every KERNEL_EVERY seconds of op time.

    Each op is calibrated by the mean of the kernel times just before and just
    after it, so `op_ref` follows the machine's speed at the time of the op.
    """

    def __init__(self):
        self.last = reference_kernel()
        self.pending: list[dict] = []
        self.since = 0.0

    def after_op(self, entry: dict, seconds: float) -> None:
        self.pending.append(entry)
        self.since += seconds
        if self.since >= KERNEL_EVERY:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        kernel = reference_kernel()
        for entry in self.pending:
            entry["kernel_s"] = (self.last + kernel) / 2
        self.last, self.pending, self.since = kernel, [], 0.0


def run_pass(workload, bench: Bench, index: int, tracer: Tracer | None,
             calibrator: Calibrator) -> list:
    """Run one pass of ops, timing each, with the reference kernel in between."""
    ops = workload.make_pass(index)
    raw = []
    span = tracer.span if tracer else (lambda *a, **k: nullcontext({}))
    bench.tracer = tracer
    if tracer is not None and workload.in_process:
        tracer.patch()
    try:
        with span("pass", index=index):
            for op in ops:
                with span("op", op=op.name):
                    t0 = clock()
                    try:
                        result, error = workload.run_op(op), None
                    except Exception as exc:  # an op that raises is counted as failed
                        result, error = None, "".join(traceback.format_exception_only(exc)).strip()
                    seconds = clock() - t0
                timing = {"seconds": seconds}
                raw.append((op, result, error, timing))
                calibrator.after_op(timing, seconds)
            calibrator.flush()
    finally:
        if tracer is not None:
            tracer.unpatch()
        bench.tracer = None
    return raw


def check_pass(workload, raw, index: int, traced: bool) -> list[dict]:
    records = []
    for op, result, error, timing in raw:
        record = {"pass": index, "traced": traced, "op": op.name, "params": op.params, **timing,
                  "answers": {}, "failed": False, "wrong": False, "reason": None}
        if error is not None:
            record.update(failed=True, reason=error)
        else:
            try:
                outcome = workload.check(op, result)
            except Exception as exc:  # a check that cannot read the answer counts as wrong
                record.update(failed=True, wrong=True, reason=f"check raised {exc!r}")
            else:
                record.update(answers=outcome.answers, failed=outcome.reason is not None,
                              wrong=outcome.wrong, reason=outcome.reason)
        records.append(record)
    return records


def run_setups(workload, bench: Bench, reps: int, tracer: Tracer | None,
               kernel: float) -> tuple[list[float], list[float]]:
    """Time each set-up, and the reference kernel after it; return both lists.

    `kernel` is a reference-kernel time taken just before the first set-up.
    Set-up i is calibrated by the mean of the kernels on either side of it.
    """
    times, kernels = [], []
    for _ in range(reps):
        bench.tracer = tracer
        if tracer is not None and workload.in_process:
            tracer.patch()
        t0 = clock()
        try:
            workload.setup()
        finally:
            times.append(clock() - t0)
            if tracer is not None:
                tracer.unpatch()
            bench.tracer = None
        after = reference_kernel()
        kernels.append((kernel + after) / 2)
        kernel = after
    return times, kernels


def measure(workload, bench: Bench, seconds: float, tracer: Tracer | None):
    """Repeat passes until the next would overrun `seconds` (at least the minimum).

    A pass's wall is the sum of its op times, so the reference kernel run
    between ops is not counted.  Traced runs alternate an untraced and a
    traced pass over the same inputs, so the difference of their walls is the
    tracing overhead.
    """
    walls = {False: [], True: []}
    records, pass_spans = [], []
    calibrator = Calibrator()
    start, index = clock(), 0
    while True:
        t0 = clock()
        # alternate which side of a traced pair runs first, so drift does not bias the overhead
        order = ((False, True) if index % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in order:
            first_span = len(tracer.spans) if tracer else 0
            raw = run_pass(workload, bench, index, tracer if traced else None, calibrator)
            walls[traced].append(sum(timing["seconds"] for *_, timing in raw))
            records += check_pass(workload, raw, index, traced)
            if traced:
                pass_spans.append((first_span, len(tracer.spans)))
        index += 1
        elapsed, last = clock() - start, clock() - t0
        min_passes = 1 if tracer else workload.min_passes
        if index >= min_passes and elapsed + last > seconds:
            return walls, records, pass_spans


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, setup_s: float, setup_raw: float, setup_n: int, walls, records) -> dict:
    plain = [r for r in records if not r["traced"]]
    times = sorted(r["seconds"] for r in plain)
    if workload.in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = max(r["answers"].get("maxrss_mb", 0.0) for r in plain)
    ratios = [r["answers"]["decay_resid_ratio"] for r in plain if "decay_resid_ratio" in r["answers"]]
    failed = sum(r["failed"] for r in plain)
    metrics = {
        "setup_s": (setup_s, "s", setup_n),
        "setup_raw_s": (setup_raw, "s", setup_n),
        # means over passes: single passes are skewed by data-dependent slow fits on rb_d2
        "wall_s": (sum(walls[False]) / len(walls[False]), "s", len(walls[False])),
        "wall_ref": (sum(r["seconds"] / r["kernel_s"] for r in plain) / len(walls[False]),
                     "ref", len(walls[False])),
        "op_s.p50": (median(times), "s", len(times)),
        "op_ref.p50": (median(r["seconds"] / r["kernel_s"] for r in plain), "ref", len(plain)),
        "kernel_s": (median(r["kernel_s"] for r in plain), "s", len(plain)),
        "peak_rss_mb": (peak, "MB", len(plain) if not workload.in_process else 1),
        "fail_ratio": (failed / len(plain), "ratio", len(plain)),
    }
    if len(times) >= 100:
        metrics["op_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s", len(times))
    if ratios:
        metrics["decay_resid_ratio.max"] = (max(ratios), "(1-p)^2", len(ratios))
    return metrics


def per_layer(workload, import_s, spans, n_setup, pass_spans, walls, records) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced set-ups and traced passes."""
    in_pass = [s for lo, hi in pass_spans for s in spans[lo:hi]]
    setup = spans[:n_setup]
    everything = setup + in_pass

    def named(name, pool):
        """Spans of one call at the largest dimension it ran at (the d=4 op of `cli`)."""
        found = [s for s in pool if s["name"] == name]
        top = max((s.get("dim") or 0 for s in found), default=0)
        return [s for s in found if (s.get("dim") or 0) == top]

    def durations(name, pool=everything):
        return [s["end"] - s["start"] for s in named(name, pool)]

    def attrs(name, key, pool=everything):
        return [s[key] for s in named(name, pool) if key in s]

    def med(name, pool=everything):
        return (median(durations(name, pool)), "s", len(durations(name, pool)))

    m = {}
    for metric, span in (
        ("correction.optimize_s", "correction.optimize"),
        ("correction.polar_s", "correction.polar"),
        ("twirl.spectrum_s", "twirl.spectrum"),
        ("twirl.curve_s", "twirl.curve"),
        ("twirl.order4_s", "twirl.order4"),
        ("twirl.build_s", "twirl.build"),
        ("twirl.radius_s", "twirl.radius"),
        ("noise.build_s", "noise.build"),
        ("rb.fit_s", "rb.fit"),
        ("rb.run_s", "rb.run"),
        ("cliffords.load_s", "cliffords.load"),
        ("cliffords.generate_s", "cliffords.generate"),
        ("cliffords.save_s", "cliffords.save"),
    ):
        m[metric] = med(span)

    iters = attrs("correction.optimize", "iterations")
    conv = attrs("correction.optimize", "converged")
    m["correction.iterations"] = (median(iters), "count", len(iters))
    m["correction.converged_ratio"] = (sum(conv) / len(conv) if conv else 0.0, "ratio", len(conv))

    gbytes = attrs("noise.build", "bytes")
    m["noise.gateset_bytes"] = (median(gbytes), "B", len(gbytes))
    flops = attrs("twirl.build", "flops")
    tbytes = attrs("twirl.build", "bytes")
    busy = sum(durations("twirl.build"))
    m["twirl.build_flops"] = (median(flops), "flop", len(flops))
    m["twirl.build_bytes"] = (median(tbytes), "B", len(tbytes))
    m["twirl.build_gflops"] = (sum(flops) / busy / 1e9 if busy else 0.0, "GFLOP/s", len(flops))

    kept = attrs("rb.fit", "bootstrap_kept")
    asked = attrs("rb.fit", "bootstrap_requested")
    m["rb.bootstrap_kept_ratio"] = (sum(kept) / sum(asked) if asked else 0.0, "ratio", len(asked))
    apps = attrs("rb.run", "gate_applications")
    m["rb.gate_applications"] = (median(apps), "count", len(apps))
    covers = [r["answers"]["interval_covers_p"] for r in records if "interval_covers_p" in r["answers"]]
    m["rb.interval_covers_ratio"] = (sum(covers) / len(covers) if covers else 0.0, "ratio", len(covers))

    imports = durations("cli.import")
    m["cli.import_s"] = (median(imports), "s", len(imports)) if imports else (import_s, "s", 1)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = med(f"cli.{cmd}", in_pass)

    # cache hits where users pay for them: the in-process set-up, or every CLI command
    pool = setup if workload.in_process else in_pass
    hits = sum(s["name"] == "cliffords.load" for s in pool)
    misses = sum(s["name"] == "cliffords.generate" for s in pool)
    m["cliffords.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio", hits + misses)
    m["cliffords.cache_bytes"] = (float(sum(p.stat().st_size for p in workload.cache_files())), "B", 1)

    m["trace.overhead_s"] = (median(walls[True]) - median(walls[False]), "s", len(walls[True]))
    own = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in in_pass:
        layer = s["name"].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += own[s["id"]]
    traced_wall = sum(walls[True])
    m["trace.accounted_ratio"] = (sum(layer_self.values()) / traced_wall, "ratio", len(walls[True]))
    accounting = {
        "layer_self_s": layer_self,
        "layer_self_total_s": sum(layer_self.values()),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": sum(walls[False]),
        "unaccounted_s": traced_wall - sum(layer_self.values()),
    }
    return m, accounting


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal op lists, one setup (for the smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "rblab" / "__init__.py").is_file():
        print(f"error: no rblab sources under {src}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    compileall.compile_dir(src, quiet=1)  # the build: later imports read bytecode
    sys.path.insert(0, str(src))
    t0 = clock()
    import rblab.cli  # noqa: F401  (timed: part of setup on in-process workloads)
    import_s = clock() - t0
    import rblab
    if src.resolve() not in Path(rblab.__file__).resolve().parents:
        print(f"error: imported rblab from {rblab.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(ROOT, WORK, args.seed, args.smoke, child_env)
    workload = WORKLOADS[args.workload](bench)
    trace = bool(args.trace)
    workload.prepare()

    tracer = Tracer() if trace else None
    import_kernel = reference_kernel()
    setup_times, setup_kernels = run_setups(workload, bench, 1 if args.smoke else 3, tracer,
                                            import_kernel)
    # set-up at the reference speed: raw seconds x KERNEL_NOMINAL_S / measured kernel seconds
    setup_ref = median(t / k for t, k in zip(setup_times, setup_kernels))
    setup_raw = median(setup_times)
    if workload.in_process:
        setup_ref += import_s / import_kernel
        setup_raw += import_s
    n_setup = len(tracer.spans) if tracer else 0

    walls, records, pass_spans = measure(workload, bench, args.seconds, tracer)
    metrics = end_to_end(workload, setup_ref * KERNEL_NOMINAL_S, setup_raw, len(setup_times),
                         walls, records)
    accounting = None
    if tracer:
        layer, accounting = per_layer(workload, import_s, tracer.spans, n_setup, pass_spans,
                                      walls, records)
        metrics.update(layer)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"], (0, m["unit"]))[1] != m["unit"]]
    missing += [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced or in another unit: {missing}", file=sys.stderr)
        return 1

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["wrong"] for r in records)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(ROOT),
        "computed_not_measured": ["noise.gateset_bytes", "twirl.build_flops", "twirl.build_bytes",
                                  "rb.gate_applications"],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "setup_samples_s": setup_times, "setup_kernels_s": setup_kernels,
        "import_s": import_s, "import_kernel_s": import_kernel, "pass_walls_s": {"plain": walls[False], "traced": walls[True]},
        "accounting": accounting, "correct": correct, "attempted": attempted, "failed": failed,
        "ops": records,
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if tracer:
        tracer.write(out_dir / f"{stem}-spans.json")

    for k, (v, u, n) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u:10s} n={n}")
    if accounting:
        print("self time by layer (traced passes): "
              + ", ".join(f"{k}={v:.4g}s" for k, v in accounting["layer_self_s"].items())
              + f"; traced wall {accounting['traced_wall_s']:.4g}s,"
              f" untraced wall {accounting['untraced_wall_s']:.4g}s")
    for r in records:
        if r["failed"]:
            print(f"FAILED {r['op']} (pass {r['pass']}{', traced' if r['traced'] else ''}): {r['reason']}")
    print(f"record: {out_dir / (stem + '.json')}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
