"""In-memory span recording around rblab's public functions.

A span is (id, name, start, end, parent).  The benchmark opens spans around
its own calls; in a traced run it also replaces each public function listed in
LAYER_FUNCTIONS, in every loaded rblab module that refers to it, with a
wrapper that records a span, so calls rblab makes internally (for example
`correct_from_noisy_set` calling `optimize_correct`) nest correctly.  Nothing
under src/ changes.  The clock is CLOCK_MONOTONIC, which is shared by all
processes on the machine, so spans written by CLI child processes can be
merged into the parent's timeline.

Standard library only: the CLI child imports this before timing `import
rblab.cli`.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.monotonic

# span name -> (defining module, function).  `channels` is reached only
# through the others and gets no span of its own.
LAYER_FUNCTIONS = {
    "cliffords.generate": ("rblab.cliffords", "generate_clifford_group"),
    "cliffords.save": ("rblab.cliffords", "save_group"),
    "cliffords.load": ("rblab.cliffords", "load_group"),
    "noise.build": ("rblab.noise", "build_noisy_gateset"),
    "twirl.build": ("rblab.twirl", "build_twirl"),
    "twirl.spectrum": ("rblab.twirl", "dominant_spectrum"),
    "twirl.order4": ("rblab.twirl", "order_m_error_blocks"),
    "twirl.curve": ("rblab.twirl", "fidelity_curve_exact"),
    "twirl.radius": ("rblab.twirl", "nondominant_radius"),
    "correction.correct": ("rblab.correction", "correct_from_noisy_set"),
    "correction.optimize": ("rblab.correction", "optimize_correct"),
    "correction.polar": ("rblab.correction", "polar_correct"),
    "rb.run": ("rblab.rb", "run_rb"),
    "rb.fit": ("rblab.rb", "fit_decay"),
    "cli.main": ("rblab.cli", "main"),
}


class Tracer:
    """Collects spans and per-span attributes in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": clock(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock()
            self._stack.pop()

    def _wrapper(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = func(*args, **kwargs)
                annotate(name, record, args, kwargs, result)
                return result

        traced.__wrapped__ = func
        return traced

    def patch(self) -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever a loaded rblab module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("rblab") and m]
        for name, (mod_name, attr) in LAYER_FUNCTIONS.items():
            home = sys.modules.get(mod_name)
            original = getattr(home, attr, None) if home else None
            if original is None:
                continue
            wrapped = self._wrapper(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def dimension(args, kwargs, result) -> int | None:
    """The Hilbert-space dimension a call worked at, read off its result or arguments."""
    if isinstance(kwargs.get("dim"), int):
        return kwargs["dim"]
    for obj in (result, *args, *kwargs.values()):
        dim = getattr(obj, "dim", None)
        if isinstance(dim, int):
            return dim
    return None


def annotate(name: str, record: dict, args, kwargs, result) -> None:
    """Counts taken where the work happens, stored on the span."""
    record["dim"] = dimension(args, kwargs, result)
    if name == "correction.optimize":
        record["iterations"] = int(result.iterations)
        record["converged"] = bool(result.converged)
        record["start_index"] = int(result.start_index)
    elif name == "rb.fit":
        record["bootstrap_kept"] = int(result.bootstrap_samples)
        record["bootstrap_requested"] = int(kwargs.get("bootstrap", args[2] if len(args) > 2 else 200))
    elif name == "rb.run":
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        # one noisy transfer-matrix application per gate, inverse included
        record["gate_applications"] = int(config.sequences * sum(int(m) + 1 for m in config.depths))
    elif name == "noise.build":
        record["bytes"] = int(sum(op.mat.nbytes for op in result))
    elif name == "twirl.build":
        group = kwargs.get("group", args[0] if args else None)
        n_elems, n = len(group), group.dim ** 2
        # stacking G Pi_tr (n x n matmul per element) plus the (n^2 x N)(N x n^2) moment product
        record["flops"] = 2 * n_elems * n ** 3 + 2 * n_elems * n ** 4
        # operands and result of the moment product, 8-byte floats
        record["bytes"] = 8 * (2 * n_elems * n * n + n ** 4)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor, s["start"]), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def adopt(spans: list[dict], child: list[dict], parent_id: int) -> None:
    """Append spans recorded by a child process under one of this tracer's spans."""
    offset = len(spans)
    for s in child:
        s = dict(s)
        s["id"] += offset
        s["parent"] = parent_id if s["parent"] is None else s["parent"] + offset
        spans.append(s)
