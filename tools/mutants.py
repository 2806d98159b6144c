"""Mutation gate: every listed source mutation must make the tier-1 suite fail.

    python3 tools/mutants.py

Each mutant is an exact `(file, old text, new text)` edit.  Before anything
runs, every `old` must occur exactly once in its file, or the script exits 2
naming the mutant.  Then, one mutant at a time, it copies `src/`, `tests/`,
`configs/` and `pyproject.toml` into a temporary directory, applies the edit
there and runs pytest with `PYTHONPATH=src`.  A failing run (or one that
exceeds TIMEOUT_S) kills the mutant.  It prints one line per mutant and exits
1 naming every survivor, 0 when all are killed.

The kill map `tools/mutant_kills.json` holds, per mutant, the node id of the
test that killed it last and whether that is a hypothesis test.  A mutant
with an entry runs that test alone first; it is killed there only if the
test fails (or exceeds TIMEOUT_S).  When the test passes or no longer exists,
or the map has no entry, the whole suite runs with `-x`, as it would with no
map, so a survivor is always one that passed the whole suite.  After the run the
script rewrites the map with each mutant's killing test, the first failure
of its deciding run, and drops the entries of mutants no longer listed;
nothing else is written into the repository.  The map was seeded with each
mutant's first failing test outside the hypothesis tests, in file order;
only where none fails does it name a hypothesis test (`"hypothesis": true`).
The 100 mutants took about 3 minutes in all on a shared 2-vCPU machine
with the map (180 s, nothing else running); with hypothesis shrinking on,
its two hypothesis-killed mutants took 41 s instead of 5 (65 mutants took
about 6 minutes without the map), which is why it is not part of tier-1.

Dropped with the code they mutated: "order-m left block from the transpose"
and "order-m right block without the transpose" mutated
`order_m_error_blocks`, which left `src/` for `tests/reference.py` when the
correction started reading the asymptotic right error operator instead of
the order-4 block.  "twirl helper half empty" mutated the helper thread's
slice of noisy entries, which left when `build_twirl` began running its two
entry chunks in turn on the calling thread; "twirl entry chunk half skipped"
mutates each chunk in its place.  The six mutants of the hand-written PCG64
draw ("draw words high half first", "every drawn word accepted", "draw fast
path ignores rejections", "first PCG64 seeding step skipped", "every depth
seeded with the first depth's m" and "128-bit carry dropped") left with it
when each depth began drawing from numpy's own generator; "draw seeded
without the depth" and "rows and depths swapped" mutate that draw.

Left out as equivalent:

- `t.T.dot(v)` for `t.dot(v)` in `twirl.fidelity_curve_exact`.  Each f_tr(m)
  is the scalar u^T T^m u, which equals its own transpose u^T (T^T)^m u, so
  the curve is the same up to rounding.
- `ks = slice(0, n)` plus `moments[:, 0] = 0.0` for `ks = slice(1, n)` in
  `twirl.build_twirl`: zeroing the moments' row j = 0 instead of leaving
  out column k = 0, that is `Pi_tr G` for `G Pi_tr`.  The coset columns
  are exact signed permutations scattered from the table, and each maps the
  identity Pauli to itself, so its row 0 and column 0 are exactly `e0`: the
  extra k = 0 product is exact zeros off row j = 0, the mutant zeroes that
  row, and row j = 0 of every other k is exact zeros already.  The twirl is
  equal bit for bit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml")
TIMEOUT_S = 600
KILLS = ROOT / "tools" / "mutant_kills.json"  # mutant name -> the test that killed it last

# a pytest plugin: writes the first failed test (or collection) to $RBLAB_KILL_RECORD,
# with whether it is a hypothesis test; and loads, before any test module is imported,
# a hypothesis profile without the shrink phase, since shrinking only minimises an
# example that has already failed and so never changes a verdict
RECORDER = """
import json, os, pytest
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("mutants")

def _record(nodeid, hypothesis):
    path = os.environ["RBLAB_KILL_RECORD"]
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump({"test": nodeid, "hypothesis": bool(hypothesis)}, fh)

@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.failed:
        _record(item.nodeid, getattr(getattr(item, "obj", None), "is_hypothesis_test", False))
    return report

def pytest_collectreport(report):
    if report.failed:
        _record(report.nodeid, False)
"""

# name -> (file, old text, new text)
MUTANTS = {
    "twirl transpose dropped": (
        "src/rblab/twirl.py",
        ".transpose(1, 2, 0, 3)",
        ".transpose(1, 0, 2, 3)",
    ),
    "Pi_tr not applied to the moments": (
        "src/rblab/twirl.py",
        "ks = slice(1, n)",
        "ks = slice(0, n)",
    ),
    # the coset route of the twirl
    "Pauli signs dropped": (
        "src/rblab/cliffords.py",
        "np.sign(self.table[paulis]).T.astype(float)",
        "np.abs(np.sign(self.table[paulis])).T.astype(float)",
    ),
    "coset block shifted by one": (
        "src/rblab/twirl.py",
        "blk = slice(lo, lo + _COSET_BLOCK)",
        "blk = slice(lo + 1, lo + 1 + _COSET_BLOCK)",
    ),
    "twirl entry chunk half skipped": (
        "src/rblab/twirl.py",
        "lm = slice(first, first + _ENTRY_BLOCK)",
        "lm = slice(first, first + _ENTRY_BLOCK // 2)",
    ),
    "compose_rows operands swapped": (
        "src/rblab/cliffords.py",
        "    cols = np.abs(a).astype(np.intp) - 1\n"
        "    return np.take_along_axis(b, cols, axis=-1) * np.sign(a)",
        "    cols = np.abs(b).astype(np.intp) - 1\n"
        "    return np.take_along_axis(a, cols, axis=-1) * np.sign(b)",
    ),
    "unitary_to_superop adjoint": (
        "src/rblab/channels.py",
        "conj = u @ paulis @ u.conj().T",
        "conj = u.conj().T @ paulis @ u",
    ),
    # the first transfer matrix built for each shape, returned for every later unitary of it
    "transfer-matrix cache keyed on shape alone": (
        "src/rblab/channels.py",
        "return _transfer(u.shape, u.tobytes())",
        "return unitary_to_superop.__dict__.setdefault(u.shape, _transfer(u.shape, u.tobytes()))",
    ),
    "over_rotation cz_epsilon default 0": (
        "src/rblab/noise.py",
        'cz_offset=number("cz_epsilon", absent=eps)',
        'cz_offset=number("cz_epsilon", absent=0.0)',
    ),
    "gradient sign flipped": (
        "src/rblab/correction.py",
        'grad = scale * np.einsum("lab,ba->l", consts, m)',
        'grad = -scale * np.einsum("lab,ba->l", consts, m)',
    ),
    "structure constants transposed": (
        "src/rblab/correction.py",
        'consts = -np.einsum("kca,lajc->lkj", gens, comm).imag / dim',
        'consts = -np.einsum("kca,lajc->ljk", gens, comm).imag / dim',
    ),
    "Newton finish not converged": (
        "src/rblab/correction.py",
        "converged = w[-1] < -_GRAD_TOL and np.linalg.norm(grad) < _GRAD_TOL",
        "converged = False",
    ),
    "no-ascent branch converged without a strict maximum": (
        "src/rblab/correction.py",
        "            break  # no step raises f at float resolution",
        "            converged = True\n            break",
    ),
    "line search accepts a flat step": (
        "src/rblab/correction.py",
        "if new_value > value or",
        "if new_value >= value or",
    ),
    "Newton step sign flipped": (
        "src/rblab/correction.py",
        "step = v @ ((v.T @ grad)",
        "step = -v @ ((v.T @ grad)",
    ),
    "strict maximum read off the smallest Hessian eigenvalue": (
        "src/rblab/correction.py",
        "converged = w[-1] < -_GRAD_TOL",
        "converged = w[0] < -_GRAD_TOL",
    ),
    "curvature sign kept in the step": (
        "src/rblab/correction.py",
        "np.maximum(np.abs(w), _CURVATURE_FLOOR)",
        "np.maximum(w, _CURVATURE_FLOOR)",
    ),
    "Hessian left unsymmetrised": (
        "src/rblab/correction.py",
        "0.5 * scale * (h + h.T)",
        "scale * h",
    ),
    "start off identity": (
        "src/rblab/correction.py",
        "_ascend(q, np.eye(dim, dtype=complex))",
        "_ascend(q, pulse(np.tensordot(np.full(dim**2 - 1, 0.3), pauli_basis(dim)[1:], axes=1), 2.0))",
    ),
    # the pulse table
    "z-tilt on the other qubit": (
        "src/rblab/noise.py",
        '"x1": (np.kron(SIGMA_X, SIGMA_I), np.kron(SIGMA_Z, SIGMA_I)),',
        '"x1": (np.kron(SIGMA_X, SIGMA_I), np.kron(SIGMA_I, SIGMA_Z)),',
    ),
    "z-tilt before the pulse": (
        "src/rblab/noise.py",
        "turn(z, tilt) @ turn(h, np.pi / 2)",
        "turn(h, np.pi / 2) @ turn(z, tilt)",
    ),
    "CZ takes the single-qubit offset": (
        "src/rblab/noise.py",
        "turn(h, np.pi / 2 + cz_offset)",
        "turn(h, np.pi / 2 + offset)",
    ),
    # the corrected frame of the CLI curves
    "corrected frame is the identity": (
        "src/rblab/cli.py",
        'frame = u if basis == "corrected" else u @ u',
        'frame = np.eye(self.dim, dtype=complex) if basis == "corrected" else u @ u',
    ),
    "corrected frame is U^2": (
        "src/rblab/cli.py",
        'frame = u if basis == "corrected" else u @ u',
        'frame = u @ u if basis == "corrected" else u @ u',
    ),
    "corrected frame is U'": (
        "src/rblab/cli.py",
        'frame = u if basis == "corrected" else u @ u',
        'frame = u.conj().T if basis == "corrected" else u @ u',
    ),
    # the RB sampler and decay fit
    "grid screen picks the worst p": (
        "src/rblab/rb.py",
        "k = explained.argmax(axis=-1)",
        "k = explained.argmin(axis=-1)",
    ),
    "bisection direction swapped": (
        "src/rblab/rb.py",
        ".sum(axis=-1) > 0",
        ".sum(axis=-1) < 0",
    ),
    "uncentred fit derivative": (
        "src/rblab/rb.py",
        "(res * (dx - dx.sum(axis=-1, keepdims=True) / count))",
        "(res * dx)",
    ),
    "9-point grid": (
        "src/rblab/rb.py",
        "_GRID_POINTS = 1025",
        "_GRID_POINTS = 9",
    ),
    "10 bisection steps": (
        "src/rblab/rb.py",
        "_STEPS = 38",
        "_STEPS = 10",
    ),
    "no bound tolerance": (
        "src/rblab/rb.py",
        "_BOUND_TOL = 1e-6",
        "_BOUND_TOL = 0.0",
    ),
    "batched final dot": (
        "src/rblab/rb.py",
        "table[:, di] = (mu @ vecs)[:, 0]",
        "table[:, di] = vecs[:, :, 0] @ mu",
    ),
    "no flat rule": (
        "src/rblab/rb.py",
        "flat = np.ptp(y, axis=-1) <= _FLAT_TOL",
        "flat = np.ptp(y, axis=-1) < 0",
    ),
    "transposed resample draw": (
        "src/rblab/rb.py",
        "size=(bootstrap, n_depths, n_seq))",
        "size=(bootstrap, n_seq, n_depths)).transpose(0, 2, 1)",
    ),
    # the sequence draw: one generator per depth, one row per sequence
    "draw seeded without the depth": (
        "src/rblab/rb.py",
        "np.random.default_rng([config.seed, m])",
        "np.random.default_rng(config.seed)",
    ),
    "rows and depths swapped": (
        "src/rblab/rb.py",
        "size=(config.sequences, m))",
        "size=(m, config.sequences)).T",
    ),
    # a mutant that lifts the cap would run the CLI's over-cap configs in full
    "RB work cap one short": (
        "src/rblab/rb.py",
        "if work > MAX_APPLICATIONS:",
        "if work >= MAX_APPLICATIONS:",
    ),
    # the figure output caps, checked at the cap itself with the cap monkeypatched to 11
    "fig-delta row cap one short": (
        "src/rblab/cli.py",
        'capped("max_depth", s.cfg.get("max_depth", 30), 1, MAX_ROWS, "rows")',
        'capped("max_depth", s.cfg.get("max_depth", 30), 1, MAX_ROWS - 1, "rows")',
    ),
    "fig-basis angle cap one short": (
        "src/rblab/cli.py",
        'capped("theta_grid", grid_cfg[2], 1, MAX_ANGLES, "angles")',
        'capped("theta_grid", grid_cfg[2], 1, MAX_ANGLES - 1, "angles")',
    ),
    # the channel-spec table and the models' dimension rules
    "one-qubit channel at any dimension": (
        "src/rblab/noise.py",
        '"amplitude_damping": (("gamma",), 2,',
        '"amplitude_damping": (("gamma",), None,',
    ),
    "kron at any dimension": (
        "src/rblab/noise.py",
        '(("first", "second"), 4, _kron)',
        '(("first", "second"), None, _kron)',
    ),
    "rotation axis defaults to x": (
        "src/rblab/noise.py",
        'rotation(s.get("axis", "z")',
        'rotation(s.get("axis", "x")',
    ),
    "dephasing axis defaults to x": (
        "src/rblab/noise.py",
        'dephasing(finite("q", s["q"]), s.get("axis", "z"))',
        'dephasing(finite("q", s["q"]), s.get("axis", "x"))',
    ),
    "relabeling at any dimension": (
        "src/rblab/noise.py",
        '"relabeling": ((), 2,',
        '"relabeling": ((), None,',
    ),
    "rotation at any dimension": (
        "src/rblab/noise.py",
        '"rotation": (("axis", "angle"), 2,',
        '"rotation": (("axis", "angle"), None,',
    ),
    "conjugation frame unchecked": (
        "src/rblab/noise.py",
        "check_unitary(frame.mat)",
        "frame.mat",
    ),
    "composite always on the right": (
        "src/rblab/noise.py",
        'NoiseModel(side, {"error"',
        'NoiseModel("right", {"error"',
    ),
    "unknown axis name unchecked": (
        "src/rblab/noise.py",
        "if axis not in named:",
        "if False:",
    ),
    "kron half not named": (
        "src/rblab/noise.py",
        "field_channel(key, spec[key], 2)",
        "channel_from_spec(spec[key], 2)",
    ),
    # the one input boundary: a depth grid, sequences and seed are checked once, in noise.py
    "depth bound off by one": (
        "src/rblab/noise.py",
        "if max(ends) >= WORD_END:",
        "if max(ends) > WORD_END:",
    ),
    "uint32 bound off by one": (
        "src/rblab/noise.py",
        "WORD_END = 2**32",
        "WORD_END = 2**32 + 1",
    ),
    "sequences bound off by one": (
        "src/rblab/noise.py",
        "if bounded and value >= WORD_END:",
        "if bounded and value > WORD_END:",
    ),
    "bool or float depth accepted": (
        "src/rblab/noise.py",
        "all(_integral(m) for m in depths)",
        "all(isinstance(m, (int, float, np.integer)) for m in depths)",
    ),
    "range checked at its start only": (
        "src/rblab/noise.py",
        "ends = [depths[0], depths[-1]]",
        "ends = [depths[0]]",
    ),
    "integer array checked at its maximum only": (
        "src/rblab/noise.py",
        "ends = [depths.min(), depths.max()]",
        "ends = [depths.max()]",
    ),
    "ideal product folded left to right": (
        "src/rblab/cliffords.py",
        "for j in range(offsets.shape[1] - 1, -1, -1):",
        "for j in range(offsets.shape[1]):",
    ),
    "signed slot drops the sign": (
        "src/rblab/cliffords.py",
        "slots[:, :n] = -self.table[:, ::-1]",
        "slots[:, :n] = self.table[:, ::-1]",
    ),
    "closure digest not checked": (
        "src/rblab/cliffords.py",
        "if digest.hexdigest() != CLOSURE_DIGEST.get(dim):",
        "if False:",
    ),
    "sequence composition reversed": (
        "src/rblab/cliffords.py",
        "out = mats.take(col, axis=0) @ out",
        "out = out @ mats.take(col, axis=0)",
    ),
    "noisy stack trace row unchecked": (
        "src/rblab/channels.py",
        "diff = mats[..., 0, :] - row",
        "diff = mats.reshape(-1, n, n)[0, 0] - row",
    ),
    "trace check forgives a NaN": (
        "src/rblab/channels.py",
        "if not dev <= STRUCT_TOL:",
        "if dev > STRUCT_TOL:",
    ),
    # the ideal float matrices are one exact scatter of the table; only noisy generators are replayed
    "scatter drops the signs": (
        "src/rblab/cliffords.py",
        "np.sign(rows[..., None]), axis=-1)",
        "np.abs(np.sign(rows[..., None])), axis=-1)",
    ),
    "scatter swaps row and column": (
        "src/rblab/cliffords.py",
        "np.sign(rows[..., None]), axis=-1)\n        return out",
        "np.sign(rows[..., None]), axis=-1)\n        return out.swapaxes(-1, -2)",
    ),
    "coset columns untransposed": (
        "src/rblab/cliffords.py",
        "self.transfer_mats(reps).transpose(2, 1, 0)",
        "self.transfer_mats(reps).transpose(1, 2, 0)",
    ),
    "fixed-channel kinds replay the ideal pulses": (
        "src/rblab/noise.py",
        'if "gens" in fixed else group.transfer_mats()',
        'if "gens" in fixed else group.replay(generator_mats(group.dim))',
    ),
    "replay chunk crosses a level end": (
        "src/rblab/cliffords.py",
        "stop = min(start + _REPLAY_BLOCK, int(np.searchsorted(self.parents, start)))",
        "stop = min(start + _REPLAY_BLOCK, len(self))",
    ),
    "noisy-generator kinds read the exact stack": (
        "src/rblab/noise.py",
        'group.replay(fixed["gens"]) if "gens" in fixed else',
        'group.transfer_mats() if "gens" in fixed else',
    ),
    "noisy stack left writable": (
        "src/rblab/noise.py",
        "        mats.setflags(write=False)\n        object.__setattr__(self, \"mats\", mats)",
        "        object.__setattr__(self, \"mats\", mats)",
    ),
    "indices trusts the slot without the full-row check": (
        "src/rblab/cliffords.py",
        "if not np.array_equal(self.table[idx], rows):",
        "if False:",
    ),
    "d=4 key without the second qubit's Z": (
        "src/rblab/cliffords.py",
        "4: [4, 12, 1, 3]",
        "4: [4, 12, 1]",
    ),
    "closure keeps new candidates in key order": (
        "src/rblab/cliffords.py",
        "new = np.sort(new[~seen[keys[new]]])",
        "new = new[~seen[keys[new]]]",
    ),
    # the one correction entry point and its polar split
    "polar corrected block without the transpose": (
        "src/rblab/correction.py",
        "corrected = block @ v_tr.T",
        "corrected = block @ v_tr",
    ),
    "polar lifts the rotation, not its inverse": (
        "src/rblab/correction.py",
        "unitary=lift_rotation(v_tr.T),",
        "unitary=lift_rotation(v_tr),",
    ),
    "d=2 dispatched to the ascent": (
        "src/rblab/correction.py",
        "if spectrum.dim == 2 else",
        "if spectrum.dim == 3 else",
    ),
    "correction reads the left error operator": (
        "src/rblab/correction.py",
        "spectrum.right_error_op[1:, 1:]",
        "spectrum.left_error_op[1:, 1:]",
    ),
    "block not oriented by its determinant": (
        "src/rblab/correction.py",
        "    if np.linalg.det(block) < 0:\n        block = -block",
        "    if False:\n        block = -block",
    ),
    "F_U reported at depth 2": (
        "src/rblab/cli.py",
        's.curve("corrected", [1]).fidelity[0]',
        's.curve("corrected", [2]).fidelity[0]',
    ),
    # the error policy: every regime error exits 3
    "singular block not a regime error": (
        "src/rblab/correction.py",
        "class SingularBlockError(RegimeError):",
        "class SingularBlockError(ValueError):",
    ),
    # the log fit's window check
    "log_fit window check off": (
        "src/rblab/twirl.py",
        "        if low.size:\n            raise FitWindowError(",
        "        if False:\n            raise FitWindowError(",
    ),
    # the spectral core: the dominant eigenpair, its error operators and the curves
    "right error operator from the right vector": (
        "src/rblab/twirl.py",
        "right_error_op=_fix_eigenop(unvec(left).T, pi),",
        "right_error_op=_fix_eigenop(unvec(right).T, pi),",
    ),
    "decay amplitude with U^T": (
        "src/rblab/twirl.py",
        "hs_inner(us, self.left_error_op)",
        "hs_inner(us.T, self.left_error_op)",
    ),
    "nondominant radius is the dominant one": (
        "src/rblab/twirl.py",
        "return float(np.abs(evals[order[1]]))",
        "return float(np.abs(evals[order[0]]))",
    ),
    "error operators oriented against Pi_tr": (
        "src/rblab/twirl.py",
        "if overlap < 0 or",
        "if overlap > 0 or",
    ),
    "zero-overlap orientation left to the start": (
        "src/rblab/twirl.py",
        " or (overlap == 0 and op.flat[np.argmax(np.abs(op))] < 0)",
        "",
    ),
    "exact curve one power short": (
        "src/rblab/twirl.py",
        "ftr = ftr_all[depths]",
        "ftr = ftr_all[np.maximum(depths - 1, 0)]",
    ),
    "curve start without the traceless projector": (
        "src/rblab/twirl.py",
        "u_vec = vec(us.mat @ pi)",
        "u_vec = vec(us.mat)",
    ),
    "dense-vs-power check off": (
        "src/rblab/twirl.py",
        "if lam is not None and abs(p - lam) > 1e-8 * scale:",
        "if lam is not None and False:",
    ),
    "eigenpair started from vec(Pi_tr)": (
        "src/rblab/twirl.py",
        "power_iteration(t.mat, _heaviest_column(t.mat))\n"
        "    p_left, left = power_iteration(t.mat.T, _heaviest_column(t.mat.T))",
        "power_iteration(t.mat, vec(pi))\n"
        "    p_left, left = power_iteration(t.mat.T, vec(pi))",
    ),
    "power iteration walks from the strided column": (
        "src/rblab/twirl.py",
        "w = np.ascontiguousarray(start, dtype=float)",
        "w = np.asarray(start, dtype=float)",
    ),
    # the walk's guards
    "null-space guard off": (
        "src/rblab/twirl.py",
        "if norm == 0.0:",
        "if False:",
    ),
    "dense degeneracy check off": (
        "src/rblab/twirl.py",
        "if abs(lam) - abs(evals[order[1]]) < 1e-6 * scale:",
        "if False:",
    ),
    "bound on p off": (
        "src/rblab/twirl.py",
        "if p > 1.0 + 1e-10:",
        "if False:",
    ),
    "left residual guard off": (
        "src/rblab/twirl.py",
        "if np.linalg.norm(t.mat.T @ left - p * left) > 1e-10 * scale:",
        "if False:",
    ),
    "power iteration stops at a 1e-12 step": (
        "src/rblab/twirl.py",
        "if abs(lam_new - lam) <= 1e-14 * max(1.0, abs(lam_new)):",
        "if abs(lam_new - lam) <= 1e-12 * max(1.0, abs(lam_new)):",
    ),
    # the scipy-free rotation vector
    "no w == 0 sign rule": (
        "src/rblab/correction.py",
        "if w < 0 or (w == 0 and next((c for c in (x, y, z) if c != 0), 0.0) < 0):",
        "if w < 0:",
    ),
    "series switch at <": (
        "src/rblab/correction.py",
        "if angle <= 1e-3:",
        "if angle < 1e-3:",
    ),
}


def check_specs() -> list[str]:
    """Names of the mutants whose old text does not occur exactly once."""
    bad = []
    for name, (path, old, _) in MUTANTS.items():
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            bad.append(f"{name}: {path} holds its old text {count} times")
    return bad


def load_kills() -> dict:
    """The kill map, or an empty one when it is missing or unreadable."""
    try:
        kills = json.loads(KILLS.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(kills, dict):
        return {}
    return {name: kill for name, kill in kills.items()
            if isinstance(kill, dict) and isinstance(kill.get("test"), str)}


def killed(path: str, old: str, new: str, mapped: str | None) -> tuple[bool, dict | None, str]:
    """Whether the mutant is killed, the first failure recorded, and which run decided it."""
    with tempfile.TemporaryDirectory(prefix="rblab-mutant-") as tmp:
        work = Path(tmp) / "work"
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(
                    source, work / item, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
                )
            else:
                shutil.copy2(source, work / item)
        target = work / path
        target.write_text(target.read_text().replace(old, new))
        (Path(tmp) / "rblab_kill_recorder.py").write_text(RECORDER)
        record = Path(tmp) / "kill.json"
        env = {
            **os.environ, "PYTHONPATH": os.pathsep.join(["src", tmp]), "PYTHONDONTWRITEBYTECODE": "1",
            "RBLAB_KILL_RECORD": str(record),
        }

        def pytest(*args: str) -> int | None:
            """pytest's exit code, or None on a timeout."""
            try:
                return subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                     "-p", "rblab_kill_recorder", *args],
                    cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                    timeout=TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                return None

        def failure() -> dict | None:
            return json.loads(record.read_text()) if record.exists() else None

        # the mapped test kills only by failing; a test that passes or is gone leaves the verdict to the suite
        if mapped and (pytest(mapped) is None or record.exists()):
            return True, failure(), "mapped test"
        code = pytest()
        return code != 0, failure(), "suite"


def main() -> int:
    bad = check_specs()
    if bad:
        print("mutant specs that do not apply:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2
    old_kills = load_kills()
    kills, survivors = {}, []
    for name, (path, old, new) in MUTANTS.items():
        start = time.perf_counter()
        mapped = old_kills.get(name, {}).get("test")
        dead, failure, route = killed(path, old, new, mapped)
        seconds = time.perf_counter() - start
        if failure:
            kills[name] = failure
        by = f", {route}: {failure['test']}" if failure else f", {route}"
        print(f"{'killed  ' if dead else 'SURVIVED'}  {name}  ({seconds:.1f} s{by})")
        if not dead:
            survivors.append(name)
    if kills != old_kills:
        KILLS.write_text(json.dumps(kills, indent=1) + "\n")
    if survivors:
        print("surviving mutants: " + ", ".join(survivors), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
