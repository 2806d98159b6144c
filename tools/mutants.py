"""Mutation gate: every listed source mutation must make the tier-1 suite fail.

    python3 tools/mutants.py

Each mutant is an exact `(file, old text, new text)` edit.  Before anything
runs, every `old` must occur exactly once in its file, or the script exits 2
naming the mutant.  Then, one mutant at a time, it copies `src/`, `tests/`,
`configs/` and `pyproject.toml` into a temporary directory, applies the edit
there and runs `python -m pytest -q -x` with `PYTHONPATH=src`.  A failing run
(or one that exceeds TIMEOUT_S) kills the mutant.  It prints one line per
mutant and exits 1 naming every survivor, 0 when all are killed.  Nothing is
written into the repository.  The 63 mutants took about 5.5 minutes in
all on a shared 2-vCPU machine, which is why it is not part of tier-1.

Left out as equivalent:

- `>=` for `>` in the ascent's line search (`candidate_value > value` in
  `correction._ascend`).  It survives the suite and looks equivalent: the two
  differ only when a trial step leaves the fidelity unchanged to the last bit,
  which happens only at float resolution next to the maximum, where the
  gradient stop (norm below 1e-9) ends the ascent first.
- `t.T @ v` for `t @ v` in `twirl.fidelity_curve_exact`.  Each f_tr(m) is
  the scalar u^T T^m u, which equals its own transpose u^T (T^T)^m u, so
  the curve is the same up to rounding.
- `ks = slice(0, n)` plus `moments[:, 0] = 0.0` for `ks = slice(1, n)` in
  `twirl.build_twirl`: zeroing the moments' row j = 0 instead of leaving
  out column k = 0, that is `Pi_tr G` for `G Pi_tr`.  The coset columns
  are the members' own pulse sequences composed from the ideal generators,
  and every such product has row 0 and column 0 exactly `e0`:
  `unitary_to_superop` pins them in the generators and the products keep the
  zeros exact, so the coset members' entries the two drop are the same exact
  zeros and ones.  The twirl is equal bit for bit.
"""

from __future__ import annotations

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
    "over_rotation cz_epsilon default 0": (
        "src/rblab/noise.py",
        'cz_offset=number("cz_epsilon", absent=eps)',
        'cz_offset=number("cz_epsilon", absent=0.0)',
    ),
    "gradient sign flipped": (
        "src/rblab/correction.py",
        'grad = -self.scale * np.einsum("lab,ba->l", self.gens, c).imag',
        'grad = self.scale * np.einsum("lab,ba->l", self.gens, c).imag',
    ),
    "no-ascent branch not converged": (
        "src/rblab/correction.py",
        "converged = True  # no ascent direction left at float resolution",
        "converged = False  # no ascent direction left at float resolution",
    ),
    "start off identity": (
        "src/rblab/correction.py",
        "_CorrectedFidelity(block, dim), np.eye(dim, dtype=complex)",
        "_CorrectedFidelity(block, dim), "
        "pulse(np.tensordot(np.full(dim**2 - 1, 0.3), pauli_basis(dim)[1:], axes=1), 2.0)",
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
    "golden-section direction swapped": (
        "src/rblab/rb.py",
        "left = fc < fd",
        "left = fc > fd",
    ),
    "9-point grid": (
        "src/rblab/rb.py",
        "_GRID_POINTS = 1025",
        "_GRID_POINTS = 9",
    ),
    "1e-6 bracket": (
        "src/rblab/rb.py",
        "_P_TOL = 1e-12",
        "_P_TOL = 1e-6",
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
    # the vectorised sequence draw
    "draw words high half first": (
        "src/rblab/rb.py",
        "np.stack([out & _M32, out >> 32], axis=-1)",
        "np.stack([out >> 32, out & _M32], axis=-1)",
    ),
    "every drawn word accepted": (
        "src/rblab/rb.py",
        "accepted = (scaled & _M32) >= threshold",
        "accepted = (scaled & _M32) >= 0",
    ),
    "first PCG64 seeding step skipped": (
        "src/rblab/rb.py",
        "np.array(_step(_add128(inc, (s0, s1)), inc))",
        "np.array(_step((s0, s1), inc))",
    ),
    "every depth seeded with the first depth's m": (
        "src/rblab/rb.py",
        "np.repeat(np.array(depths, dtype=np.uint32), sequences)",
        "np.repeat(np.array(depths[:1] * len(depths), dtype=np.uint32), sequences)",
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
    "128-bit carry dropped": (
        "src/rblab/rb.py",
        "return ah + bh + (lo < al), lo",
        "return ah + bh, lo",
    ),
    "closure digest not checked": (
        "src/rblab/cliffords.py",
        "if digest.hexdigest() != CLOSURE_DIGEST[dim]:",
        "if False:",
    ),
    "sequence composition reversed": (
        "src/rblab/cliffords.py",
        "out = mats[idx[:, j]] @ out",
        "out = out @ mats[idx[:, j]]",
    ),
    "noisy stack trace row unchecked": (
        "src/rblab/channels.py",
        "np.max(np.abs(mats[..., 0, :] - row))",
        "np.max(np.abs(mats.reshape(-1, n, n)[0, 0] - row))",
    ),
    # the ideal float matrices are built where they are read: one replay, or the coset members alone
    "fixed-channel kinds replay the wrong generators": (
        "src/rblab/noise.py",
        'fixed.get("gens", group.generators)',
        'fixed.get("gens", group.generators[::-1])',
    ),
    "coset members composed from the wrong generators": (
        "src/rblab/cliffords.py",
        "np.concatenate([self.generators, np.eye(n)[None]])",
        "np.concatenate([self.generators[::-1], np.eye(n)[None]])",
    ),
    "coset members composed leaf first": (
        "src/rblab/cliffords.py",
        "self.vias[np.array(chain[::-1]).T]",
        "self.vias[np.array(chain).T]",
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
    "order-m left block from the transpose": (
        "src/rblab/twirl.py",
        "vl = twirl.mat @ vl",
        "vl = twirl.mat.T @ vl",
    ),
    "order-m right block without the transpose": (
        "src/rblab/twirl.py",
        "vr = twirl.mat.T @ vr",
        "vr = twirl.mat @ vr",
    ),
    "error operators oriented against Pi_tr": (
        "src/rblab/twirl.py",
        "if hs_inner(pi, op) < 0:",
        "if hs_inner(pi, op) > 0:",
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
        "(lam is not None and abs(p - lam) > 1e-8 * scale)",
        "(lam is not None and False)",
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


def killed(path: str, old: str, new: str) -> bool:
    with tempfile.TemporaryDirectory(prefix="rblab-mutant-") as tmp:
        work = Path(tmp)
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
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True
        return run.returncode != 0


def main() -> int:
    bad = check_specs()
    if bad:
        print("mutant specs that do not apply:\n  " + "\n  ".join(bad), file=sys.stderr)
        return 2
    survivors = []
    for name, (path, old, new) in MUTANTS.items():
        start = time.perf_counter()
        dead = killed(path, old, new)
        print(f"{'killed  ' if dead else 'SURVIVED'}  {name}  ({time.perf_counter() - start:.1f} s)")
        if not dead:
            survivors.append(name)
    if survivors:
        print("surviving mutants: " + ", ".join(survivors), file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
