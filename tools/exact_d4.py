"""Exact two-qubit RB means at depths 1 and 2, checked against Monte-Carlo RB.

    python3 tools/exact_d4.py

For `configs/ztilt_d4.json` (z-tilt 0.1 with CZ over-rotation 0.1, no SPAM
noise) it computes the exact mean survival of motion-reversal RB by
`tests/reference.exact_rb_means`, the group convolution of Merkel,
Pritchett and Fong (arXiv:1804.05951) that the test suite also runs at
d=2.  It then checks:

- the exact means against their pinned values to 1e-7;
- a seeded `run_rb` of 4000 sequences against each exact mean, within 4
  standard errors.

It prints one line per check and exits 1 naming every miss, 0 when all hold.
The convolution step looks up 11520^2 products and takes about 45 s (43.0 to
49.4 s over four runs) on a shared 2-vCPU machine, which is why it is not
part of tier-1.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from rblab.cliffords import generate_clifford_group  # noqa: E402
from rblab.noise import NoiseModel, build_noisy_gateset  # noqa: E402
from rblab.rb import RBConfig, run_rb  # noqa: E402
from reference import exact_rb_means  # noqa: E402

PINNED = {1: 0.9830524, 2: 0.9734505}
SEQUENCES = 4000
SEED = 19


def main() -> int:
    cfg = json.loads((ROOT / "configs" / "ztilt_d4.json").read_text())
    group = generate_clifford_group(4)
    noisy_set = build_noisy_gateset(NoiseModel.from_config(cfg["model"], 4), group)
    config = RBConfig(depths=tuple(PINNED), sequences=SEQUENCES, seed=SEED)
    rho, mu = config.resolve(4)

    start = time.perf_counter()
    exact = dict(zip(PINNED, exact_rb_means(group, noisy_set, PINNED, rho, mu)))
    print(f"convolution: {time.perf_counter() - start:.1f} s")
    survivals = run_rb(group, noisy_set, config).survivals

    misses = []
    for col, m in enumerate(PINNED):
        shift = exact[m] - PINNED[m]
        print(f"m = {m}: exact {exact[m]:.10f}, pinned {PINNED[m]}, shift {shift:.1e}")
        if not abs(shift) <= 1e-7:
            misses.append(f"exact mean at m = {m} is {exact[m]:.10f}, not {PINNED[m]}")
        sample = survivals[:, col]
        stderr = sample.std(ddof=1) / np.sqrt(sample.size)
        z = (sample.mean() - exact[m]) / stderr
        print(f"m = {m}: run_rb mean {sample.mean():.10f} over {sample.size} sequences, z = {z:.2f}")
        if not abs(z) <= 4.0:
            misses.append(f"run_rb mean at m = {m} is {abs(z):.2f} standard errors from the exact mean")
    if misses:
        print("misses: " + "; ".join(misses), file=sys.stderr)
        return 1
    print("exact d=4 means hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
