"""How often the RB bootstrap interval holds the spectral p: a report, not a gate.

    python3 tools/rb_coverage.py [NAME ...]

For each shipped config (`configs/*.json`, or only the NAMEs given, such as
`ztilt_d2`), it runs `run_rb` and `fit_decay` as `rblab rb` does, with the
config's depths, sequences, model and SPAM, at seeds 1000, 1001, ...: FITS[dim]
runs per config.  The truth is the spectral p of the same noisy gate-set,
which the paper proves equal to the RB decay at d=2 and conjectures at d=4.

It prints one line per config:
- the share of 95% intervals that hold the spectral p, with its binomial
  standard error;
- the mean of z = (p_fit - p) / sd(bootstrap p), with its standard error,
  and the spread (standard deviation) of z.  An unbiased fit with a
  well-sized bootstrap gives mean 0 and spread 1;
- how many fits had an interval of rounding width, a bootstrap sd of p at
  most ROUNDING.  Exact survivals (a depolarizing left error, a relabeling)
  give every resample the same p up to rounding, so z says nothing there and
  those fits are left out of it.

It always exits 0.  Measured on a shared 2-vCPU x86-64 machine with one BLAS
thread, in 97 s all told:
    composite_d2          covers 951/1000 = 0.951 (se 0.007)  z mean +0.03 (se 0.03)  spread 0.97
    depolarizing_left_d2  covers   0/1000 = 0.000 (se 0.000)  every interval of rounding width
    overrotation_d2       covers 944/1000 = 0.944 (se 0.007)  z mean +0.03 (se 0.03)  spread 1.00
    relabeling_d2         covers 1000/1000 = 1.000 (se 0.000)  every interval of rounding width
    sandwich_d2           covers 920/1000 = 0.920 (se 0.009)  z mean -0.03 (se 0.03)  spread 1.07
    ztilt_d2              covers 936/1000 = 0.936 (se 0.008)  z mean +0.02 (se 0.03)  spread 1.05
    ztilt_d4              covers 564/600 = 0.940 (se 0.010)  z mean +0.06 (se 0.04)  spread 1.03
So `sandwich_d2` falls 3.4 standard errors short of 0.95 and `ztilt_d2` 1.8,
no config shows a bias in z, and a z spread of 1.03-1.07 on three configs
(0.97 and 1.00 on the other two) says the bootstrap interval is a few percent
too narrow there.  The exact
survivals of `depolarizing_left_d2` fit about 3e-15 off p with a bootstrap
sd of about 1e-16, so none of its intervals holds p.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rblab.cliffords import generate_clifford_group  # noqa: E402
from rblab.noise import NoiseModel, build_noisy_gateset, field_channel  # noqa: E402
from rblab.rb import RBConfig, fit_decay, run_rb  # noqa: E402
from rblab.twirl import build_twirl, dominant_spectrum  # noqa: E402

FITS = {2: 1000, 4: 600}
FIRST_SEED = 1000
ROUNDING = 1e-12  # a bootstrap sd of p this small is rounding: the survivals do not vary
group_of = functools.cache(generate_clifford_group)


def coverage(name: str) -> str:
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    dim = cfg.get("dim", 2)
    group = group_of(dim)
    noisy = build_noisy_gateset(NoiseModel.from_config(cfg["model"], dim), group)
    p = dominant_spectrum(build_twirl(group, noisy)).p
    spam = cfg.get("spam") or {}
    noise = {f"{side}_noise": field_channel(f"spam.{side}", spam[side], dim)
             for side in ("prep", "meas") if spam.get(side) is not None}
    sizes = {key: cfg[key] for key in ("depths", "sequences") if key in cfg}
    fits = FITS[dim]
    covered, z = 0, []
    for seed in range(FIRST_SEED, FIRST_SEED + fits):
        fit = fit_decay(run_rb(group, noisy, RBConfig(**sizes, seed=seed, **noise)))
        lo, hi = fit.p_interval
        covered += bool(lo <= p <= hi)
        sd = fit.bootstrap_p.std(ddof=1)
        if sd > ROUNDING:
            z.append((fit.p - p) / sd)
    share = covered / fits
    line = f"{name:21s} covers {covered:3d}/{fits} = {share:.3f} (se {np.sqrt(share * (1 - share) / fits):.3f})"
    if not z:
        return line + "  every interval of rounding width"
    z = np.array(z)
    line += f"  z mean {z.mean():+.2f} (se {z.std(ddof=1) / np.sqrt(z.size):.2f})  spread {z.std(ddof=1):.2f}"
    if z.size < fits:
        line += f"  ({fits - z.size} of rounding width)"
    return line


def main(names: list[str]) -> int:
    names = names or sorted(path.stem for path in (ROOT / "configs").glob("*.json"))
    start = time.perf_counter()
    for name in names:
        print(coverage(name), flush=True)
    print(f"{time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
