"""Recompute bump_roots.json: unstable bump-on-tail roots from the mode matrix.

    python3 perfbench/make_bump_table.py        # about four minutes on one core

Every entry holds the bump parameters, the mode-matrix phase velocities with
Im sigma > 1e-6 at nv = 2049, and `err`, their distance from the nv = 1025
values (an estimate of the discretisation error, used to size the check
tolerance). The seeded grid keeps entries whose growth rate lies in
[0.045, 0.075]: above the nv = 2048 simulator's 3 dv resolution limit and
below the top of spectral_verdict's default search box (0.25 eta). The
`fixed` entries are the two strongly unstable profiles that spectral_verdict
misjudges.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import oracles  # noqa: E402

TABLE = Path(__file__).with_name("bump_roots.json")
GROWTH_BAND = (0.045, 0.075)
BASE = {"kind": "maxwellian", "mass": 1.0, "drift": 0.0, "width": 1.0}


def bump(eps, eta, c_star):
    return {"kind": "bump_on_tail", "eps": eps, "eta": eta, "c_star": c_star,
            "base": BASE}


def entry(profile, params):
    fine = oracles.unstable_sigmas(params, profile, nv=2049)
    coarse = oracles.unstable_sigmas(params, profile, nv=1025)
    if len(fine) != len(coarse):
        raise RuntimeError(f"root count changes with nv for {profile}, {params}")
    err = max((abs(a - b) for a, b in zip(fine, coarse)), default=0.0)
    return {"profile": profile, "params": params,
            "roots": [[s.real, s.imag] for s in fine], "err": err}


def main() -> None:
    seeded = []
    for c0, eps, eta, kappa in itertools.product(
            (4.5, 5.0, 5.5), (0.04, 0.05, 0.06), (0.45, 0.5, 0.55),
            (1.0e-3, 1.5e-3, 2.0e-3)):
        params = {"c0": c0, "rho0": 1.0, "kappa": kappa}
        coarse = oracles.unstable_sigmas(params, bump(eps, eta, c0), nv=513)
        if len(coarse) == 1 and GROWTH_BAND[0] <= coarse[0].imag <= GROWTH_BAND[1]:
            seeded.append(entry(bump(eps, eta, c0), params))
    fixed = {
        "verdict_stable": entry(bump(0.3, 0.5, 5.0),
                                {"c0": 5.0, "rho0": 1.0, "kappa": 0.05}),
        "verdict_neutral": entry(bump(0.05, 0.3, 5.0),
                                 {"c0": 5.0, "rho0": 1.0, "kappa": 0.2}),
    }
    payload = {"nv": 2049, "v_bounds": [-10.0, 10.0], "growth_band": GROWTH_BAND,
               "seeded": seeded, "fixed": fixed}
    TABLE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(seeded)} seeded and {len(fixed)} fixed entries to {TABLE}")


if __name__ == "__main__":
    main()
