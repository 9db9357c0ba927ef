"""One measured process: set up a workload, then run whole passes over it.

    python3 perfbench/worker.py --root DIR --workload W --seed N --passes P \
        --trace 0|1 --scratch DIR --out FILE [--setup-only]

Set-up is importing spraywaves (numpy included), building the seeded
operations and writing their config files. The process prints the monotonic
clock when set-up is done, so the caller can time it from process start.
With --setup-only it stops there. Otherwise it runs P passes (every
operation once, in order) and writes per-operation timings, statuses and
result digests to FILE. The output checks are made by the caller, outside
this process, so that the oracles' memory and time do not count against the
program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import warnings
from pathlib import Path


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import spraywaves
    from spraywaves import cli
    if not Path(spraywaves.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"spraywaves imported from {spraywaves.__file__}, "
                         f"not from {root}")
    return spraywaves, cli


def prepare(ops, scratch: Path) -> None:
    (scratch / "configs").mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op["kind"] == "cli":
            path = scratch / "configs" / f"{op['id']}.json"
            path.write_text(json.dumps(op["config"], sort_keys=True), encoding="utf-8")
            op["argv"] = [op["command"], "--config", str(path),
                          "--out", str(scratch / "out" / op["id"]), "--quiet"]


def _profile(sw, d: dict):
    if d["kind"] == "maxwellian":
        return sw.maxwellian(d["mass"], d["drift"], d["width"])
    if d["kind"] == "bump_on_tail":
        return sw.make_bump_on_tail(_profile(sw, d["base"]), d["eps"], d["eta"],
                                    d["c_star"])
    return sw.profile_sum(*(_profile(sw, p) for p in d["parts"]))


def call_library(sw, op):
    """The library operations that have no CLI command behind them."""
    args = op["args"]
    profile = _profile(sw, args["profile"])
    if op["func"] == "spectral_verdict":
        p = args["params"]
        params = sw.make_params(profile, p["c0"], p["rho0"], p["kappa"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return sw.spectral_verdict(params, profile)
    s = args["system"]
    system = sw.SystemCoupling(s["A"], s["grad_psi"],
                               tuple(tuple(c) for c in s["phi_coeffs"]),
                               s["kappa"], profile)
    z = sw.track_secular_root(system, args["j"], system.kappa)
    return [z.real, z.imag]


def artifacts(out_dir: Path) -> tuple[str, int]:
    """Digest and byte count of the files a CLI run lists in its manifest."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    h = hashlib.sha256()
    size = (out_dir / "manifest.json").stat().st_size
    for name in sorted(manifest["outputs"]):
        data = (out_dir / name).read_bytes()
        size += len(data)
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest(), size


def run_op(sw, cli, op, scratch: Path) -> dict:
    """Time one operation; the status says how it ended."""
    stderr = io.StringIO()
    rec = {}
    start = time.perf_counter()
    try:
        if op["kind"] == "cli":
            with contextlib.redirect_stderr(stderr):
                rc = cli.main(op["argv"])
        else:
            result = call_library(sw, op)
    except Exception as err:       # a crash is a failed operation, not a harness error
        rec["s"] = time.perf_counter() - start
        rec.update(status="raised", error=f"{type(err).__name__}: {err}")
        return rec
    rec["s"] = time.perf_counter() - start
    if op["kind"] == "lib":
        rec.update(status="ok", result=result)
    elif rc != 0:
        rec.update(status="exit", rc=rc, error=stderr.getvalue().strip()[-400:])
    else:
        rec["status"] = "ok"
        rec["digest"], rec["bytes"] = artifacts(scratch / "out" / op["id"])
    return rec


def peak_rss_kib() -> int:
    """Peak resident set of this process's own address space.

    ru_maxrss also keeps the launching process's high-water mark from the
    moment of exec, so a parent that has imported scipy would set the floor;
    VmHWM counts only pages mapped since exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def microbench(sw, seconds: float = 0.25) -> dict:
    """Fixed-input kernel timings: eval_df per node and one D(sigma) per branch."""
    import numpy as np

    def per_call(fn, batches=5):
        n = 1
        while True:                     # size a batch to about seconds / batches
            t = time.perf_counter()
            for _ in range(n):
                fn()
            dt = time.perf_counter() - t
            if dt >= seconds / batches:
                break
            n *= 2
        samples = []
        for _ in range(batches):
            t = time.perf_counter()
            for _ in range(n):
                fn()
            samples.append((time.perf_counter() - t) / n)
        return sorted(samples)[batches // 2]

    mx = sw.maxwellian()
    bump = sw.make_bump_on_tail(mx, 0.05, 0.5, 5.0)
    nodes = np.linspace(-12.0, 12.0, 4096)
    out = {}
    for name, prof in (("maxwellian", mx), ("bump", bump)):
        out[f"profiles.eval_df_ns.{name}"] = \
            per_call(lambda: sw.eval_df(prof, nodes)) / nodes.size * 1e9
    cases = (("maxwellian", mx, sw.make_params(mx, 1.0, 1.0, 0.01), 0.9),
             ("bump", bump, sw.make_params(bump, 5.0, 1.0, 1.5e-3), 4.8))
    for name, prof, params, x in cases:
        for branch, sigma in (("upper", complex(x, 0.05)), ("axis", complex(x, 0.0)),
                              ("lower", complex(x, -0.05))):
            out[f"quadrature.d_eval_us.{name}.{branch}"] = 1e6 * per_call(
                lambda: sw.dispersion_value(params, prof, sigma))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sw, cli = import_program(args.root)
    import workloads
    ops = workloads.build(args.workload, args.seed)
    prepare(ops, args.scratch)
    ready = time.monotonic()
    print(json.dumps({"ready": ready}), flush=True)
    if args.setup_only:
        return 0

    report = {"ready": ready, "ops": [op["id"] for op in ops], "passes": []}
    tracer = None
    if args.trace:
        import tracing
        report["microbench"] = microbench(sw)
        tracer = tracing.Tracer(sw)
        tracer.install()
    try:
        for _ in range(args.passes):
            report["passes"].append([run_op(sw, cli, op, args.scratch) for op in ops])
    finally:
        if tracer is not None:
            tracer.uninstall()
    report["maxrss_kib"] = peak_rss_kib()
    if tracer is not None:
        report["trace"] = tracer.snapshot()
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
