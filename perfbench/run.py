"""spraywaves benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload spectrum|modes|coupling \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the program is imported from
./src). The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A fuller record of the run
goes to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from worker import artifacts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6          # fresh interpreters timed for setup_s, besides the worker
WORKER_TIMEOUT = 150.0    # seconds; the whole run must end within 180
# nominal seconds per pass on the reference host: a run makes
# max(2, seconds // PASS_S) passes, a count fixed by the arguments alone, so
# attempted and failed never depend on how fast the program or the host is
PASS_S = {"spectrum": 15.0, "modes": 10.0, "coupling": 5.0}

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}
# wrapped functions and the span fields reported for each, per pass
SPAN_METRICS = (
    ("quadrature.resonance_integral", ("calls", "self_s")),
    ("quadrature.singular_integral", ("calls", "self_s")),
    ("quadrature.pv_integral", ("calls", "self_s")),
    ("dispersion.dispersion_value", ("calls", "self_s")),
    ("dispersion.count_roots", ("calls", "s", "raised")),
    ("dispersion.find_roots", ("calls", "s")),
    ("dispersion.spectral_verdict", ("s",)),
    ("hyperbolic.secular_function", ("calls", "self_s")),
    ("hyperbolic.symmetric_eigen", ("calls", "s")),
    ("hyperbolic.track_secular_root", ("calls", "s", "raised")),
    ("hyperbolic.scalar_root", ("s",)),
    ("modesim.integrate", ("calls", "s")),
    ("modesim.growth_rate", ("s",)),
)
PER_LAYER_UNITS = {
    "cli.self_s": "s", "cli.artifact_mib": "MiB",
    "profiles.eval_df_ns.maxwellian": "ns", "profiles.eval_df_ns.bump": "ns",
    **{f"quadrature.d_eval_us.{p}.{b}": "us" for p in ("maxwellian", "bump")
       for b in ("upper", "axis", "lower")},
    **{f"{name}.{field}": "count" if field in ("calls", "raised") else "s"
       for name, fields in SPAN_METRICS for field in fields},
    "dispersion.newton_iters": "count", "dispersion.evals_per_root": "evals/root",
    "hyperbolic.eigen_per_secular": "calls/call",
    "modesim.rk4_steps": "count", "modesim.step_us": "us",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    # one process, one core: pin BLAS/OpenMP pools to a single thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, scratch: Path, extra: list[str], timeout: float) -> float:
    """Run a worker to completion; returns its set-up time from process start."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--passes", str(pass_count(args)), "--trace", str(args.trace),
           "--scratch", str(scratch), *extra]
    with open(scratch / "worker.stderr", "ab") as err:
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                              env=child_env(), timeout=timeout, check=False)
    if proc.returncode != 0:
        tail = (scratch / "worker.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.decode().splitlines()[0])["ready"] - start


def pass_count(args) -> int:
    return max(2, int(args.seconds // PASS_S[args.workload]))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(report: dict) -> dict:
    """Per-pass layer metrics from the traced worker's span aggregates."""
    passes = len(report["passes"])
    trace = report["trace"]
    spans, derived = trace["spans"], trace["derived"]
    total = lambda name, field: spans.get(name, {}).get(field, 0)
    m = {"cli.self_s": trace["layer_self_s"]["cli"] / passes,
         "cli.artifact_mib": sum(r.get("bytes", 0) for p in report["passes"]
                                 for r in p) / passes / 2**20}
    m.update(report["microbench"])
    for name, fields in SPAN_METRICS:
        for field in fields:
            m[f"{name}.{field}"] = total(name, field) / passes
    m["dispersion.newton_iters"] = derived.get("newton_iters", 0) / passes
    m["dispersion.evals_per_root"] = _ratio(derived.get("find_roots_evals", 0),
                                            derived.get("roots", 0))
    m["hyperbolic.eigen_per_secular"] = _ratio(
        total("hyperbolic.symmetric_eigen", "calls"),
        total("hyperbolic.secular_function", "calls"))
    steps = derived.get("rk4_steps", 0)
    m["modesim.rk4_steps"] = steps / passes
    m["modesim.step_us"] = 1e6 * _ratio(total("modesim.integrate", "s"), steps)
    return m


def layer_shares(report: dict) -> dict | None:
    """Each layer's self time as a share of the traced passes' wall time."""
    if "trace" not in report:
        return None
    wall = sum(r["s"] for p in report["passes"] for r in p)
    shares = {layer: t / wall for layer, t in report["trace"]["layer_self_s"].items()}
    shares["outside the layers"] = 1.0 - sum(shares.values())
    return shares


def evaluate(ops, report, scratch: Path):
    """Check every operation of every pass; returns (attempted, failed, problems).

    CLI artifacts on disk are those of the last pass; a pass whose artifact
    digest differs from them fails, since every pass has the same inputs.
    """
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    verdicts: dict[tuple[str, str], list[str]] = {}     # one check per distinct output
    for records in report["passes"]:
        for op, rec in zip(ops, records):
            attempted += 1
            if rec["status"] != "ok":
                why = [f"{rec['status']}: {rec.get('error', '')}"]
            elif op["kind"] == "lib":
                key = (op["id"], json.dumps(rec["result"]))
                if key not in verdicts:
                    verdicts[key] = checks.check(op, value=rec["result"])
                why = verdicts[key]
            else:
                key = (op["id"], rec["digest"])
                if key not in verdicts:
                    out = scratch / "out" / op["id"]
                    verdicts[key] = (checks.check(op, out_dir=out)
                                     if artifacts(out)[0] == rec["digest"] else
                                     ["artifacts differ between passes of identical input"])
                why = verdicts[key]
            if why:
                failed += 1
                problems.setdefault(op["id"], why)
    return attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spraywaves" / "__init__.py").is_file():
        print(f"error: no spraywaves sources under {ROOT / 'src'}; run from the root "
              "of a spraywaves checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = HERE / "scratch" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed)
    try:
        # set-up probes before and after the measured worker, so that setup_s
        # samples machine states a minute apart, not one moment
        probes = 0 if args.trace else SETUP_PROBES
        setup = [spawn(args, scratch, ["--setup-only"], 60.0) for _ in range(probes // 2)]
        report_path = scratch / "report.json"
        setup.append(spawn(args, scratch, ["--out", str(report_path)], WORKER_TIMEOUT))
        setup += [spawn(args, scratch, ["--setup-only"], 60.0)
                  for _ in range(probes - probes // 2)]
        report = json.loads(report_path.read_text(encoding="utf-8"))
        attempted, failed, problems = evaluate(ops, report, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    faults = {op["id"]: op["fault"] for op in ops}
    # each operation at its fastest pass: neighbours on a shared host slow the
    # CPU for seconds at a time, and the repeats of one operation lie a pass apart
    op_best = [min(p[i]["s"] for p in report["passes"]) for i in range(len(ops))]
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in per_layer(report).items()}
    else:
        values = {"setup_s": statistics.median(setup), "pass_s": sum(op_best),
                  "peak_rss_mib": report["maxrss_kib"] / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": all(faults[k] for k in problems), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "passes": len(report["passes"]),
        "pass_s": [sum(r["s"] for r in p) for p in report["passes"]],
        "setup_s": setup, "op_best_s": dict(zip(faults, op_best)),
        "failures": problems, "known_faults": {k: v for k, v in faults.items() if v},
        "trace_detail": report.get("trace"), "layer_share_of_pass": layer_shares(report),
        "result": result,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for op_id, why in problems.items():
        label = f"known fault {faults[op_id]}" if faults[op_id] else "UNEXPECTED"
        print(f"failed {op_id} ({label}): {why[0][:300]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
