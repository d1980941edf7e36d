"""wemp benchmark: time the solver stack end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk-parareal --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --label baseline

A single-workload run sets the problem up, then repeats the set-up and each
march while they fit in --seconds, checks the answers against the gates,
and prints a report. Its last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1. It
exits 1 when a gate fails or an answer differs from a repeat or from an
earlier run of the same code on the same inputs. Its full record goes to
perfbench/runs/, under a key of the code that wrote it (`code_key`).

`--workload all` runs every workload untraced and traced, each in its own
process, and prints every metric with its unit, the derived ratios with
their bases, the tracing overhead and the determinism check. With --label
it also writes BENCH_<label>.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / "perfbench" / "runs"
sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import scipy
    import wemp
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the solver from {ROOT / 'src'}: {exc}")
if Path(wemp.__file__).resolve().parent != ROOT / "src" / "wemp":
    sys.exit(f"perfbench: imported wemp from {wemp.__file__}, "
             f"not from {ROOT / 'src'}")

import spans as tracing                                   # noqa: E402
import workloads                                          # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

# Every end-to-end metric, in report order; a workload reports the ones that
# apply to it. BENCHMARK.json lists those that every workload reports.
REPORT_METRICS = (
    ("setup_s", "s"), ("parareal_s", "s"), ("ms_march_s", "s"),
    ("fine_soe_march_s", "s"), ("l1_march_s", "s"),
    ("multiscale_s", "s"), ("reference_s", "s"),
    ("time_to_solution_s", "s"), ("max_rel_l2_pct", "%"),
    ("max_rel_energy_pct", "%"), ("soe_gap_pct", "%"),
    ("peak_rss_mb", "MB"), ("failed_share", "ratio"),
)
# Calls repeat at most this often in one run; set-ups only while they total
# less than SETUP_BUDGET_S.
MAX_REPEATS = 12
SETUP_BUDGET_S = 3.0
# The calls behind multiscale_s run twice per round, so the headline time
# gets the most samples of the run.
HEADLINE = ("parareal_s", "ms_march_s")
# Counts that must repeat exactly between runs and trace modes.
DETERMINISTIC = ("parareal_iterations", "ms_columns_kept", "soe_terms",
                 "fem.solve_count", "solvers.step_count", "fem.load_count",
                 "fem.factorize_count", "stepping.history_update_count")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def code_key() -> str:
    """Hash of what fixes the answer bits besides the run's arguments: the
    solver's sources, the workload definitions, and the numerical libraries
    with their thread settings. Records are compared only under equal keys,
    so a change that moves answer bits on purpose starts fresh records."""
    h = hashlib.sha256()
    sources = sorted((ROOT / "src" / "wemp").rglob("*.py"))
    for path in [*sources, Path(workloads.__file__).resolve()]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    libs = {k: v for k, v in machine().items()
            if k in ("numpy", "scipy", "blas", "blas_thread_env")}
    h.update(json.dumps(libs, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _timed_call(fn, tracer):
    """(result, seconds, spans) of one call, traced when a tracer is given."""
    if tracer:
        tracer.take()
        tracer.active = True
    try:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, tracer.take() if tracer else []
    finally:
        if tracer:
            tracer.active = False


def measure(w, kappa_seed: int, amplitude: float, workers: int,
            seconds: float, tracer) -> dict:
    """Set up, then run the marches round robin.

    The set-up repeats while its runs total less than SETUP_BUDGET_S, so a
    cheap one gives several samples and an expensive one runs once (two
    large set-ups alive at once would double the peak memory). The marches
    then run once each, and again round robin while a call should end
    within `seconds` of the start (at most MAX_REPEATS times); each round
    runs the HEADLINE call twice. Every time is a median, and every
    repeated answer must match the first one bit for bit. Per-layer metrics come from the first set-up and first marches.
    """
    start = time.perf_counter()

    def set_up():
        return workloads.set_up(w, kappa_seed, amplitude, workers)

    s, dt, spans = _timed_call(set_up, tracer)
    samples = {"setup_s": [dt]}
    while (sum(samples["setup_s"]) < SETUP_BUDGET_S
           and len(samples["setup_s"]) < MAX_REPEATS):
        samples["setup_s"].append(_timed_call(set_up, tracer)[1])
    answers, digests, repeats_differ = {}, {}, []
    calls = [call for call in workloads.marches(w, s, workers)
             for _ in range(2 if call[0] in HEADLINE else 1)]
    while True:
        ran = False
        for metric, name, fn in calls:
            done = samples.setdefault(metric, [])
            if done and (len(done) >= MAX_REPEATS or time.perf_counter()
                         + done[-1] - start > seconds):
                continue
            result, dt, call_spans = _timed_call(fn, tracer)
            ran = True
            if not done:
                spans += call_spans
            done.append(dt)
            d = workloads.digest(result)
            if name not in digests:
                answers[name], digests[name] = result, d
            elif d != digests[name]:
                repeats_differ.append(f"{name} run {len(done)}")
            # a result held into the next call would make the peak memory
            # depend on which call happened to run before it
            del result
        if not ran:
            break

    values, gates = workloads.check(w, s, answers)
    out = {"samples": samples, "values": values, "gates": gates,
           "facts": workloads.facts(w, s, workers),
           "digest": hashlib.sha256("".join(
               digests[k] for k in sorted(digests)).encode()).hexdigest(),
           "repeats_differ": repeats_differ}
    counts = {k: out["facts"][k] for k in ("ms_columns_kept", "soe_terms")}
    if "parareal_iterations" in values:
        counts["parareal_iterations"] = values["parareal_iterations"]
    if tracer:
        layers = tracing.layer_metrics(spans, workers)
        built = out["facts"]["ms_columns_built"]
        kept = out["facts"]["ms_columns_kept"]
        layers["msfem.columns_built"] = (built, "count")
        layers["msfem.columns_kept"] = (kept, "count")
        layers["msfem.kept_ratio"] = (kept / built, "ratio")
        for name, unit in (("iterations", "count"), ("err_final", "norm"),
                           ("contraction", "ratio")):
            if f"parareal_{name}" in values:
                layers[f"parareal.{name}"] = (values[f"parareal_{name}"], unit)
        out["layers"] = layers
        counts.update({k: layers[k][0] for k in DETERMINISTIC if k in layers})
    out["counts"] = counts
    return out


def record_path(workload: str, seed: int, kappa_seed: int, trace: int,
                key: str) -> Path:
    return (RUNS_DIR / key
            / f"{workload}-seed{seed}-kappa{kappa_seed}-trace{trace}.json")


def run(workload: str, seed: int, seconds: float, trace: int,
        kappa_seed: int) -> dict:
    w = workloads.WORKLOADS[workload]
    amplitude = workloads.amplitude_for(seed)
    workers = min(2, nproc())
    tracer = tracing.Tracer() if trace else None
    why = {x["name"]: x["why"] for x in benchmark_spec()["workloads"]}
    rec = {"workload": workload, "why": why[workload], "seed": seed,
           "kappa_seed": kappa_seed, "amplitude": amplitude, "trace": trace,
           "seconds": seconds, "machine": machine(), "code_key": code_key(),
           "facts": None,
           "digest": None, "counts": {}, "metrics": {}, "layers": {},
           "problems": []}
    try:
        with tracing.installed(tracer) if tracer else nullcontext():
            m = measure(w, kappa_seed, amplitude, workers, seconds, tracer)
    except Exception:          # reported as a failed run, not a crash
        rec["problems"].append(traceback.format_exc())
        rec.update(attempted=1, failed=1, correct=False)
        return rec
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [f"{g}: {measured:.4g} against {limit:g}"
                for g, (measured, limit, ok) in m["gates"].items() if not ok]
    problems += [f"{r} differs from run 1" for r in m["repeats_differ"]]
    # answers and counts against the records earlier runs of the same code
    # left for the same inputs, traced or not
    for t in (0, 1):
        path = record_path(workload, seed, kappa_seed, t, rec["code_key"])
        other = json.loads(path.read_text()) if path.exists() else {}
        if other.get("digest"):
            diff = ["digest"] if other["digest"] != m["digest"] else []
            diff += [k for k in m["counts"] if k in other["counts"]
                     and m["counts"][k] != other["counts"][k]]
            if diff:
                problems.append(f"differs from {path.name} in {', '.join(diff)}")

    attempted = sum(len(v) for k, v in m["samples"].items() if k != "setup_s")
    failed = attempted if problems else 0
    medians = {k: statistics.median(v) for k, v in m["samples"].items()}
    medians.update(m["values"])
    medians["time_to_solution_s"] = sum(medians[k] for k in m["samples"])
    medians["multiscale_s"] = medians.get("parareal_s", medians.get("ms_march_s"))
    medians["reference_s"] = medians["l1_march_s" if w.reference == "l1"
                                     else "fine_soe_march_s"]
    medians["peak_rss_mb"] = peak_rss_mb
    medians["failed_share"] = failed / attempted
    metrics = {name: (medians[name], unit) for name, unit in REPORT_METRICS
               if name in medians}
    rec.update(facts=m["facts"], digest=m["digest"], counts=m["counts"],
               metrics=metrics, layers=m.get("layers", {}),
               samples=m["samples"], gates=m["gates"], problems=problems,
               attempted=attempted, failed=failed, correct=not problems,
               ratios=ratios({workload: metrics}))
    return rec


def ratios(by_workload: dict) -> dict:
    """Ratios across the marches, each with its two bases."""
    out = {}
    desk = by_workload.get("desk-parareal", {})
    seq = by_workload.get("sequential-march", {})
    if "parareal_s" in desk and "ms_march_s" in seq:
        out["parareal_s/ms_march_s"] = {
            "value": desk["parareal_s"][0] / seq["ms_march_s"][0],
            "parareal_s": desk["parareal_s"][0],
            "ms_march_s": seq["ms_march_s"][0]}
    if "ms_march_s" in seq and "fine_soe_march_s" in seq:
        out["ms_march_s/fine_soe_march_s"] = {
            "value": seq["ms_march_s"][0] / seq["fine_soe_march_s"][0],
            "ms_march_s": seq["ms_march_s"][0],
            "fine_soe_march_s": seq["fine_soe_march_s"][0]}
    return out


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(rec: dict) -> None:
    print(f"== {rec['workload']}: seed {rec['seed']}, kappa seed "
          f"{rec['kappa_seed']}, amplitude {rec['amplitude']:.6f}, "
          f"trace {rec['trace']}, march calls {rec['attempted']}, "
          f"failed {rec['failed']}")
    print(f"   facts: {rec['facts']}")
    print("   samples: " + ", ".join(
        f"{k} x{len(v)}" for k, v in rec.get("samples", {}).items()))
    for name, _ in REPORT_METRICS:
        if name in rec["metrics"]:
            value, unit = rec["metrics"][name]
            print(f"   {name:<34} {_fmt(value):>12} {unit}")
        else:
            print(f"   {name:<34} {'n/a':>12}")
    for name, (value, unit) in rec["layers"].items():
        print(f"   {name:<34} {_fmt(value):>12} {unit}")
    for gate, (measured, limit, ok) in rec.get("gates", {}).items():
        print(f"   gate {gate}: {measured:.4g} against {limit:g} "
              f"{'ok' if ok else 'FAILED'}")
    for problem in rec["problems"]:
        print(f"   FAILED: {problem}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(rec: dict) -> dict:
    spec = benchmark_spec()
    wanted = spec["per_layer"] if rec["trace"] else spec["end_to_end"]
    source = rec["layers"] if rec["trace"] else rec["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in source:
            value, unit = source[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}",
              file=sys.stderr)
    return {"correct": rec["correct"] and not missing,
            "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    records = {}
    key = code_key()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--kappa-seed", str(args.kappa_seed)]
            started = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=False)
            print(proc.stdout, end="", flush=True)
            path = record_path(workload, args.seed, args.kappa_seed, trace,
                               key)
            if not path.exists() or path.stat().st_mtime < started:
                print(f"perfbench: {workload} trace {trace} left no record "
                      f"(exit {proc.returncode})", file=sys.stderr)
                return 1
            records[(workload, trace)] = json.loads(path.read_text())

    ok = all(r["correct"] for r in records.values())
    summary = {"seed": args.seed, "kappa_seed": args.kappa_seed,
               "seconds": args.seconds, "machine": machine(), "workloads": {}}
    print("\n== summary (end-to-end from untraced runs)")
    for workload in workloads.WORKLOADS:
        plain, traced = records[(workload, 0)], records[(workload, 1)]
        overhead = (traced["metrics"]["time_to_solution_s"][0]
                    - plain["metrics"]["time_to_solution_s"][0]
                    if "time_to_solution_s" in traced["metrics"]
                    and "time_to_solution_s" in plain["metrics"] else None)
        same = plain["digest"] == traced["digest"] and not [
            k for k in plain["counts"] if k in traced["counts"]
            and plain["counts"][k] != traced["counts"][k]]
        ok &= same
        summary["workloads"][workload] = {
            "why": plain["why"], "facts": plain["facts"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "metrics": plain["metrics"], "layers": traced["layers"],
            "gates": plain["gates"],
            "digest": plain["digest"], "counts": traced["counts"],
            "trace_matches_untraced": same,
            "tracing_overhead_s": overhead}
        print(f"-- {workload}: correct {plain['correct'] and traced['correct']}, "
              f"traced answer matches untraced: {same}, tracing overhead "
              f"{_fmt(overhead)} s")
        for name, _ in REPORT_METRICS:
            if name in plain["metrics"]:
                value, unit = plain["metrics"][name]
                print(f"   {name:<34} {_fmt(value):>12} {unit}")
            else:
                print(f"   {name:<34} {'n/a':>12}")
    summary["ratios"] = ratios({w: summary["workloads"][w]["metrics"]
                                for w in summary["workloads"]})
    for name, r in summary["ratios"].items():
        bases = ", ".join(f"{k} = {_fmt(v)} s" for k, v in r.items()
                          if k != "value")
        print(f"   {name} = {_fmt(r['value'])} ({bases})")
    if args.label:
        out = ROOT / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {out.name}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7,
                        help="run seed; sets the data amplitude")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="repeat calls while they fit in this wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kappa-seed", type=int, default=7,
                        help="inclusion placement seed (7: acceptance and demo)")
    parser.add_argument("--label", help="with --workload all: write "
                        "BENCH_<label>.json at the repository root")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    rec = run(args.workload, args.seed, args.seconds, args.trace,
              args.kappa_seed)
    path = record_path(args.workload, args.seed, args.kappa_seed, args.trace,
                       rec["code_key"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rec, indent=1) + "\n")
    report(rec)
    line = result_line(rec)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
