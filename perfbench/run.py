"""The qbloch benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Run from the root of a checkout.  Inputs come from --seed (see gen.py).
Every pass runs in a fresh worker process (worker.py), so caches start cold
as they do for a command-line user; passes repeat until --seconds would be
exceeded, and set-up is measured in extra set-up-only workers.  With
--trace 1, untraced and traced passes alternate and the per-layer metrics
come from the traced ones (spans.py).  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics of
BENCHMARK.json; the full record (environment, every pass, every failed
item) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gen import plain_terms, special_corpus  # noqa: E402

WORKLOADS = ("kashaev", "special-corpus", "variational")
KASHAEV_TERM = os.path.join("terms", "four_one_special.json")
PLAIN_PER_STRATUM = 18      # 9 strata -> 162 plain terms per pass
SETUP_WORKERS = 9           # set-up-only workers per run
DEADLINE_S = 165            # no pass starts that could end after this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"setup_s": "s", "report_s": "s", "terms_per_s": "1/s",
         "term_p50_ms": "ms", "term_tail_ms": "ms", "peak_rss_mb": "MB",
         "coeffs_per_s": "1/s", "fail_frac": "ratio", "oracle_rel_err": "ratio"}
END_TO_END = ("setup_s", "report_s", "terms_per_s", "term_p50_ms",
              "term_tail_ms", "peak_rss_mb")
# reported per workload beside END_TO_END, not bounded
EXTRA = {"kashaev": ("coeffs_per_s", "fail_frac", "oracle_rel_err"),
         "special-corpus": ("coeffs_per_s", "fail_frac", "oracle_rel_err"),
         "variational": ("fail_frac",)}
# per-layer metrics are in seconds unless listed here
LAYER_UNITS = {k: "count" for k in (
    "qterm.lattice_calls", "qterm.lattice_points", "qterm.exact_term_calls",
    "laurent.ops", "series.mp_eval_calls", "series.coeffs", "series.nonfinite",
    "solver.starts", "solver.points", "solver.critical", "bloch.escalations",
    "dilog.calls", "trace.spans")}
LAYER_UNITS.update({"solver.yield": "points/start", "trace.coverage": "ratio"})


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed worker)."""


def tail(values):
    """(value, label): the highest percentile with at least ten samples
    beyond it; the maximum when no percentile above the median has ten."""
    xs = sorted(values)
    rank = len(xs) - 11
    if rank <= (len(xs) - 1) // 2:
        return xs[-1], f"max of {len(xs)}"
    return xs[rank], f"p{100.0 * (rank + 1) / len(xs):.1f} of {len(xs)}"


def environment(root):
    """What the numbers depend on besides the code."""
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    with open("/proc/loadavg") as f:
        loadavg = f.read().split()[:3]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": pkg("numpy"), "mpmath": pkg("mpmath"),
            "git_sha": sha,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "dilog_threads": os.environ.get("DILOG_THREADS"),
            "loadavg": [float(x) for x in loadavg]}


def inputs(workload, seed):
    if workload == "kashaev":
        return {"term_file": KASHAEV_TERM}
    if workload == "special-corpus":
        return {"terms": special_corpus(seed)}
    return {"terms": plain_terms(seed, PLAIN_PER_STRATUM)}


class Runner:
    """Spawns workers for one run and keeps their results."""

    def __init__(self, root, workload, seed, work_dir, start):
        self.root, self.workload, self.seed = root, workload, seed
        self.work_dir, self.start = work_dir, start
        self.base = dict(inputs(workload, seed), workload=workload, root=root,
                         work_dir=work_dir)
        self.env = {k: v for k, v in os.environ.items() if k != "DILOG_THREADS"}
        self.count = 0

    def worker(self, phase, trace):
        self.count += 1
        spec = dict(self.base, phase=phase, trace=bool(trace),
                    spans_path=os.path.join(
                        HERE, "out", f"spans-{self.workload}-seed{self.seed}-{self.count}.json"))
        spec_path = os.path.join(self.work_dir, f"spec-{self.count}.json")
        result_path = os.path.join(self.work_dir, f"result-{self.count}.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        left = DEADLINE_S + 10 - (time.perf_counter() - self.start)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=max(left, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{phase} worker exceeded {left:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{phase} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(result_path) as f:
            result = json.load(f)
        result["process_s"] = time.perf_counter() - t0
        result["traced"] = bool(trace)
        if trace:
            result["spans_file"] = os.path.relpath(spec["spans_path"], self.root)
        return result


def measure(runner, seconds, trace):
    """Set-up samples, then passes until the next would overrun the
    measuring window (at least one; with trace, one untraced and one
    traced)."""
    setups = [runner.worker("setup", False)["setup_s"] for _ in range(SETUP_WORKERS)]
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(runner.worker("pass", traced))
        walls = [p["process_s"] for p in passes]
        elapsed = time.perf_counter() - t0
        total = time.perf_counter() - runner.start
        need = max(walls) if trace else statistics.median(walls)
        if total + need * 1.2 > DEADLINE_S:
            break
        if elapsed + need > seconds and not (trace and len(passes) < 2):
            break
    return setups, passes


def summarize(setups, passes):
    """End-to-end metrics plus the workload's extra figures, from the
    untraced passes: per-pass figures are medians over passes; per-term
    latencies are first reduced to each term's median over passes, so a
    short slowdown of the machine during one pass does not move them.
    attempted/failed count every pass."""
    plain = [p for p in passes if not p["traced"]]
    setups = setups + [p["setup_s"] for p in plain]
    per_pass = {"report_s": [], "terms_per_s": [], "peak_rss_mb": [], "coeffs_per_s": []}
    for p in plain:
        per_pass["report_s"].append(p["pass_s"])
        per_pass["terms_per_s"].append(
            sum(x is not None for x in p["term_s"]) / p["pass_s"])
        per_pass["peak_rss_mb"].append(p["peak_rss_mb"])
        per_pass["coeffs_per_s"].append(p.get("coeffs", 0) / p["pass_s"])
    per_term = []
    for latencies in zip(*(p["term_s"] for p in plain)):
        done = [x for x in latencies if x is not None]
        if done:
            per_term.append(statistics.median(done))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update({key: statistics.median(values) for key, values in per_pass.items()})
    metrics["term_p50_ms"] = 1e3 * statistics.median(per_term)
    tail_value, tail_label = tail(per_term)
    metrics["term_tail_ms"] = 1e3 * tail_value
    metrics["fail_frac"] = failed / attempted
    errs = [p["oracle_rel_err"] for p in passes if "oracle_rel_err" in p]
    metrics["oracle_rel_err"] = max(errs) if errs else float("nan")
    samples = {"setup_s": len(setups), "passes": len(plain),
               "terms_per_pass": plain[0]["attempted"],
               "tail": f"{tail_label} terms, each the median of {len(plain)} passes"}
    return metrics, attempted, failed, samples


def layer_summary(passes):
    """Per-layer metrics: medians over the traced passes, plus the tracing
    overhead (traced minus untraced median pass time)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    keys = traced[0]["layers"].keys()
    out = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
    out["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                               - statistics.median(p["pass_s"] for p in plain))
    return out


def run_one(args, root):
    start = time.perf_counter()
    env = environment(root)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        runner = Runner(root, args.workload, args.seed, work_dir, start)
        setups, passes = measure(runner, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not any(x is not None for p in passes if not p["traced"] for x in p["term_s"]):
        raise BenchError("no term completed in any untraced pass: "
                         + "; ".join(f["error"] for p in passes for f in p["failed"][:1]))
    if args.trace and not any(p["traced"] for p in passes):
        raise BenchError("no traced pass fitted before the deadline")
    metrics, attempted, failed, samples = summarize(setups, passes)
    violations = [v for p in passes for v in p["violations"]]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "samples": samples,
              "metrics": metrics, "setup_workers_s": setups, "passes": passes,
              "violations": violations}
    shown = END_TO_END + EXTRA[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  passes {samples['passes']}"
          f"  terms/pass {samples['terms_per_pass']}  set-up samples {samples['setup_s']}"
          f"  tail {samples['tail']}")
    for key in shown:
        print(f"  {key:16s} {metrics[key]:.6g} {UNITS[key]}")
    failures = {}
    for p in passes:
        for item in p["failed"]:
            failures.setdefault((item["item"], item["error"]), []).append(p)
    for (item, error), hit in failures.items():
        print(f"  FAILED item {item} in {len(hit)} of {len(passes)} passes: {error}")
    for v in violations[:50]:
        print(f"  VIOLATION {v}")
    layers = layer_summary(passes) if args.trace else None
    if layers is not None:
        record["layers"] = layers
        for key, value in layers.items():
            print(f"  {key:24s} {value:.6g} {LAYER_UNITS.get(key, 's')}")
    result = result_line(not violations, attempted, failed, metrics, layers)
    record["result"] = result
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"  record: {os.path.relpath(path, root)}")
    print(json.dumps(result))


def result_line(correct, attempted, failed, metrics, layers=None):
    """The last line's object: the end-to-end metrics, or the per-layer ones
    when the run was traced."""
    if layers is not None:
        chosen = {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")} for k, v in layers.items()}
    else:
        chosen = {k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": chosen}


def run_all(args):
    """Each workload in its own process; prints their reports in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{workload}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qbloch", "__init__.py")):
        print("perfbench: run from the root of a qbloch checkout "
              "(src/qbloch is missing here)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload == "kashaev" and not os.path.isfile(os.path.join(root, KASHAEV_TERM)):
        print(f"perfbench: {KASHAEV_TERM} is missing", file=sys.stderr)
        return 2
    try:
        run_one(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
