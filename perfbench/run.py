#!/usr/bin/env python3
"""torusphase benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (one client, closed loop, ops run one after another, each op a
fresh `torusphase` process):

  verify-ladder    `torusphase verify` suites
  phase-space      `torusphase wigner/converge/transform/gen`

Run from the root of a source checkout: the package is imported from
./src.  A run makes a fixed number of whole passes over the workload's job
list, about --seconds long (see PASS_S), checks every op's output against the
numpy oracles in oracle.py, and prints a JSON result as its last stdout line.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
each op plain and then traced, and reports the per-layer metrics, the
tracing overhead, a span file and a per-layer table under perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS/OpenMP thread in this process and in every op it starts.  On the
# 2-vCPU host the benchmark was made on, a second BLAS thread did not speed up
# the package's small matrices (some in-process calls took 1.5x as long), and
# a thread that waits on the other vCPU ties every timing to the host's other
# load.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import cli_jobs  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SHIM = os.path.join(HERE, "cli_shim.py")

E2E_UNITS = {"setup_s": "s", "batch_s": "s", "op_p50_s": "s", "op_p90_s": "s",
             "peak_rss_mb": "MB", "op_pass_ratio": "ratio"}
# Bare `torusphase --help` start-ups before each pass, so that setup_s, like
# batch_s, averages the host's speed over the whole run.
SETUP_PER_PASS = 7
# Nominal pass length per workload, measured on the commit that defined the
# benchmark (2 vCPUs).  A run makes max(2, round(seconds / PASS_S)) whole
# passes: 3 and 4 at the benchmark's 40 s.  The count depends on --seconds
# only, so every run on every commit has the same samples per op and the
# percentiles keep their ranks; a timed stop flipped the pass count when a
# pass took about half of --seconds.
PASS_S = {"verify-ladder": 13.0, "phase-space": 10.0}
OP_TIMEOUT_S = 150


def tail_level(n: int) -> float:
    """The highest percentile, at most the 90th, with >= 10 of n samples beyond it."""
    return (max(0, min(math.ceil(0.9 * n) - 1, n - 11)) + 1) / n


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of xs.

    A mean of all order statistics weighted by a Beta(p(n+1), (1-p)(n+1))
    law, in place of the single order statistic at rank pn.  With this
    benchmark's 39-52 samples per run, the tail latency it gives spread less
    from run to run than that order statistic in three of four 10-seed sets.
    """
    x = np.sort(np.asarray(xs, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = np.linspace(0.0, 1.0, 20001)
    mid = (edges[1:] + edges[:-1]) / 2
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf / cdf[-1]))
    return float(weights @ x)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- environment stamp ---------------------------------------------------------

def environment(seed: int) -> dict:
    sha = None
    try:                        # only when ROOT itself is the top of a git work tree
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


# -- workloads -------------------------------------------------------------------

def run_cli(args: list[str], trace_out: str | None = None):
    cmd = [sys.executable, SHIM] + (["--trace-out", trace_out] if trace_out else []) + args
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                           timeout=OP_TIMEOUT_S)
        res = cli_jobs.Result(p.returncode, p.stdout, p.stderr)
    except subprocess.TimeoutExpired:
        res = cli_jobs.Result(-1, "", "timeout")
    return time.perf_counter() - t0, res


def judge(job, res) -> str:
    try:
        reason = job.check(res)
    except (ValueError, KeyError, IndexError, TypeError) as exc:      # unparsable output
        reason = f"unparsable output: {type(exc).__name__}: {exc}"
    if reason is None:
        return "ok"
    if job.defect and cli_jobs.KNOWN_DEFECTS[job.defect][1](res):
        return f"known:{job.defect}"
    return f"fail:{reason}"


def run_op(job, label: str, ops: list, trace_out: str | None = None) -> float:
    dt, res = run_cli(job.args, trace_out)
    rows = cli_jobs.verify_row_counts(res.out) if job.args[0] == "verify" else None
    ops.append({"pass": label, "job": job.name, "seconds": dt, "outcome": judge(job, res),
                "rows": rows})
    return dt


def cli_pass(jobs, ops: list, workdir: str, traces: list | None = None) -> tuple[float, float]:
    """Runs every job once, and with `traces` once more traced right after it.

    Returns the plain and traced pass times, each the sum of its ops' wall
    times: the oracle checks between ops are the benchmark's work, not the
    program's.  Running each traced op next to its plain twin keeps the host's
    drift out of the tracing overhead.
    """
    plain = traced = 0.0
    for k, job in enumerate(jobs):
        plain += run_op(job, "plain", ops)
        if traces is None:
            continue
        trace_out = os.path.join(workdir, f"trace-{k}.json")
        traced += run_op(job, "traced", ops, trace_out)
        if os.path.exists(trace_out):
            with open(trace_out) as fh:
                snap = json.load(fh)
            os.remove(trace_out)
            snap["job"] = job.name
            traces.append(snap)
    return plain, traced


def startup_times(code: str | None, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running `code` (None: `torusphase --help`)."""
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, SHIM, "--help"] if code is None else [sys.executable, "-c", code]
        t0 = time.perf_counter()
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                           timeout=OP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise RuntimeError(f"start-up command failed: {cmd}\n{p.stderr}")
    return times


def import_s() -> float:
    return (statistics.median(startup_times("import torusphase.cli", 5))
            - statistics.median(startup_times("pass", 5)))


def cli_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    jobs = cli_jobs.WORKLOADS[name](seed, workdir)
    ops: list = []
    out = {"ops": ops, "passes": [], "traced_passes": []}
    passes = max(2, round(seconds / PASS_S[name]))
    if not trace:
        setup: list = []
        for _ in range(passes):
            setup += startup_times(None, SETUP_PER_PASS)
            out["passes"].append(cli_pass(jobs, ops, workdir)[0])
        out["setup_s"] = statistics.median(setup)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return out
    out["import_s"] = import_s()
    traces: list = []
    for _ in range(passes // 2):                # a traced run takes as long as a plain one
        plain, traced = cli_pass(jobs, ops, workdir, traces)
        out["passes"].append(plain)
        out["traced_passes"].append(traced)
    out["traces"] = traces
    return out


# -- metrics ---------------------------------------------------------------------

def end_to_end(run: dict) -> dict:
    timed = [op for op in run["ops"] if op["pass"] == "plain"]
    lat = [op["seconds"] for op in timed]
    values = {
        "setup_s": run["setup_s"],
        "batch_s": statistics.median(run["passes"]),
        "op_p50_s": quantile(lat, 0.5),
        "op_p90_s": quantile(lat, tail_level(len(lat))),
        "peak_rss_mb": run["rss_mb"],
        "op_pass_ratio": sum(op["outcome"] == "ok" for op in timed) / len(timed),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def merge_traces(traces: list) -> tuple[dict, dict, dict]:
    stats: dict = {}
    counters: dict = {}
    caches: dict = {}
    for snap in traces:
        for name, (calls, total, self_s, errors) in snap["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0, 0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
            st[3] += errors
        for k, v in snap["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, info in snap["caches"].items():            # one fresh process per op
            c = caches.setdefault(k, {"entries": 0, "hits": 0, "misses": 0})
            c["entries"] = max(c["entries"], info["entries"])
            c["hits"] += info["hits"]
            c["misses"] += info["misses"]
    return stats, counters, caches


def per_layer(run: dict) -> dict:
    stats, counters, caches = merge_traces(run["traces"])
    n = len(run["traced_passes"])
    get = lambda name, i: stats.get(name, [0, 0.0, 0.0, 0])[i] / n     # noqa: E731
    m: dict = {}
    for layer in tracer.LAYERS:
        rows = [st for name, st in stats.items() if name.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = (sum(st[0] for st in rows) / n, "count")
        m[f"{layer}.self_s"] = (sum(st[2] for st in rows) / n, "s")
        m[f"{layer}.errors"] = (sum(st[3] for st in rows) / n, "count")
    m["cli.import_s"] = (run["import_s"], "s")
    for name in ("wigner.kernel_grid", "wigner.wigner_function",
                 "numberphase.action_angle_values", "deformed.oscillator_residuals",
                 "deformed.sl2_residuals", "transforms.build_metaplectic",
                 "transforms.covariance_report"):
        m[f"{name}.total_s"] = (get(name, 1), "s")
    for name in ("numberphase.action_angle_values", "deformed.build_q_oscillator",
                 "deformed.build_uq_sl2", "lattice.max_abs"):
        m[f"{name}.calls"] = (get(name, 0), "count")
    m["wigner.kernel_bytes_computed"] = (counters.get("wigner.kernel_bytes_computed", 0) / n,
                                         "bytes")
    traced_rows = [op["rows"] for op in run["ops"] if op["pass"] == "traced" and op["rows"]]
    for key, metric in (("rows", "verify.rows"), ("gated", "verify.rows_gated"),
                        ("failed", "verify.rows_failed")):
        m[metric] = (sum(r[key] for r in traced_rows) / n, "count")
    for prefix in ("schwinger.cache", "wigner.kernel_cache", "transforms.tmat_cache"):
        m[f"{prefix}_entries"] = (caches.get(prefix, {}).get("entries", 0), "count")
    sch = caches.get("schwinger.cache", {"hits": 0, "misses": 0})
    looked = sch["hits"] + sch["misses"]
    m["schwinger.cache_hit_ratio"] = (sch["hits"] / looked if looked else 0.0, "ratio")
    out_bytes = counters.get("serialization.bytes_out", 0)
    ser_s = counters.get("serialization.outer_s", 0.0)
    m["serialization.bytes_out"] = (out_bytes / n, "bytes")
    m["serialization.mb_per_s"] = (out_bytes / 1e6 / ser_s if ser_s else 0.0, "MB/s")
    plain = statistics.median(run["passes"])
    traced = statistics.median(run["traced_passes"])
    m["trace.batch_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - plain, "s")
    m["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace_files(stem: str, run: dict, metrics: dict) -> None:
    stats, _, _ = merge_traces(run["traces"])
    n = len(run["traced_passes"])
    with open(f"{stem}-spans.json", "w") as fh:
        json.dump({"fields": ["id", "parent_id", "name", "start_s", "end_s"],
                   "processes": [{"job": s["job"], "pid": s["pid"], "spans": s["spans"],
                                  "spans_dropped": s["spans_dropped"]}
                                 for s in run["traces"]]}, fh)
    lines = [f"{'span':<48} {'calls/pass':>12} {'total_s/pass':>13} {'self_s/pass':>12} "
             f"{'errors':>7}"]
    for name, (calls, total, self_s, errors) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        if calls:
            lines.append(f"{name:<48} {calls / n:>12.1f} {total / n:>13.6f} {self_s / n:>12.6f} "
                         f"{errors / n:>7.1f}")
    lines.append("")
    lines += [f"{k:<40} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    traced, extra = metrics["trace.batch_s"]["value"], metrics["trace.overhead_s"]["value"]
    lines.append(f"tracing overhead: traced batch_s {traced:.4f} s - plain batch_s "
                 f"{traced - extra:.4f} s = {extra:.4f} s "
                 f"({100 * metrics['trace.overhead_ratio']['value']:.1f}%)")
    with open(f"{stem}-layers.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- main --------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(cli_jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "torusphase", "cli.py")):
        print(f"error: no torusphase sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    trace = bool(args.trace)
    try:
        run = cli_workload(args.workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = run["ops"]
    failed = [op for op in ops if op["outcome"] != "ok"]
    unexpected = [op for op in ops if op["outcome"] != "ok" and
                  not op["outcome"].startswith("known:")]
    metrics = per_layer(run) if trace else end_to_end(run)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{int(trace)}")
    if trace:
        write_trace_files(stem, run, metrics)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": trace,
        "environment": environment(args.seed),
        "metrics": metrics,
        "passes": run["passes"],
        "traced_passes": run["traced_passes"],
        "known_defects": {op["outcome"][6:]: cli_jobs.KNOWN_DEFECTS[op["outcome"][6:]][0]
                          for op in ops if op["outcome"].startswith("known:")},
        "ops": ops,
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={int(trace)} "
          f"passes={len(run['passes'])}+{len(run['traced_passes'])} ops={len(ops)} "
          f"git={env['git_sha'] or 'n/a'} src={env['src_sha256'][:12]} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    for k, v in metrics.items():
        print(f"  {k:<40} {v['value']:.6g} {v['unit']}")
    for op in unexpected:
        print(f"  UNEXPECTED {op['job']}: {op['outcome'][:300]}")
    for defect, why in record["known_defects"].items():
        print(f"  known defect {defect}: {why}")
    print(json.dumps({"correct": not unexpected and bool(ops), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
