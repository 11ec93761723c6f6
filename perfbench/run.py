"""maxcomplex benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload languages --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`, not installed).  Each job runs in a fresh interpreter, one process
at a time.  --seconds sets a fixed number of jobs: the run length divided
by the workload's nominal job length, so the number of samples does not
depend on how fast the code is.  --trace 0 measures the end-to-end metrics
with tracing off; --trace 1 alternates untraced and traced jobs and reports
the per-layer metrics from the traced ones.  The last line of output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in turn and prints a combined line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("languages", "lattice", "process")
JOB_TIMEOUT_S = 170
# Nominal seconds of one untraced job on a 2-core Xeon VM; --seconds over
# this is the run's job count.
JOB_SECONDS = {"languages": 9.0, "lattice": 7.0, "process": 15.0}
# Passes over the tasks inside one job.
# The lattice job needs cold in-memory caches and the process job fresh disk
# caches, so only languages makes more than one pass.
REPEATS = {"languages": 2, "lattice": 1, "process": 1}

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms",
              "task_p90_ms": "ms", "peak_rss_mb": "MB"}


def percentile(values, q):
    """Linear-interpolated q-quantile, 0 <= q <= 1."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def task_ms(jobs: list[dict], raw: bool = False) -> dict:
    """Each task's median time (ms) over all its runs in the jobs."""
    samples: dict[str, list] = {}
    for job in jobs:
        for t in job["tasks"]:
            samples.setdefault(t["name"], []).extend(t["samples"])
    return {name: statistics.median(s[0 if raw else 1] for s in values)
            for name, values in samples.items()}


def end_to_end(workload: str, plain: list[dict], raw: bool = False) -> dict:
    """The end-to-end metrics of a run's untraced jobs, at reference speed or raw."""
    wall_ms = sum(task_ms(plain, raw).values())
    # lattice tasks range from 0.1 ms to 1 s, so a percentile over them means
    # nothing: there the one comparable task is the whole job
    latencies = ([wall_ms] if workload == "lattice" else
                 [s[0 if raw else 1] for job in plain for t in job["tasks"] for s in t["samples"]])
    return {
        "setup_s": statistics.median(job["raw_setup_s" if raw else "setup_s"] for job in plain),
        "wall_s": wall_ms / 1000.0,
        "task_p50_ms": percentile(latencies, 0.5),
        "task_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in plain),
    }


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.jobs = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"  # one process, no helper threads
        if hasattr(os, "sched_setaffinity"):
            # every job and command on one CPU, the one its yardstick measures
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def job(self, workload: str, mode: str, repeats: int) -> dict:
        self.jobs += 1
        jobdir = self.work / f"job{self.jobs}"
        jobdir.mkdir()
        result = jobdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed), "--mode", mode, "--repeats", str(repeats),
               "--workdir", str(jobdir), "--result", str(result)]
        if self.args.smoke:
            cmd.append("--smoke")
        if self.args.spans and mode.endswith("traced"):
            cmd += ["--spans", str(jobdir / "spans.json")]
        env = dict(self.env, MAXCOMPLEX_CACHE=str(jobdir / "cache"))
        proc = subprocess.run(cmd, cwd=jobdir, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"{workload} {mode} job failed:\n{proc.stderr[-2000:]}")
        data = json.loads(result.read_text())
        if self.args.spans and mode.endswith("traced"):
            self.args.spans.write_text((jobdir / "spans.json").read_text())
        shutil.rmtree(jobdir)
        return data

    def run(self, workload: str) -> dict:
        """A fixed number of rounds of jobs of one workload; returns the report."""
        modes = ["plain"]
        if self.args.trace:
            modes = (["plain", "replay", "replay-traced"] if workload == "process"
                     else ["plain", "traced"])
        # traced runs compare plain and traced jobs task by task: one run each
        repeats = 1 if self.args.trace or self.args.smoke else REPEATS[workload]
        count = max(1, int(self.args.seconds / (JOB_SECONDS[workload] * len(modes))))
        rounds = [{mode: self.job(workload, mode, repeats) for mode in modes}
                  for _ in range(count)]
        return report(workload, rounds, bool(self.args.trace))


def report(workload: str, rounds: list[dict], traced: bool) -> dict:
    jobs = [job for r in rounds for job in r.values()]
    tasks = [t for job in jobs for t in job["tasks"]]
    failures = [t for t in tasks if t["error"]]
    unexpected = [t for t in failures if not t["known"]]
    plain = [r["plain"] for r in rounds]
    counters = [job["counters"] for job in jobs]
    steady = all(c == counters[0] for c in counters)
    out = {
        "workload": workload,
        "attempted": len(tasks),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(tasks),
        "jobs": len(plain),
        "latencies": 1 if workload == "lattice" else sum(
            len(t["samples"]) for job in plain for t in job["tasks"]),
        "end_to_end": end_to_end(workload, plain),
        "raw_end_to_end": end_to_end(workload, plain, raw=True),
        "task_ms": task_ms(plain),
        "counters": counters[0],
        "counters_identical": steady,
        "failures": sorted({f"{t['name']}: {t['error'].splitlines()[-1]}" for t in failures}),
    }
    if traced:
        layered = [r.get("traced") or r["replay-traced"] for r in rounds]
        layers = {key: statistics.median_low(job["layers"][key] for job in layered)
                  for key in layered[0]["layers"]}
        out["counters_identical"] &= all(
            len({job["layers"][key] for job in layered}) == 1
            for key in layers if not key.endswith(("_s", "_ratio")))
        if workload == "process":
            diffs = [sub["samples"][0][1] - rep["samples"][0][1]
                     for r in rounds for sub, rep in zip(r["plain"]["tasks"], r["replay"]["tasks"])]
            layers["cli.process_overhead_ms"] = statistics.median(diffs)
            untraced = [r["replay"] for r in rounds]
        else:
            layers["cli.process_overhead_ms"] = 0.0
            untraced = plain
        out["layers"] = layers
        out["tracing_overhead_s"] = (sum(task_ms(layered).values())
                                     - sum(task_ms(untraced).values())) / 1000.0
    out["correct"] = not unexpected and out["counters_identical"]
    return out


def context(args) -> dict:
    """Machine and code facts recorded next to every report (not gated)."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric_line(rep: dict, traced: bool) -> dict:
    if traced:
        from spans import LAYER_METRICS

        return {k: {"value": rep["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
    return {k: {"value": rep["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}


def print_report(rep: dict, traced: bool):
    print(f"== {rep['workload']}: {rep['jobs']} jobs, {rep['attempted']} tasks attempted, "
          f"{rep['failed']} failed (failed_ratio {rep['failed_ratio']:.4f}), "
          f"{rep['latencies']} task latencies")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {rep['end_to_end'][name]:>14.6f} {unit}")
    if traced:
        from spans import LAYER_METRICS

        print(f"  tracing overhead {rep['tracing_overhead_s']:.4f} s (traced - untraced wall_s)")
        for name, unit in LAYER_METRICS.items():
            print(f"  {name:<30} {rep['layers'][name]:>16.6f} {unit}")
    print(f"  counters ({'identical' if rep['counters_identical'] else 'DIFFER'} across jobs): "
          f"{json.dumps(rep['counters'], sort_keys=True)}")
    for failure in rep["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own test")
    parser.add_argument("--out", type=Path, help="also write the full report as JSON here")
    parser.add_argument("--spans", type=Path, help="write the last traced job's spans here")
    args = parser.parse_args(argv)
    if not (SRC / "maxcomplex" / "cli.py").is_file():
        print(f"error: no maxcomplex sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, work)
        warm = subprocess.run([sys.executable, "-c", "import maxcomplex.cli"],
                              env=bench.env, capture_output=True, text=True)
        if warm.returncode != 0:  # also fills __pycache__ before any timing
            print(f"error: cannot import maxcomplex:\n{warm.stderr}", file=sys.stderr)
            return 2
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [bench.run(name) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    traced = bool(args.trace)
    ctx = context(args)
    for rep in reports:
        print_report(rep, traced)
    print("context:", json.dumps(ctx, sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps({"context": ctx, "reports": reports}, indent=1))
    if len(reports) == 1:
        metrics = metric_line(reports[0], traced)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports
                   for k, v in metric_line(r, traced).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
