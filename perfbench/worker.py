"""One job of one workload in a fresh interpreter; writes a JSON result file.

Started by run.py with `src` on PYTHONPATH.  The set-up time covers
importing maxcomplex and generating the job's inputs; the job's tasks are
timed one by one and checked after their timer stops.
"""

from __future__ import annotations

import signal
import time

YARDSTICK_DATA = bytes(range(256)) * 64
# The yardstick's time on the reference machine (2-core Xeon VM, Python
# 3.11) in its fast state.
YARDSTICK_REF_MS = 0.4


def yardstick_ms() -> float:
    """Time of a fixed loop of bytes slicing and set inserts, in ms.

    The program's residual work is made of the same operations.  A shared
    machine switches between a fast and an up to 2x slower state every few
    seconds; the yardstick, sampled around and during each timed call, tells
    which state the call ran in.
    """
    start = time.perf_counter()
    pieces = set()
    for i in range(0, len(YARDSTICK_DATA) - 64, 7):
        pieces.add(YARDSTICK_DATA[i:i + 64])
    return (time.perf_counter() - start) * 1000.0


TICK_S = 0.05  # yardstick period inside a timed call
_ticks: list[float] = []


def _tick(signum, frame):
    _ticks.append(yardstick_ms())


def _arm():
    """Sample the yardstick every TICK_S until _disarm; returns the start time."""
    _ticks.clear()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    return time.perf_counter()


def _disarm(start: float) -> tuple[float, list[float]]:
    """(ms since `start` without the yardstick's own time, the samples taken)."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    return (time.perf_counter() - start) * 1000.0 - sum(_ticks), list(_ticks)


signal.signal(signal.SIGALRM, _tick)
SETUP_STICKS = [yardstick_ms(), yardstick_ms()]
SETUP_START = _arm()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

COMMAND_TIMEOUT_S = 150


def _task(name, samples, error, known=False):
    """A task's record: its (raw ms, ms at reference speed) samples."""
    return {"name": name, "samples": samples, "error": error, "known": known}


def _timed(call):
    """(result or None, traceback or None, raw ms, ms at reference speed).

    The yardstick runs twice just before and twice just after the call, and
    every TICK_S during it, with its own time taken out of the call's; the
    mean of the samples is the speed the call ran at.
    """
    sticks = [yardstick_ms(), yardstick_ms()]
    result, error = None, None
    start = _arm()
    try:
        result = call()
    except Exception:  # a crash is a failed task, not a failed benchmark
        error = traceback.format_exc(limit=-1).strip()
    ms, during = _disarm(start)
    sticks += during + [yardstick_ms(), yardstick_ms()]
    return result, error, ms, ms * YARDSTICK_REF_MS / statistics.fmean(sticks)


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_pieces(module):
    """Runner for a workload module with make_pieces and counters.

    The job goes through its tasks --repeats times.  The last pass checks
    and counts each result and drops it before the next task, so the job's
    memory is the program's own working set.
    """
    def run(args, tracer, pieces):
        samples: dict[str, list] = {name: [] for name, _, _ in pieces}
        errors: dict[str, str | None] = {}
        totals = Counter()
        for last in [False] * (args.repeats - 1) + [True]:
            for name, call, check in pieces:
                if errors.get(name):
                    continue  # a task that crashed is not run again
                if tracer:
                    tracer.task = name
                result, error, raw, ms = _timed(call)
                samples[name].append((raw, ms))
                if last and not error:
                    error = check(result)
                    totals.update(module.counters(name, result))
                errors[name] = error
        records = [_task(name, samples[name], errors[name]) for name, _, _ in pieces]
        return records, dict(totals), _rss_mb()
    return run


def prepare_process(args):
    import wl_process as wl

    workdir = Path(args.workdir)
    files, commands, ctx = wl.make_script(args.seed, workdir, args.smoke)
    for path, text in files.items():
        Path(path).write_text(text)
    return commands, ctx


def run_process(args, tracer, script):
    """Subprocess commands (plain mode) or an in-process replay of them."""
    import wl_process as wl

    commands, ctx = script
    records = []
    for name, argv, check, known in commands:
        argv = [ctx.get("cert", "") if a == "{cert}" else a for a in argv]
        if tracer:
            tracer.task = name
        if args.mode == "plain":
            call = lambda: _command(args.workdir, argv)
        else:
            call = lambda: _replay(argv)
        (rc, out, err), _, raw, ms = _timed(call)
        records.append(_task(name, [(raw, ms)], wl.judge(rc, out, err, check, known, ctx), known))
    rss = _rss_mb(resource.RUSAGE_CHILDREN if args.mode == "plain" else resource.RUSAGE_SELF)
    return records, ctx["counters"], rss


def _command(workdir, argv):
    try:
        proc = subprocess.run([sys.executable, "-m", "maxcomplex.cli", *argv],
                              cwd=workdir, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {COMMAND_TIMEOUT_S} s"


def _replay(argv):
    from maxcomplex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # what the process would print as a traceback
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def runners(workload):
    """(prepare inputs, run the job's tasks) for one workload."""
    if workload == "process":
        return prepare_process, run_process
    module = importlib.import_module(f"wl_{workload}")
    return (lambda args: module.make_pieces(args.seed, args.smoke)), run_pieces(module)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("languages", "lattice", "process"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "replay", "replay-traced"),
                        default="plain")
    parser.add_argument("--repeats", type=int, default=1,
                        help="back-to-back runs of each in-process task")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    # set-up pays the import of every module, and the tracer wraps them all
    from maxcomplex import bounds, cache, cli, counting, csg, lattice, minauto, witness  # noqa: F401

    tracer = None
    if args.mode.endswith("traced"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    prepare, run = runners(args.workload)
    inputs = prepare(args)
    setup_ms, during = _disarm(SETUP_START)
    stick = statistics.fmean(SETUP_STICKS + during + [yardstick_ms(), yardstick_ms()])
    records, counters, rss = run(args, tracer, inputs)
    result = {
        "setup_s": setup_ms * YARDSTICK_REF_MS / stick / 1000.0,
        "raw_setup_s": setup_ms / 1000.0,
        "peak_rss_mb": rss,
        "tasks": records,
        "counters": counters,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
