"""Benchmark entry point.

    python3 benchmark/run.py --workload {search-warm,serve,search-cold,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child process with its own Ray session
(``num_cpus`` = ``nproc``, every process held to that many CPUs), a fixed
``PYTHONHASHSEED`` and its own scratch
directory under ``.bench_tmp/`` in the checkout; the child is capped at
``CHILD_CAP_S`` wall seconds, and every process of its Ray session is
stopped and waited for before the scratch directory is removed, on success
and on failure alike.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics (from span self times)
with ``--trace 1``.  A traced run also writes its spans to
``.bench_out/spans-<workload>-<seed>.json``.  ``--workload all`` runs every
workload in turn and prints a table before a combined JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("search-warm", "serve", "search-cold")
CHILD_CAP_S = 160
# AF_UNIX paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<pid>/sockets/plasma_store (63 more bytes)
_RAY_SOCKET_TAIL = 63


def _args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--in-process", dest="work", default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------- the child --

def child(a) -> int:
    """Run one workload in this process; print its result as JSON."""
    import logging

    import ray
    sys.path.insert(0, HERE)
    import workloads as W
    cpus = W.nproc()
    # Ray gets `nproc` CPUs; keep every process of the run on that many,
    # so the driver, raylet, workers and shard actors share them instead
    # of spreading over the host's other CPUs.  A serve request hops
    # between processes, and waking a CPU on this shared host costs from
    # nothing to milliseconds: over four interleaved pairs of serve runs
    # the end-to-end metrics spread 0.02-0.19 pinned, 0.10-0.58 not
    # (pinned ran ~15% slower)
    allowed = sorted(os.sched_getaffinity(0))
    if cpus < len(allowed):
        os.sched_setaffinity(0, allowed[-cpus:])
    ray_tmp = os.path.join(a.work, "r")
    if len(ray_tmp) + _RAY_SOCKET_TAIL > 107:
        # a checkout this deep cannot hold Ray's sockets
        ray_tmp = f"/tmp/bench-ray-{os.getpid()}"
        print(f"checkout path too long for Ray sockets; Ray session in "
              f"{ray_tmp}", file=sys.stderr)
    ray.init(address="local", num_cpus=cpus,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=ray_tmp,
             object_store_memory=256 << 20,
             # keep idle workers: a worker killed between two engine calls
             # makes the next call pay a fresh worker start (~0.6 s) at
             # random, which the run would report as the engine's time
             _system_config={"kill_idle_workers_interval_ms": 0})
    try:
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        run = W.Run(a.seed, a.seconds, bool(a.trace), a.work)
        correct = True
        try:
            W.WORKLOADS[a.workload](run)
        except W.CheckFailed as e:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
            correct = False
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)["per_layer" if a.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in spec}
        try:
            metrics = W.per_layer(run) if a.trace else W.end_to_end(run)
        except (KeyError, ValueError, ZeroDivisionError):
            if correct:
                raise
            metrics = {}  # the run stopped at its failed check
        if a.trace:
            out = os.path.join(ROOT, ".bench_out")
            os.makedirs(out, exist_ok=True)
            run.tr.dump(os.path.join(
                out, f"spans-{a.workload}-{a.seed}.json"))
        if correct and set(metrics) != set(units):
            raise RuntimeError(
                "metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(units) - set(metrics))}, extra "
                f"{sorted(set(metrics) - set(units))}")
        result = {"correct": correct, "attempted": max(1, run.attempted),
                  "failed": run.failed,
                  "metrics": {k: {"value": float(metrics[k]),
                                  "unit": units[k]}
                              for k in units if k in metrics}}
    finally:
        ray.shutdown()
        if ray_tmp.startswith("/tmp/bench-ray-"):
            shutil.rmtree(ray_tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------ the parent --

def _session_pids(marker: str) -> list[int]:
    """Processes whose command line names ``marker`` (this run's scratch
    directory): the Ray session's raylet, GCS and workers."""
    pids = []
    for p in os.listdir("/proc"):
        if not p.isdigit() or int(p) == os.getpid():
            continue
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if marker.encode() in f.read():
                    pids.append(int(p))
        except OSError:
            pass
    return pids


def _stop_all(proc: subprocess.Popen, marker: str) -> None:
    """Kill the child's process group and any process of its Ray session,
    then wait until each has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 15
    while time.time() < deadline:
        pids = _session_pids(marker)
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.2)


def run_one(workload: str, seed: int, seconds: float, trace: int
            ) -> dict | None:
    work = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    env = dict(os.environ)
    # Ray workers do not inherit the driver's sys.path: the package must be
    # importable from the environment, whatever the working directory
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    # string hashing is salted per process unless fixed; the salt moves
    # set and dict layouts in the driver and the Ray workers, and runs of
    # one input with random salts spread up to twice as wide on the
    # lifecycle metrics
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--in-process", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_CAP_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_CAP_S} s",
              file=sys.stderr)
        out = ""
    finally:
        _stop_all(proc, work)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # kept while other runs use it
        except OSError:
            pass
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        print(lines[-1], file=sys.stderr)
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds run_one's cleanup


def main() -> int:
    a = _args()
    if a.work:
        return child(a)
    signal.signal(signal.SIGTERM, _terminate)
    names = NAMES if a.workload == "all" else (a.workload,)
    results = {}
    for w in names:
        res = run_one(w, a.seed, a.seconds, a.trace)
        if res is None:
            print(f"{w}: failed without a result", file=sys.stderr)
            return 1
        results[w] = res
    if a.workload != "all":
        print(json.dumps(results[a.workload]))
        return 0
    for w, res in results.items():
        print(f"== {w}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
        for k, m in res["metrics"].items():
            print(f"   {k:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
