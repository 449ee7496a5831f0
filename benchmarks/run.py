"""freezeflow benchmark: one command, four workloads, checked outputs.

    python3 benchmarks/run.py --workload grid-wedge --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py                    # every workload in turn

Run from the root of a checkout.  Each workload runs in a fresh, single-
threaded worker process (worker.py) that imports freezeflow from src/.  With
--trace 0 the run prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it prints the per-layer metrics from a traced run, and writes the
spans to benchmarks/results/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("grid-wedge", "boundary-parabolas", "trace-mixed", "levelsets-random")
SETUP_PROBES = 8  # set-up-only processes per run, half before and half after the
# timed phase, since the machine speed drifts over seconds; set-up is the
# median of these and the main worker's set-up
DEADLINE_S = 170  # a run must end within 180 s

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FT_THREADS", None)  # eval_grid would start a thread pool
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(args: list, procs: list) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()
    )
    procs.append(proc)
    return proc


def read_ready(proc: subprocess.Popen, started: float) -> float:
    """Seconds from spawning ``proc`` to its "ready" line."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker failed during set-up (exit {proc.wait()})")
    return time.perf_counter() - started


def run_workload(workload: str, seed: int, seconds: float, trace: int, procs: list) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []

    def probe_setup(n):
        for _ in range(n):
            t0 = time.perf_counter()
            proc = spawn(common + ["--setup-only"], procs)
            setup.append(read_ready(proc, t0))
            proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"set-up worker exited {proc.returncode}")

    if trace == 0:
        probe_setup(SETUP_PROBES // 2)
    args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    spans = RESULTS / f"{workload}-seed{seed}-spans.json"
    if trace:
        args += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = spawn(args, procs)
    setup.append(read_ready(proc, t0))
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    child = json.loads(lines[-1])
    if trace == 0:
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = dict(child["metrics"])
    if trace == 0:
        metrics["setup_s"] = statistics.median(setup)
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"worker did not report {missing}")
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_samples_s": setup,
        "worker": child,
        "result": result,
    }
    if trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    m = child["machine"]
    print(f"# {workload} seed={seed} trace={trace}: {child['rounds']} rounds, "
          f"{m['cpu_count']} CPUs, Python {m['python']}, numpy {m['numpy']}")
    if "seconds" in child:
        print("# in seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in child["seconds"].items()))
    if child.get("absent"):
        print(f"# absent layers: {', '.join(child['absent'])}")
    for n in names:
        print(f"{workload:20s} {n:40s} {metrics[n]:>16.6g} {UNITS[n]}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "freezeflow" / "__init__.py").is_file():
        sys.stderr.write(f"error: no freezeflow source under {ROOT / 'src'}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    # the build: byte-compile the program so set-up never pays for it
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        sys.stderr.write("error: freezeflow does not compile\n")
        return 2
    RESULTS.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    procs: list = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S * len(workloads))
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, procs) for w in workloads}
    except (Deadline, RuntimeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
