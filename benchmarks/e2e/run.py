"""End-to-end benchmark of MISSL training and serving: one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out FILE]

Runs each workload (all four unless ``--workload`` names one) in its own
process, with one BLAS thread, from the root of a source checkout.  Each
measures for ``--seconds``, its set-ups included.  It prints every metric
by name with its unit, checks that the outputs are correct, and ends with
one JSON line::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics; ``--trace 1``
spends half the time untraced and half with spans recorded, and reports
the per-layer metrics and the tracing overhead instead.  ``--out`` also
writes the full result — host block, rung reports, ledgers and checks — as
JSON.  The exit code is non-zero when a check fails or a workload does not
finish.  Scratch space and the serving inputs, which the first serving run
builds and later runs reuse, live under ``.e2e_work/``.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("train", "serve_read", "serve_write", "batch_score")
# Every run of one workload must end within 180 s; leave room to clean up.
WORKLOAD_TIMEOUT_S = 170.0


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def workload_env() -> dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"]
                                  if env.get("PYTHONPATH") else "")
    # Default OpenBLAS threading made one (4x32)·(32xN) matmul take 0.1 ms in
    # one run and 8 ms in the next on a 2-CPU host; one thread is steady.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_one(name: str, args, work_root: Path) -> dict:
    """Run one workload process; its result is the last line of stdout."""
    work = work_root / f"run-{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work),
               "--inputs", str(work_root / "inputs")]
    if args.smoke:
        command.append("--smoke")
    # A session of its own, so a timeout can stop the servers it started.
    process = subprocess.Popen(command, cwd=ROOT, env=workload_env(),
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"workload": name, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "error": "timed out"}
    finally:
        # Nothing the workload started may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"workload": name, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {},
                "error": f"exit code {process.returncode}, no result"}
    if process.returncode != 0:
        result["correct"] = False
    return result


def print_result(result: dict) -> None:
    print(f"[{result['workload']}] correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in result.get("checks", {}).items():
        print(f"  check {name}: {value}")
    if "error" in result:
        print(f"  error: {result['error']}")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload, set-ups "
                             "included (default 30; 4 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora and short phases (for tests)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 4.0 if args.smoke else 30.0

    # Scratch space of each run, and the serving inputs cached across runs.
    work_root = ROOT / ".e2e_work"
    names = [args.workload] if args.workload else list(WORKLOADS)
    started = time.perf_counter()
    results = {}
    for name in names:
        results[name] = run_one(name, args, work_root)
        print_result(results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(int(r["attempted"]) for r in results.values()),
               "failed": sum(int(r["failed"]) for r in results.values()),
               "metrics": metrics}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"git_sha": git_sha(ROOT), "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
             "wall_s": time.perf_counter() - started, "summary": summary,
             "workloads": results}, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
