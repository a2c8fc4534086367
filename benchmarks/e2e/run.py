#!/usr/bin/env python3
"""End-to-end benchmark of deployed ParallelApps on the real backends.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --repeat K --check-agreement [--out FILE]

One run is one fresh interpreter.  It prints every metric by name and
unit, then the run record, then (last line) the result object.  See
README.md beside this file.
"""

import time

_STARTED = time.perf_counter()  # before anything heavy: setup time starts here

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"

#: fresh interpreters behind ``setup_s`` (import alone varies by a
#: quarter from one start to the next on the reference box)
SETUP_PROBES = 5


def _pin() -> None:
    """Before anything else: every thread and forked worker inherits it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_benchmark():
    for path in (str(SOURCE), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from e2ebench import harness

    return harness


def _child(args: list, timeout: float = 170.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _setup_probes(workload: str, seed: int, count: int) -> list:
    probes = []
    for _ in range(count):
        done = _child(["--setup-probe", "--workload", workload, "--seed", str(seed)])
        if done.returncode != 0:
            sys.exit(f"run.py: setup probe failed:\n{done.stdout}{done.stderr}")
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return probes


def _print_metrics(metrics: dict, table: dict) -> None:
    for name, value in metrics.items():
        unit, better = table[name]
        print(f"{name:42s} {value:16.6f} {unit:6s} ({better} is better)")


def run_once(args: argparse.Namespace) -> int:
    """One measured run; the result object is the last line printed."""
    harness = _import_benchmark()
    from e2ebench.machine import KeepAwake
    from e2ebench.metrics import END_TO_END, PER_LAYER

    with KeepAwake() as keep_awake:
        setups = _setup_probes(args.workload, args.seed, args.setup_probes)
        metrics, tally, record = harness.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            setups,
            block_s=args.block_seconds,
        )
        record["keep_awake"] = keep_awake.running
    table = PER_LAYER if args.trace else END_TO_END
    _print_metrics(metrics, table)
    leaked = record["leaked_threads"] + record["leaked_processes"]
    correct = tally.wrong == 0 and leaked == 0
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_setup_probe(args: argparse.Namespace) -> int:
    harness = _import_benchmark()
    import_s = time.perf_counter() - _STARTED
    print(json.dumps(harness.setup_probe(args.workload, args.seed, import_s)))
    return 0


def run_smoke(args: argparse.Namespace) -> int:
    """Tiny op counts, all four workloads, traced and untraced: the
    pre-commit check.  Exercises every code path, measures nothing."""
    _import_benchmark()
    from e2ebench.metrics import END_TO_END, PER_LAYER
    from e2ebench.workloads import WORKLOADS

    started = time.perf_counter()
    for name in WORKLOADS:
        for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
            done = _child(
                [
                    "--workload", name, "--seed", "1", "--trace", str(trace),
                    "--seconds", "0.8" if trace else "0.4",
                    "--block-seconds", "0.2", "--setup-probes", "1",
                ]
            )  # fmt: skip
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
            ok = (
                result.get("correct") is True
                and result.get("failed") == 0
                and set(result.get("metrics", ())) == set(table)
            )
            print(f"smoke {name:28s} trace={trace} {'ok' if ok else 'FAILED'}")
            if not ok:
                print(done.stdout + done.stderr)
                return 1
    print(f"smoke passed in {time.perf_counter() - started:.1f} s")
    return 0


def run_agreement(args: argparse.Namespace) -> int:
    _import_benchmark()
    from e2ebench.agreement import check_agreement

    def one_run(workload: str, seed: int) -> dict:
        done = _child(
            [
                "--workload", workload, "--seed", str(seed), "--trace", "0",
                "--seconds", str(args.seconds),
            ]
        )  # fmt: skip
        if done.returncode != 0:
            sys.exit(f"run.py: {workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        result["record"] = json.loads(lines[-2])["record"]
        return result

    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    report = check_agreement(bench, one_run, args.repeat, args.workload)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if report["agree"] else 1


def main() -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure: {SOURCE}/repro is missing")
    _pin()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--block-seconds", type=float, default=1.0)
    parser.add_argument("--setup-probes", type=int, default=SETUP_PROBES)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--out", help="with --check-agreement: write the report here")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args)
    if args.check_agreement:
        return run_agreement(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        return run_setup_probe(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
