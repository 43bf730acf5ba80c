#!/usr/bin/env python3
"""The repo benchmark: whole-path job latency and throughput, the
paper pipeline, and a per-layer walk.  See README.md beside this file.

    python3 benchmarks/e2e/run.py                     # every workload, both runs
    python3 benchmarks/e2e/run.py --workload serve_noop --seed 3
    python3 benchmarks/e2e/run.py --smoke             # tiny sizes, plumbing only
    python3 benchmarks/e2e/run.py --repeat 2 --check-spread

The driver's form - one workload, one run, one JSON object on the last
line of stdout:

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in a child process of its own (`worker.py`) inside a
temp root under ``benchmarks/e2e/.work/``, which also holds the profile
cache; the child's process group is reaped and the temp root removed
whatever happens.
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
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORK_DIR = HERE / ".work"
DEFAULT_OUT_DIR = HERE / "out"
#: The driver allows a run 180 s; leave room to reap and report.
CHILD_TIMEOUT_SEC = 165.0


class RunFailed(RuntimeError):
    """A workload child died, hung or left no result."""


# ----------------------------------------------------------------------
# One child per (workload, run)
# ----------------------------------------------------------------------
def _group_members(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap_group(pgid: int) -> int:
    """SIGTERM, then SIGKILL, whatever is left in the child's process
    group; returns how many processes had been left behind."""
    left = _group_members(pgid)
    if not left:
        return 0
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            break
        deadline = time.monotonic() + grace
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if not _group_members(pgid):
            break
    return len(left)


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool,
    out_dir: Path,
) -> Dict[str, Any]:
    """Run one workload once; returns its result record."""
    work_root = WORK_DIR / f"{workload}-{trace}-{os.getpid()}-{time.monotonic_ns()}"
    work_root.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--smoke", str(int(smoke)), "--out-dir", str(out_dir.resolve()),
    ]
    child = subprocess.Popen(
        argv, cwd=work_root, stdout=sys.stderr, stderr=sys.stderr,
        start_new_session=True,  # its own group: reaped as one
    )
    try:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_SEC)
        except subprocess.TimeoutExpired:
            code = None
        leaked = _reap_group(child.pid)
        if code is None:
            child.wait()
            raise RunFailed(f"{workload}: no result within {CHILD_TIMEOUT_SEC}s")
        result_file = work_root / "result.json"
        if code != 0 or not result_file.exists():
            raise RunFailed(f"{workload}: child exited {code} without a result")
        result = json.loads(result_file.read_text())
    finally:
        if child.poll() is None:
            _reap_group(child.pid)
            child.wait()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only succeeds once every temp root is gone
        except OSError:
            pass
    result["checks"].append(
        {
            "name": "hygiene.no_process_left_behind",
            "ok": leaked == 0,
            "detail": f"{leaked} processes outlived the workload",
        }
    )
    result["correct"] = result["correct"] and leaked == 0
    return result


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def _names(trace: int) -> List[str]:
    if trace:
        return [name for name, _, _ in spec.PER_LAYER]
    return [name for name, _, _, _ in spec.END_TO_END]


def print_result(result: Dict[str, Any]) -> None:
    """Every metric by name, with unit and sample count; failed checks."""
    run = "traced (per-layer)" if result["traced"] else "untraced (end-to-end)"
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(
        f"\n== {result['workload']}  seed {result['seed']}  {run}  "
        f"[{verdict}; attempted {result['attempted']}, failed {result['failed']}]",
    )
    for name in _names(int(result["traced"])):
        metric = result["metrics"].get(name)
        if metric is None:
            continue
        print(
            f"  {name:<34} {metric['value']:>14.6g} {metric['unit']:<6} "
            f"n={metric['samples']}",
        )
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']}: {check['detail']}")


def contract_line(result: Dict[str, Any], trace: int) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics.

    A per-layer metric this workload does not exercise reads 0; an
    end-to-end metric must have been measured.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    units = {n: u for n, u, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)}
    for name in _names(trace):
        metric = result["metrics"].get(name)
        if metric is None:
            if not trace:
                raise RunFailed(f"{result['workload']}: {name} was not measured")
            metrics[name] = {"value": 0.0, "unit": units[name]}
        else:
            metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def print_header(args: argparse.Namespace, seconds: float) -> None:
    print(
        f"benchmarks/e2e  seed={args.seed}  seconds/run={seconds}  "
        f"{'SMOKE sizes - numbers mean nothing' if args.smoke else 'full sizes'}"
    )
    print(f"  fixed settings: {json.dumps(spec.FIXED_SETTINGS)}")
    print(
        "  loopback/unix sockets only; flushes are cheap and reads come from "
        "the page cache here, so latencies are this sandbox's, not a device's"
    )


def check_spread(sets: List[List[Dict[str, Any]]]) -> bool:
    """Two sets of the same runs: end-to-end values within their bounds,
    exact values identical.  Prints the table; True when all agree."""
    ok = True
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    print("\n== repeatability: same code, same seed, two sets")
    print(f"  {'workload':<18}{'metric':<20}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}")
    first_set, second_set = sets[0], sets[1]
    for first, second in zip(first_set, second_set):
        if first["traced"]:
            for key in sorted(set(first["exact"]) | set(second["exact"])):
                same = first["exact"].get(key) == second["exact"].get(key)
                ok &= same
                print(
                    f"  {first['workload']:<18}{key:<34} exact "
                    f"{'identical' if same else 'DIFFERS'}"
                )
            continue
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            diff = abs(a - b) / abs(a) if a else float("inf")
            within = diff <= bound
            ok &= within
            print(
                f"  {first['workload']:<18}{name:<20}{a:>14.6g}{b:>14.6g}"
                f"{diff:>8.1%}{bound:>8.0%}{'' if within else '  EXCEEDS'}"
            )
    return ok


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: untraced run only, 1: traced run only (default: both)",
    )
    parser.add_argument("--list", action="store_true", help="list workloads and metrics")
    parser.add_argument("--out", type=Path, default=None, help="write the full report as JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: plumbing only")
    parser.add_argument("--repeat", type=int, default=1, help="run the whole set N times")
    parser.add_argument(
        "--check-spread", action="store_true",
        help="with --repeat 2: fail when the two sets differ by more than the bounds",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, why in spec.WORKLOADS:
            print(f"{name}: {why}")
            for metric, meaning in spec.E2E_MEANING[name].items():
                print(f"    {metric}: {meaning}")
        for name, unit, better, bound in spec.END_TO_END:
            print(f"end_to_end {name} [{unit}] {better} is better, bound {bound:.0%}")
        for name, unit, better in spec.PER_LAYER:
            print(f"per_layer  {name} [{unit}] {better} is better")
        return 0
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"run.py: no program to measure under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.check_spread and args.repeat != 2:
        parser.error("--check-spread compares exactly two sets: use --repeat 2")

    workloads = args.workload or spec.workload_names()
    seconds = args.seconds or (spec.SMOKE_SECONDS if args.smoke else spec.RUN_SECONDS)
    traces = [0, 1] if args.trace is None else [args.trace]
    driver_form = len(workloads) == 1 and args.trace is not None and args.repeat == 1
    out_dir = args.out.parent if args.out else DEFAULT_OUT_DIR

    print_header(args, seconds)
    sets: List[List[Dict[str, Any]]] = []
    try:
        for _ in range(args.repeat):
            results = []
            for workload in workloads:
                for trace in traces:
                    result = run_child(
                        workload, args.seed, seconds, trace, args.smoke, out_dir
                    )
                    print_result(result)
                    results.append(result)
            sets.append(results)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    everything = [r for results in sets for r in results]
    all_correct = all(r["correct"] for r in everything)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {
                    "smoke": args.smoke,
                    "seed": args.seed,
                    "seconds": seconds,
                    "claim": None,
                    "benchmark": spec.benchmark_json(),
                    "sets": sets,
                },
                indent=1,
            )
        )
        print(f"\nreport written to {args.out}")
    spread_ok = check_spread(sets) if args.check_spread else True
    print(
        f"\n{len(everything)} runs, "
        f"{'all correct' if all_correct else 'SOME INCORRECT'}"
        f"{'' if spread_ok else '; SPREAD EXCEEDS BOUNDS'}"
    )
    if driver_form:
        try:
            print(contract_line(everything[0], traces[0]))
        except RunFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
    return 0 if all_correct and spread_ok else 1


if __name__ == "__main__":
    sys.exit(main())
