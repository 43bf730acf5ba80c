"""One workload, one process: the child `run.py` spawns per run, so
``peak_rss_mb`` means something and a crash cannot take the report
down.  Runs inside its own temp root (the current directory) and writes
its result record there as ``result.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()

    # The program is measured from outside: import it from this
    # checkout's src/, never from an installed copy.
    sys.path.insert(0, str(SRC))
    from repro import obs

    import harness
    import service
    import spec
    from compute_workloads import counterfactual, iboxml
    from serve_workloads import fleet_noop, recover_readback, serve_mix, serve_noop

    workloads = {
        "serve_noop": serve_noop,
        "fleet_noop": fleet_noop,
        "serve_mix": serve_mix,
        "recover_readback": recover_readback,
        "counterfactual": counterfactual,
        "iboxml": iboxml,
    }
    obs.configure(log_level="error")  # in-process layers log to stderr
    work_root = Path.cwd()
    service.service_env(work_root, SRC)
    traced = bool(args.trace)
    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=traced,
        sizes=spec.SMOKE if args.smoke else spec.FULL,
        setup_repeats=spec.SMOKE_SETUP_REPEATS if args.smoke else spec.SETUP_REPEATS,
        tracer=harness.Tracer() if traced else harness.NullTracer(),
    )
    try:
        result = workloads[args.workload](ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        service.stop_all()
    result.info["environment"] = harness.environment(REPO_ROOT, work_root)
    result.info["seconds"] = args.seconds
    result.info["setup_repeats"] = ctx.setup_repeats
    if traced:
        trace_path = args.out_dir / f"trace_{args.workload}.json"
        ctx.tracer.dump(trace_path)
        result.info["trace_file"] = trace_path.name
    Path("result.json").write_text(json.dumps(result.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
