"""The import footprint of repro processes and of the leases they fork.

No process needs scipy, and a forked lease imports nothing: every module
a job kind uses is loaded once in the parent (``runtime/batch.py``'s
preload), so a lazy import on the lease path fails here instead of
adding a cold import to every job.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.sweep import ScenarioGrid, SweepPath
from repro.trace.io import save_trace

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


def _run_python(code: str, *args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC_ROOT},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import repro.cli, repro.serve.daemon
from repro.analysis.stats import (
    distributions_match, ks_statistic, summary_distribution_ks,
)
from repro.discovery.sax import (
    gaussian_breakpoints, positive_delta_breakpoints,
)
from repro.trace.metrics import TraceSummary

def summary(rate):
    return TraceSummary(
        flow_id="f", protocol="x", packets_sent=100, packets_delivered=99,
        mean_rate_mbps=rate, p95_delay_ms=2 * rate, loss_percent=rate / 10,
        mean_delay_ms=rate,
    )

a, b = [0.1 * i for i in range(40)], [0.1 * i + 0.5 for i in range(30)]
d, p = ks_statistic(a, b)
assert 0 < d < 1 and 0 < p < 1
assert distributions_match(a, a)
ks = summary_distribution_ks(
    [summary(r) for r in a[1:]], [summary(r) for r in b]
)
assert set(ks) == {"p95_delay_ms", "loss_percent", "mean_rate_mbps"}
assert len(positive_delta_breakpoints(b)) == 4
assert len(gaussian_breakpoints(6)) == 5
print("ok")
"""


def test_repro_runs_without_scipy():
    assert _run_python(SCIPY_BLOCKED).strip() == "ok"


#: The parent imports only the serve daemon, then forks one lease per
#: request; each child reports the modules it gained while running.
LEASE_PROBE = """
import json, sys
from pathlib import Path
import repro.serve.daemon
from repro.serve import supervisor
from repro.serve.requests import normalize_request

run_job = supervisor._worker_entry

def entry(request, result_path):
    before = set(sys.modules)
    run_job(request, result_path)
    gained = sorted(set(sys.modules) - before)
    Path(result_path + ".modules").write_text(json.dumps(gained))

supervisor._worker_entry = entry
workdir = Path(sys.argv[1])
sup = supervisor.Supervisor(workers=1, results_dir=workdir / "results")
report = {}
for raw in json.loads((workdir / "requests.json").read_text()):
    lease = sup.dispatch(normalize_request(raw), lease=1)
    events = []
    while not events:
        sup.wait()
        events = sup.poll()
    report[raw["kind"]] = {
        "outcome": events[0].outcome,
        "gained": json.loads(
            Path(str(lease.result_path) + ".modules").read_text()
        ),
    }
print(json.dumps(report))
"""


def test_leases_import_nothing(tmp_path, cubic_trace):
    trace_path = tmp_path / "trace.npz"
    save_trace(cubic_trace, trace_path)
    grid = ScenarioGrid(
        paths=(
            SweepPath(
                bandwidth_bytes_per_sec=1.25e6,
                propagation_delay=0.02,
                buffer_bytes=50_000.0,
                label="lease-imports",
            ),
        ),
        protocols=("cubic",),
        seeds=(0,),
        duration=1.0,
    )
    cache = str(tmp_path / "cache")
    requests = [
        {"kind": "fit",
         "params": {"trace_path": str(trace_path), "cache_dir": cache}},
        {"kind": "simulate",
         "params": {"trace_path": str(trace_path), "cache_dir": cache,
                    "protocols": ["vegas"], "duration": 2.0}},
        {"kind": "sweep", "params": {"grid": grid.to_params()}},
    ]
    (tmp_path / "requests.json").write_text(json.dumps(requests))
    report = json.loads(_run_python(LEASE_PROBE, str(tmp_path)))
    assert report == {
        kind: {"outcome": "completed", "gained": []}
        for kind in ("fit", "simulate", "sweep")
    }
