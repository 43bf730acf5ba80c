"""Self-test of the benchmark's plumbing (not part of tier-1: pytest's
``testpaths`` is ``tests/``).  Run it with

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

It runs ``run.py --smoke`` once (about a minute) and checks that every
workload and every metric of `spec` comes out exactly once with its
unit, that nothing failed, that the trace files parse, and that no
process or temp dir is left behind.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics each workload's traced run must measure itself
#: (everything else it reports as 0: layer not exercised).
_WALK = {
    "transport.frame_codec_us", "requests.normalize_us",
    "journal.append_fsync_us", "journal.append_fsync_p95_us",
    "journal.append_nofsync_us", "journal.appends_per_job",
    "journal.bytes_per_job", "journal.segments", "supervisor.dispatch_us",
    "supervisor.lease_ms", "supervisor.read_result_us",
    "supervisor.result_bytes", "supervisor.restarts", "daemon.admit_us",
    "daemon.tick_idle_us", "daemon.job_walk_ms", "daemon.unattributed_ms",
    "daemon.shed", "obs.noop_span_ns", "client.fetch_ok_us",
    "bench.failed_share",
}
_LIVE = _WALK | {
    "client.polls_per_job", "client.retries", "client.latency_p50_ms",
    "queue.depth_p50", "supervisor.busy_share",
}
OWNED = {
    "serve_noop": _LIVE | {
        "transport.rtt_unix_us", "daemon.startup_s", "worker.run_ms.chaos",
    },
    "fleet_noop": _LIVE | {
        "transport.rtt_tcp_us", "router.hop_us", "router.spread_max_over_mean",
        "fleet.ready_s", "worker.run_ms.chaos",
    },
    "serve_mix": _LIVE | {
        "transport.rtt_unix_us", "daemon.startup_s", "worker.run_ms.fit",
        "worker.run_ms.simulate", "worker.run_ms.sweep", "cache.hit_ratio",
        "cache.miss_ms", "cache.hit_us", "sweep.scenarios_per_s",
        "datasets.generate_s_per_trace",
    },
    "recover_readback": _WALK | {
        "transport.rtt_unix_us", "daemon.startup_s", "daemon.recover_s",
        "journal.replay_us_per_job",
    },
    "counterfactual": {
        "obs.noop_span_ns", "trace.load_ms", "trace.summarize_ms",
        "trace.features_ms", "iboxnet.fit_ms", "iboxnet.profile_roundtrip_us",
        "iboxnet.fidelity_err", "emulator.simulate_ms", "emulator.pkts_per_s",
        "engine.events_per_s", "datasets.generate_s_per_trace",
        "bench.trace_overhead_share", "bench.failed_share",
        *(f"protocols.pkts_per_s.{p}" for p in ("vegas", "ledbat", "cubic", "bbr")),
        *(f"protocols.superlinearity.{p}" for p in ("vegas", "ledbat", "cubic", "bbr")),
    },
    "iboxml": {
        "obs.noop_span_ns", "lstm.forward_ms", "lstm.step_us", "lstm.bptt_ms",
        "iboxml.unroll_f64_ms_per_pkt", "iboxml.unroll_f32_ms_per_pkt",
        "iboxml.unroll_small_us_per_pkt", "iboxml.f32_vs_f64_rel_err",
        "iboxml.params", "iboxml.train_s_per_epoch", "iboxml.unroll_delay_err",
        "bench.trace_overhead_share", "bench.failed_share",
    },
}


def _bench_processes() -> list:
    """Live processes whose command line mentions this benchmark's
    worker or a service it spawned under ``.work``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        if "benchmarks/e2e/worker.py" in cmdline:
            found.append((int(entry), cmdline.replace("\0", " ")))
    return found


def test_benchmark_json_is_the_spec():
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    names = (
        [w["name"] for w in committed["workloads"]]
        + [m["name"] for m in committed["end_to_end"]]
        + [m["name"] for m in committed["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME_RE.match(n) for n in names)
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT_RE.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in committed["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert set(OWNED) == set(spec.workload_names())
    per_layer = {n for n, _, _ in spec.PER_LAYER}
    assert set().union(*OWNED.values()) == per_layer, "a per-layer metric has no owner"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text()), out.parent, proc.stdout


def test_every_workload_and_metric_once(smoke):
    report, _, _ = smoke
    assert report["smoke"] is True and report["claim"] is None
    (results,) = report["sets"]
    seen = [(r["workload"], r["traced"]) for r in results]
    assert sorted(seen) == sorted(
        (w, t) for w in spec.workload_names() for t in (False, True)
    )
    e2e = {n: u for n, u, _, _ in spec.END_TO_END}
    layers = {n: u for n, u, _ in spec.PER_LAYER}
    for r in results:
        assert r["correct"], [c for c in r["checks"] if not c["ok"]]
        assert r["failed"] == 0 and r["attempted"] >= 1
        wanted = OWNED[r["workload"]] if r["traced"] else set(e2e)
        units = layers if r["traced"] else e2e
        missing = wanted - set(r["metrics"])
        assert not missing, f"{r['workload']}: not measured: {sorted(missing)}"
        for name in wanted:
            metric = r["metrics"][name]
            assert metric["unit"] == units[name]
            assert metric["samples"] >= 1
        if not r["traced"]:
            assert all(r["metrics"][n]["value"] > 0 for n in e2e)
        else:
            assert r["metrics"]["bench.failed_share"]["value"] == 0
        env = r["info"]["environment"]
        for key in ("nproc", "python", "numpy", "blas_threads", "git_commit",
                    "state_dir_filesystem", "settings"):
            assert key in env


def test_contract_line_has_every_metric(smoke):
    report, _, _ = smoke
    for r in report["sets"][0]:
        line = json.loads(run.contract_line(r, int(r["traced"])))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        wanted = spec.PER_LAYER if r["traced"] else spec.END_TO_END
        assert list(line["metrics"]) == [m[0] for m in wanted]
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_trace_files_parse_and_spans_have_parents(smoke):
    _, out_dir, _ = smoke
    for workload in spec.workload_names():
        trace = json.loads((out_dir / f"trace_{workload}.json").read_text())
        spans = trace["spans"]
        assert spans, workload
        ids = {s["id"] for s in spans}
        for s in spans:
            assert s["parent"] is None or s["parent"] in ids
            assert s["end"] >= s["start"]
            assert set(s) == {"id", "name", "parent", "job_id", "start", "end"}
        assert trace["self_time_s"]


def test_nothing_left_behind(smoke):
    assert not (HERE / ".work").exists(), "a temp root survived"
    assert _bench_processes() == []


def test_smoke_never_touches_benchmark_json(smoke):
    _, _, stdout = smoke
    assert "SMOKE" in stdout
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
