"""Tests for repro.sweep — the vectorized flow-level sweep engine.

Covers the scenario grid (hashing, round-trips, chunking), the lockstep
flow core (determinism, sanity, NaN-row isolation), the cellular rate
matrix equivalence with the scalar process, the fidelity golden gate at
its pinned tolerances, the flow-vs-packet throughput ratio, and the CLI.
"""

import json
import time

import numpy as np
import pytest

from repro import cli
from repro.simulation.links import CellularRateProcess, cellular_rate_matrix
from repro.sweep import (
    DEFAULT_TOLERANCES,
    ScenarioGrid,
    SweepPath,
    golden_grid,
    pack_fleet,
    run_fidelity,
    run_fleet,
    run_scenarios,
    split_grid,
)

MBPS = 125_000.0


def small_grid(protocols=("cubic", "reno"), seeds=(0, 1), duration=2.0):
    return ScenarioGrid(
        paths=(
            SweepPath(
                bandwidth_bytes_per_sec=10 * MBPS,
                propagation_delay=0.025,
                buffer_bytes=125_000.0,
                label="t10",
            ),
            SweepPath(
                bandwidth_bytes_per_sec=4 * MBPS,
                propagation_delay=0.04,
                buffer_bytes=40_000.0,
                label="t4",
            ),
        ),
        protocols=protocols,
        seeds=seeds,
        duration=duration,
    )


# ----------------------------------------------------------------------
# Scenario grid
# ----------------------------------------------------------------------
class TestScenarioGrid:
    def test_expand_is_the_full_cross_product(self):
        grid = small_grid()
        scenarios = grid.expand()
        assert len(scenarios) == len(grid) == 2 * 2 * 2
        labels = {s.label for s in scenarios}
        assert len(labels) == 8  # all distinct

    def test_grid_id_is_content_derived(self):
        grid = small_grid()
        assert grid.grid_id == small_grid().grid_id
        assert grid.grid_id != small_grid(seeds=(0, 2)).grid_id

    def test_scenario_ids_are_stable_and_distinct(self):
        scenarios = small_grid().expand()
        ids = [s.scenario_id for s in scenarios]
        assert len(set(ids)) == len(ids)
        assert ids == [s.scenario_id for s in small_grid().expand()]

    def test_params_round_trip(self):
        grid = small_grid()
        clone = ScenarioGrid.from_params(
            json.loads(json.dumps(grid.to_params()))
        )
        assert clone == grid
        assert clone.grid_id == grid.grid_id

    def test_unknown_protocol_is_rejected_with_available_list(self):
        with pytest.raises(ValueError, match="ledbat"):
            small_grid(protocols=("cubic", "ledbat"))

    def test_split_grid_covers_exactly_the_scenarios(self):
        grid = small_grid(seeds=tuple(range(5)))
        chunks = split_grid(grid, chunk_size=4)
        assert all(len(c) <= 4 for c in chunks)
        chunk_ids = [
            s.scenario_id for chunk in chunks for s in chunk.expand()
        ]
        assert sorted(chunk_ids) == sorted(
            s.scenario_id for s in grid.expand()
        )

    def test_from_profile_maps_iboxnet_fields(self):
        profile = {
            "bandwidth_bytes_per_sec": 2e6,
            "propagation_delay_sec": 0.03,
            "buffer_bytes": 60_000.0,
            "include_cross_traffic": True,
            "cross_traffic": {
                "bin_edges": [0.0, 1.0, 2.0],
                "rates_bytes_per_sec": [1e5, 2e5],
            },
        }
        path = SweepPath.from_profile(profile, label="learnt")
        assert path.bandwidth_bytes_per_sec == 2e6
        assert path.propagation_delay == 0.03
        assert path.ct_rates_bytes_per_sec == (1e5, 2e5)
        fleet = pack_fleet(
            ScenarioGrid(
                paths=(path,), protocols=("cubic",), seeds=(0,), duration=2.5
            ).expand()
        )
        # Replayed CT series lands on the interval grid as a step fn.
        assert fleet.cross_rate[0, 0] == 1e5
        assert fleet.cross_rate[0, 150] == 2e5
        assert fleet.cross_rate[0, -1] == 2e5


# ----------------------------------------------------------------------
# Cellular rate matrix
# ----------------------------------------------------------------------
class TestCellularRateMatrix:
    def test_rows_match_the_scalar_process(self):
        means = [1.5e6, 4e5, 2.5e6]
        seeds = [3, 11, 42]
        times, rates = cellular_rate_matrix(means, duration=5.0, seeds=seeds)
        for i, (mean, seed) in enumerate(zip(means, seeds)):
            scalar = CellularRateProcess(mean, duration=5.0, seed=seed)
            expected = np.array([scalar.rate_at(t) for t in times])
            np.testing.assert_array_equal(rates[i], expected)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            cellular_rate_matrix([1e6, 2e6], duration=5.0, seeds=[1])
        with pytest.raises(ValueError):
            cellular_rate_matrix([-1.0], duration=5.0, seeds=[1])


# ----------------------------------------------------------------------
# Flow core
# ----------------------------------------------------------------------
class TestFlowCore:
    def test_deterministic_across_runs(self):
        first = run_scenarios(small_grid().expand())
        second = run_scenarios(small_grid().expand())
        for a, b in zip(first.scenarios, second.scenarios):
            assert a.to_dict() == b.to_dict()

    def test_throughput_bounded_by_bottleneck(self):
        fleet = run_scenarios(small_grid(duration=4.0).expand())
        for s in fleet.scenarios:
            assert s.status == "ok"
            cap_mbps = (10 if s.label.startswith("t10") else 4)
            # Delivery credit leads the drain slightly (queue fill), so
            # allow a few percent above the line rate.
            assert s.mean_rate_mbps <= cap_mbps * 1.05
            assert s.mean_rate_mbps > 0.3 * cap_mbps
            assert np.isfinite(s.mean_delay_ms)
            assert s.p95_delay_ms >= s.mean_delay_ms * 0.5
            assert 0.0 <= s.loss_percent <= 100.0

    def test_delay_floor_is_the_propagation_delay(self):
        fleet = run_scenarios(small_grid(duration=3.0).expand())
        for s in fleet.scenarios:
            floor_ms = 25.0 if s.label.startswith("t10") else 40.0
            assert s.mean_delay_ms >= floor_ms

    def test_all_protocols_run(self):
        grid = small_grid(
            protocols=("cubic", "reno", "vegas", "bbr", "cbr", "rtc"),
            seeds=(0,),
        )
        fleet = run_scenarios(grid.expand())
        assert fleet.n_faulted == 0
        assert {s.protocol for s in fleet.scenarios} == {
            "cubic", "reno", "vegas", "bbr", "cbr", "rtc",
        }

    def test_nan_row_is_isolated_and_reported(self):
        scenarios = small_grid(duration=2.0).expand()
        clean = run_fleet(pack_fleet(scenarios))
        poisoned_fleet = pack_fleet(scenarios)
        poisoned_fleet.service_rate[2, :] = np.nan
        poisoned = run_fleet(poisoned_fleet)
        assert poisoned.scenarios[2].status == "faulted"
        assert poisoned.scenarios[2].fault_reason
        assert poisoned.n_faulted == 1
        for i, (a, b) in enumerate(
            zip(clean.scenarios, poisoned.scenarios)
        ):
            if i == 2:
                continue
            assert b.status == "ok"
            assert b.mean_rate_mbps == a.mean_rate_mbps
            assert b.mean_delay_ms == a.mean_delay_ms
            assert b.p95_delay_ms == a.p95_delay_ms
            assert b.loss_percent == a.loss_percent

    def test_negative_parameter_row_is_faulted(self):
        fleet = pack_fleet(small_grid(duration=1.0).expand())
        fleet.buffer_bytes[0] = -5.0
        result = run_fleet(fleet)
        assert result.scenarios[0].status == "faulted"
        assert all(s.status == "ok" for s in result.scenarios[1:])

    def test_emits_sweep_telemetry(self):
        from repro import obs

        obs.configure(enabled=True)
        run_scenarios(small_grid(duration=1.0).expand())
        snapshot = obs.metrics_snapshot()
        assert snapshot["counters"]["sweep.scenarios"] == 8
        assert "sweep.scenarios_per_sec" in snapshot["histograms"]


# ----------------------------------------------------------------------
# Fidelity golden gate (pinned tolerances; drift fails tier-1)
# ----------------------------------------------------------------------
class TestFidelityGolden:
    def test_golden_grid_passes_pinned_tolerances(self):
        report = run_fidelity(grid=golden_grid())
        assert report.tolerances == DEFAULT_TOLERANCES
        assert report.passed, report.format_report()
        # The gate is meaningful only if it measured something.
        assert len(report.comparisons) == len(golden_grid())
        assert report.worst["throughput_rel"] <= 0.15
        assert report.worst["mean_delay_rel"] <= 0.15
        assert report.worst["loss_abs"] <= 0.02

    def test_report_dict_is_json_able(self):
        grid = ScenarioGrid(
            paths=(golden_grid().paths[0],),
            protocols=("reno",),
            seeds=(1,),
            duration=3.0,
        )
        report = run_fidelity(grid=grid)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_scenarios"] == 1
        assert set(payload["worst"]) == set(DEFAULT_TOLERANCES)


# ----------------------------------------------------------------------
# Flow-vs-packet throughput (the reason this subsystem exists)
# ----------------------------------------------------------------------
def _speedup_grid(n_paths, protocols, seeds, duration=4.0):
    """Paths spread over 3.2..16 Mbit/s and 10..60 ms, buffers at 2 BDP."""
    rates = np.linspace(4e5, 2e6, n_paths)
    delays = np.linspace(0.01, 0.06, n_paths)
    paths = tuple(
        SweepPath(
            bandwidth_bytes_per_sec=float(rate),
            propagation_delay=float(delay),
            buffer_bytes=float(2 * rate * 2 * delay),
            label=f"speedup-{k}",
        )
        for k, (rate, delay) in enumerate(zip(rates, delays))
    )
    return ScenarioGrid(
        paths=paths,
        protocols=tuple(protocols),
        seeds=tuple(range(seeds)),
        duration=duration,
    )


class TestSweepSpeedup:
    def test_flow_core_is_50x_faster_than_packet_engine(self):
        from repro.simulation.topology import run_flow
        from repro.sweep.fidelity import path_config_for

        # Flow side: 8 paths x 4 protocols x 8 seeds packed once, one
        # warm-up, then one timed run_fleet.
        grid = _speedup_grid(8, ("cubic", "reno", "bbr", "rtc"), 8)
        fleet = pack_fleet(grid.expand())
        run_fleet(fleet)
        t0 = time.perf_counter()
        run_fleet(fleet)
        flow_rate = len(grid) / (time.perf_counter() - t0)

        # Packet side: the same scenario shape through the DES engine,
        # timed once with no warm-up.
        specs = _speedup_grid(2, ("cubic", "reno"), 1).expand()[:2]
        t0 = time.perf_counter()
        for spec in specs:
            run_flow(path_config_for(spec.path), spec.protocol,
                     spec.duration, spec.seed)
        packet_rate = len(specs) / (time.perf_counter() - t0)

        ratio = flow_rate / packet_rate
        assert ratio >= 50.0, (
            f"flow {flow_rate:.0f}/s vs packet "
            f"{packet_rate:.1f}/s = {ratio:.1f}x"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestSweepCLI:
    def test_sweep_run_writes_manifest_and_results(self, tmp_path, capsys):
        rc = cli.main([
            "sweep", "run",
            "--bandwidth-mbps", "8",
            "--delay-ms", "20",
            "--buffer-kb", "80",
            "--protocols", "cubic", "reno",
            "--seeds", "2",
            "--duration", "1.5",
            "--manifest-dir", str(tmp_path / "manifests"),
            "--output", str(tmp_path / "out.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4 scenario(s), 0 faulted" in out
        payload = json.loads((tmp_path / "out.json").read_text())
        assert len(payload["scenarios"]) == 4
        assert all(
            row["status"] == "ok" for row in payload["scenarios"]
        )
        manifests = list((tmp_path / "manifests").glob("manifest-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["command"] == "sweep"
        assert all(j["status"] == "ok" for j in manifest["jobs"])

    def test_sweep_run_from_grid_file(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid = small_grid(duration=1.0)
        grid_path.write_text(json.dumps(grid.to_params()))
        rc = cli.main(["sweep", "run", "--grid", str(grid_path)])
        assert rc == 0
        assert grid.grid_id[:12] in capsys.readouterr().out

    def test_sweep_run_rejects_bad_grid_file(self, tmp_path):
        bad = tmp_path / "grid.json"
        bad.write_text("{not json")
        assert cli.main(["sweep", "run", "--grid", str(bad)]) == 2

    def test_sweep_run_rejects_unknown_protocol(self):
        rc = cli.main([
            "sweep", "run", "--protocols", "carrier-pigeon",
            "--duration", "1.0",
        ])
        assert rc == 2
