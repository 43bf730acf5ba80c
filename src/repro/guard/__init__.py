"""repro.guard — fault injection and the hardening that answers it.

Two halves that prove each other (DESIGN.md §9):

* :mod:`repro.guard.chaos` — deterministic, seeded fault injectors for
  traces (duplicate uids, clock skew, NaN bursts, truncation, field
  corruption), the runtime (worker crashes / kills / hangs, torn cache
  writes), and a replayable campaign (``repro chaos --seed 7``);
* :mod:`repro.guard.drill` — the harness the process campaigns
  (service / fleet / transport / storage) share: a real daemon or fleet
  under test, the exactly-once ledger check, and the campaign report;
* :mod:`repro.guard.repair` — the trace sanitize/repair pipeline behind
  the ``strict|repair|skip`` load policies;
* :mod:`repro.guard.numeric` — training watchdogs: NaN/Inf update
  vetoes, gradient-explosion detection, best-so-far rollback.

Every guard emits ``repro.obs`` signals (``guard.repairs``,
``guard.skipped_updates``, ``guard.divergence_rollbacks``,
``cache.quarantined``, ``chaos.injected``) so a run that survived a
fault is never silently indistinguishable from a clean one.

Typical use::

    from repro.guard import repair_trace, run_campaign

    report = repair_trace(messy_trace)
    print(report.actions)          # {"drop_duplicate_uid": 3, ...}

    campaign = run_campaign("/tmp/chaos", seed=7, policy="repair")
    assert campaign.ok, campaign.format_report()
"""

from repro.guard.chaos import (
    FILE_FAULTS,
    TRACE_FAULTS,
    chaos_worker,
    inject_file_fault,
    inject_trace_fault,
    make_chaos_job,
    run_campaign,
    run_fleet_campaign,
    run_service_campaign,
    run_transport_campaign,
    tear_cache_entry,
)
from repro.guard.drill import CampaignReport
from repro.guard.netchaos import NetChaosConfig, NetChaosProxy
from repro.guard.numeric import DivergenceGuard, sanitize_training_arrays
from repro.guard.repair import (
    MAX_PLAUSIBLE_DELAY,
    REPAIR_POLICIES,
    RepairReport,
    check_policy,
    repair_trace,
    sanitize_trace,
)

__all__ = [
    "FILE_FAULTS",
    "TRACE_FAULTS",
    "CampaignReport",
    "NetChaosConfig",
    "NetChaosProxy",
    "chaos_worker",
    "inject_file_fault",
    "inject_trace_fault",
    "make_chaos_job",
    "run_campaign",
    "run_fleet_campaign",
    "run_service_campaign",
    "run_transport_campaign",
    "tear_cache_entry",
    "DivergenceGuard",
    "sanitize_training_arrays",
    "MAX_PLAUSIBLE_DELAY",
    "REPAIR_POLICIES",
    "RepairReport",
    "check_policy",
    "repair_trace",
    "sanitize_trace",
]
