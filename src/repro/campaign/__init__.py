"""Systematic crash-injection campaigns over the scheme grid.

Both campaigns drive the functional secure memory through a real
:class:`~repro.mem.wpq.WritePendingQueue` power-failure flush and
recover it along one shared crash path; only the oracle that judges
the recovered image differs.  The tuple campaign sweeps (crash point)
x (dropped tuple-component subset) x (update scheme) over small
deterministic workloads and checks each block against the writer's
intent; the app campaign runs a crash-safe KV store's own recovery over
pruned crash plans and checks the recovered store against the legal
frames.

See :mod:`repro.campaign.grid` for the scenarios, programs and grid
enumeration, :mod:`repro.campaign.engine` for the shared per-cell
crash/recovery prelude and the tuple oracle,
:mod:`repro.campaign.app_engine` for the app oracle,
:mod:`repro.campaign.plans` for crash-plan pruning, and
:mod:`repro.campaign.runner` for the parallel, cached campaign run.
"""

from repro.campaign.grid import (
    CAMPAIGN_SCHEMES,
    DROP_SUBSETS,
    SINGLETON_SUBSETS,
    WORKLOADS,
    Scenario,
    enumerate_grid,
    persist_count,
    scenario_key,
    semantics_for,
)
from repro.campaign.engine import (
    OUTCOME_DETECTED,
    OUTCOME_INVARIANT_VIOLATION,
    OUTCOME_RECOVERED,
    OUTCOME_SILENT_CORRUPTION,
    OUTCOMES,
    CampaignCell,
    run_scenario,
)
from repro.campaign.app_engine import (
    APP_CAMPAIGN_SCHEMES,
    AppCampaignCell,
    AppScenario,
    run_app_scenario,
)
from repro.campaign.runner import (
    CampaignCache,
    default_campaign_cache_root,
    run_campaign,
)
from repro.campaign.plans import (
    CrashPlan,
    PlanSet,
    crosscheck_pruning,
    generate_plans,
)

__all__ = [
    "APP_CAMPAIGN_SCHEMES",
    "AppCampaignCell",
    "AppScenario",
    "CAMPAIGN_SCHEMES",
    "CampaignCache",
    "CampaignCell",
    "CrashPlan",
    "DROP_SUBSETS",
    "OUTCOMES",
    "OUTCOME_DETECTED",
    "OUTCOME_INVARIANT_VIOLATION",
    "OUTCOME_RECOVERED",
    "OUTCOME_SILENT_CORRUPTION",
    "PlanSet",
    "SINGLETON_SUBSETS",
    "Scenario",
    "WORKLOADS",
    "crosscheck_pruning",
    "default_campaign_cache_root",
    "enumerate_grid",
    "generate_plans",
    "persist_count",
    "run_app_scenario",
    "run_campaign",
    "run_scenario",
    "scenario_key",
    "semantics_for",
]
