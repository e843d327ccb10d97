"""Systematic crash-injection campaign over the scheme grid.

The campaign sweeps (crash point) x (dropped tuple-component subset) x
(update scheme) over a set of small deterministic workloads, drives the
functional secure memory through a real
:class:`~repro.mem.wpq.WritePendingQueue` power-failure flush, and
classifies every cell of the grid by running the recovery checker
differentially against the writer's intent.

See :mod:`repro.campaign.grid` for the grid enumeration,
:mod:`repro.campaign.engine` for the per-cell crash/recovery drive, and
:mod:`repro.campaign.runner` for the parallel, cached campaign run.
"""

from repro.campaign.grid import (
    CAMPAIGN_SCHEMES,
    DROP_SUBSETS,
    SINGLETON_SUBSETS,
    WORKLOADS,
    Scenario,
    enumerate_grid,
    journal_plan,
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
from repro.campaign.runner import (
    AppCampaignCache,
    CampaignCache,
    default_campaign_cache_root,
    run_app_campaign,
    run_campaign,
)
from repro.campaign.app_engine import (
    APP_CAMPAIGN_SCHEMES,
    AppCampaignCell,
    AppScenario,
    app_journal_plan,
    app_scenario_key,
    run_app_scenario,
)
from repro.campaign.plans import (
    CrashPlan,
    PlanSet,
    crosscheck_pruning,
    generate_plans,
)

__all__ = [
    "APP_CAMPAIGN_SCHEMES",
    "AppCampaignCache",
    "AppCampaignCell",
    "AppScenario",
    "CAMPAIGN_SCHEMES",
    "CrashPlan",
    "PlanSet",
    "app_journal_plan",
    "app_scenario_key",
    "crosscheck_pruning",
    "generate_plans",
    "run_app_campaign",
    "run_app_scenario",
    "CampaignCache",
    "CampaignCell",
    "DROP_SUBSETS",
    "OUTCOMES",
    "OUTCOME_DETECTED",
    "OUTCOME_INVARIANT_VIOLATION",
    "OUTCOME_RECOVERED",
    "OUTCOME_SILENT_CORRUPTION",
    "SINGLETON_SUBSETS",
    "Scenario",
    "WORKLOADS",
    "default_campaign_cache_root",
    "enumerate_grid",
    "journal_plan",
    "run_campaign",
    "run_scenario",
    "scenario_key",
    "semantics_for",
]
