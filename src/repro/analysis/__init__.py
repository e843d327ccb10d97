"""Result aggregation and table/figure rendering for the harness."""

from repro.analysis.report import Table, normalized
from repro.analysis.campaign import (
    CampaignViolation,
    summarize,
    summarize_app,
    table1,
    table2,
    verify_campaign,
)

__all__ = [
    "CampaignViolation",
    "Table",
    "normalized",
    "summarize",
    "summarize_app",
    "table1",
    "table2",
    "verify_campaign",
]
