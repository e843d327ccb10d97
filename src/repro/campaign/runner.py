"""Parallel, cached execution of both crash campaigns.

Cells fan out through the generic sweep engine
(:func:`repro.sweep.runner.run_tasks`): identical scenarios are
deduplicated, cached cells are loaded from the content-addressed
:class:`CampaignCache` (keyed by scenario kind and fields + campaign
format + code version), and the rest run across a fork-based process
pool.  Cells are plain-JSON dataclasses, so parallel results are
bit-identical to a sequential run, cold or warm.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.app_engine import AppCampaignCell, AppScenario, run_app_scenario
from repro.campaign.engine import CampaignCell, run_scenario
from repro.campaign.grid import CrashPoint, scenario_key
from repro.sweep.cache import JSONCache, code_version, resolve_cache
from repro.sweep.runner import SweepReport, run_tasks

Cell = Union[CampaignCell, AppCampaignCell]


def default_campaign_cache_root() -> Path:
    env = os.environ.get("PLP_CAMPAIGN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "plp-repro" / "campaign"


class CampaignCache(JSONCache):
    """Directory of content-addressed cells of either campaign.

    A key digests its scenario's kind (:func:`~repro.campaign.grid.scenario_key`),
    so the cell stored under it is that kind's: an app cell is the one
    with an ``idiom``.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        super().__init__(root if root is not None else default_campaign_cache_root())

    def _encode(self, value: Cell) -> Dict:
        return asdict(value)

    def _decode(self, payload: Dict) -> Cell:
        if "idiom" in payload:
            return AppCampaignCell(**payload)
        return CampaignCell(**payload)


def run_cell(scenario: CrashPoint) -> Cell:
    """Run one cell of either campaign through its kind's oracle."""
    if isinstance(scenario, AppScenario):
        return run_app_scenario(scenario)
    return run_scenario(scenario)


def run_campaign(
    scenarios: Sequence[CrashPoint],
    workers: Optional[int] = None,
    cache: Union[CampaignCache, str, bool, None] = True,
) -> Tuple[List[Cell], SweepReport]:
    """Run every scenario, in parallel, through the campaign cache.

    Tuple :class:`~repro.campaign.grid.Scenario` and app
    :class:`~repro.campaign.app_engine.AppScenario` cells run alike.
    App cells must name roster workloads: a dynamic
    :class:`~repro.app.kvstore.AppWorkload` object goes through
    :func:`~repro.campaign.app_engine.run_app_scenario` directly, as its
    content is not part of the scenario key.

    Args:
        scenarios: Cells, in output order.
        workers: Process count (``None``: ``PLP_SWEEP_JOBS`` or CPU
            count; ``1`` runs inline).
        cache: ``True`` for the default on-disk cache, ``False``/``None``
            to disable, or a :class:`CampaignCache`/path.
            ``PLP_NO_RESULT_CACHE=1`` forces caching off.

    Returns:
        ``(cells, report)`` with ``cells[i]`` the classified outcome of
        ``scenarios[i]`` — bit-identical to a sequential run.
    """
    code = code_version()
    keys = [scenario_key(scenario, code) for scenario in scenarios]
    return run_tasks(
        list(scenarios),
        keys,
        run_cell,
        workers=workers,
        cache=resolve_cache(cache, CampaignCache),
    )
