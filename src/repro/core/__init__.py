"""The paper's contribution: migration techniques + working-set control.

* :mod:`repro.core.precopy` — iterative pre-copy (baseline, §II);
* :mod:`repro.core.postcopy` — post-copy with active push + demand paging
  (baseline, §II);
* :mod:`repro.core.agile` — Agile migration (§III-§IV): one live round
  that transfers only resident pages and swap *offsets* for cold pages,
  followed by post-copy's push, whose faults are served from the source
  or from the portable per-VM swap device (VMD);
* :mod:`repro.core.scattergather` — scatter-gather evacuation through
  the VMD (extension, the authors' companion system);
* :mod:`repro.core.umem` — the destination fault handler (UMEM analogue);
* :mod:`repro.core.wss` — transparent working-set-size tracking (§IV-D);
* :mod:`repro.core.trigger` — watermark migration trigger + VM selection
  (§III-B).

:data:`ENGINES` maps each technique name to its engine class.
"""

from repro.core.base import (
    MigrationConfig,
    MigrationManager,
    MigrationOutcome,
    MigrationReport,
)
from repro.core.precopy import PrecopyMigration
from repro.core.scattergather import ScatterGatherMigration
from repro.core.postcopy import PostcopyMigration
from repro.core.agile import AgileMigration
from repro.core.umem import UmemFaultHandler
from repro.core.wss import WssTracker, WssTrackerConfig
from repro.core.trigger import WatermarkTrigger, select_vms_to_migrate

#: technique name -> engine class
ENGINES = {cls.technique: cls for cls in (
    PrecopyMigration, PostcopyMigration, AgileMigration,
    ScatterGatherMigration)}

__all__ = [
    "AgileMigration",
    "ENGINES",
    "MigrationConfig",
    "MigrationManager",
    "MigrationOutcome",
    "MigrationReport",
    "PostcopyMigration",
    "PrecopyMigration",
    "ScatterGatherMigration",
    "UmemFaultHandler",
    "WatermarkTrigger",
    "WssTracker",
    "WssTrackerConfig",
    "select_vms_to_migrate",
]
