"""Batch plugin that arms the fault harness from the environment.

The batch runner's plugin mechanism imports each ``--plugin`` module in
the parent *and* in every worker process (see
:func:`repro.batch.manifest.load_plugins`).  This module uses that
import as its installation hook: if the ``REPRO_FAULTS`` environment
variable holds a serialized :class:`~repro.resilience.faults.FaultPlan`,
it is installed process-wide on import.  Worker processes arm the plan
themselves (:class:`~repro.resilience.worker.Worker`); the plugin is
what arms the parent, and so the inline ``--jobs 0`` runs.  Hit
counters are per-process, so a plan that kills "the first matching
attempt" does so in each worker it reaches — pair it with a ``match``
filter on the backend name to let retries and fallbacks through.

Usage::

    REPRO_FAULTS=$(python -c "
    from repro.resilience import seeded_plan; print(seeded_plan(0).to_env())
    ") python -m repro batch tasks.json --plugin repro.resilience.chaos_plugin
"""

from __future__ import annotations

from .faults import install_env_faults

install_env_faults()
