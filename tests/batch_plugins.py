"""Test-only batch plugins: misbehaving backends for the fleet runner.

Loaded into workers through the batch plugin hook (``--plugin`` /
``plugins=``), these exercise the failure paths deterministically —
CI cannot rely on a "naturally slow" instance staying slow across
hardware:

* ``sleepy`` — blocks well past any task timeout and *ignores* the
  cancel predicate: only the coordinator's hard kill ends it.
* ``dozy`` — blocks but polls ``ctx.cancelled()``: the cooperative
  timeout path (``RunContext`` cancel + ``SolveConfig.time_limit``).
* ``crash-once`` — dies with ``os._exit`` on the first attempt (leaving
  a marker file named by ``REPRO_CRASH_MARKER``), then delegates to
  ``cdcl-incremental``: the retry-on-worker-death path.
* ``always-crash`` — dies on every attempt: retry exhaustion and the
  death -> fallback promotion path.
* ``shrug`` — answers UNKNOWN at once, never cancelled: the
  inconclusive -> fallback promotion path.
"""

import os
import time

from repro.api import Backend, get_backend, register_backend
from repro.api.results import Result

_BLOCK_SECONDS = 30.0  # far past every timeout the tests use


class SleepyBackend(Backend):
    """Sleeps through cancellation; only a hard kill stops it."""

    name = "sleepy"
    description = "test backend: uninterruptible sleep"

    def run(self, problem, config, ctx):
        limit = config.solve.time_limit
        time.sleep(_BLOCK_SECONDS if limit is None else limit + _BLOCK_SECONDS)
        return Result(status="UNKNOWN")


class DozyBackend(Backend):
    """Blocks but honours the RunContext cancel predicate."""

    name = "dozy"
    description = "test backend: cooperative blocking"

    def run(self, problem, config, ctx):
        deadline = time.monotonic() + _BLOCK_SECONDS
        while time.monotonic() < deadline:
            if ctx.cancelled():
                return Result(status="UNKNOWN", cancelled=True)
            time.sleep(0.005)
        return Result(status="UNKNOWN")


class CrashOnceBackend(Backend):
    """Kills its process on the first attempt, then answers normally."""

    name = "crash-once"
    description = "test backend: dies once, then delegates"

    def run(self, problem, config, ctx):
        marker = os.environ.get("REPRO_CRASH_MARKER", "")
        if marker and not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(3)
        return get_backend("cdcl-incremental").run(problem, config, ctx)


class AlwaysCrashBackend(Backend):
    """Kills its process on every attempt."""

    name = "always-crash"
    description = "test backend: dies every time"

    def run(self, problem, config, ctx):
        os._exit(3)


class ShrugBackend(Backend):
    """Gives up at once, inside any budget."""

    name = "shrug"
    description = "test backend: answers UNKNOWN at once"

    def run(self, problem, config, ctx):
        return Result(status="UNKNOWN")


def _register() -> None:
    # Re-registering under the same name is an overwrite, so loading
    # this plugin twice (parent + worker) is harmless.
    register_backend(SleepyBackend())
    register_backend(DozyBackend())
    register_backend(CrashOnceBackend())
    register_backend(AlwaysCrashBackend())
    register_backend(ShrugBackend())


_register()
