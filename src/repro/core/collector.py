"""Pausing CPython's cyclic garbage collector while a formula is built.

Encoding, SBP construction, simplification and the PB solver's load allocate
tens of thousands of clause tuples, constraint terms, ``WClause`` lists
and watch pairs.  None of them takes part in a reference cycle, so
reference counting frees them; the cyclic collector would only
traverse them again, in every young and full pass that their own
allocations trigger while they pile up.  The builders run inside
:func:`collector_paused`.  Detection and search keep the collector on:
they run long, and nothing shows that their garbage is acyclic.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector off, then restore it.

    The collector is turned back on when the block ends, also by an
    exception, unless it was already off when the block began, so a
    caller's own ``gc.disable()`` holds and pauses nest.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
