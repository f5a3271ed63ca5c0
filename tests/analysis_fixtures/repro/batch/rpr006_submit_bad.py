"""RPR006 positives: unpicklable jobs handed to a reused worker."""

from typing import Optional

from repro.resilience import Worker


def _entry(payload):
    return payload


def hand_next(worker: Worker, payload):
    worker.submit(lambda: payload.run(), ())  # violation: lambda


def reuse(payload, limit):
    worker = Worker(_entry, (payload,), limit)

    def target():
        return payload.run()

    worker.submit(target, (), limit)  # violation: closure
    return worker


def maybe_reuse(worker: Optional[Worker], payload):
    if worker is not None:
        worker.submit(_entry, (lambda: payload,))  # violation: lambda argument
