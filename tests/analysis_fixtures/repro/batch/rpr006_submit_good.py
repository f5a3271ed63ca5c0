"""RPR006 negatives: a reused worker's next job is a top-level picklable."""

from typing import List, Optional

from repro.resilience import Worker


def _entry(payload):
    return payload


def hand_next(worker: Optional[Worker], payload, limit) -> Worker:
    # fine: the first job and every later one name a module-level target
    if worker is None:
        return Worker(_entry, (payload,), limit)
    worker.submit(_entry, (payload,), limit)
    return worker


def schedule(jobs: List[Worker], board, payload):
    # not a worker: `board` is no known pool, so its submit is not a
    # process boundary, and neither is a list of workers
    board.submit(lambda: payload)
    jobs.submit(lambda: payload)
