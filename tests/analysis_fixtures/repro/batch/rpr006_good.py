"""RPR006 negatives: top-level payloads on every pool/executor tier."""

from concurrent.futures import ThreadPoolExecutor

from repro.resilience import Worker


def _worker_entry(payload):
    return payload


def _solve_item(solver, item):
    return solver.solve(item)


def launch(ctx, payload):
    # fine: module-level callable + picklable args
    proc = ctx.Process(target=_worker_entry, args=(payload,))
    proc.start()


def run_in_child(payload):
    # fine: the child-process primitive with a module-level target
    return Worker(_worker_entry, (payload,), 1.0)


def fan_out(items, solver):
    # fine: thread executors take the same top-level payloads as process
    # pools, so the tier stays swappable
    executor = ThreadPoolExecutor()
    return [executor.submit(_solve_item, solver, item) for item in items]
