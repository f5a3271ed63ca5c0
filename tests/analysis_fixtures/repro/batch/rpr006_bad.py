"""RPR006 positives: unpicklable payloads at the pool/executor boundary."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.resilience import Worker


def launch(ctx, payload, pool):
    proc = ctx.Process(target=lambda: payload.run())  # violation: lambda
    proc.start()
    pool.apply_async(lambda x: x + 1, (1,))  # violation: lambda

    def helper():
        return payload.run()

    ctx.Process(target=helper).start()  # violation: closure


def fan_out(items):
    executor = ProcessPoolExecutor()

    def work(item):
        return item * 2

    return [executor.submit(work, item) for item in items]  # violation


def fan_out_threads(items, solver):
    executor = ThreadPoolExecutor()
    results = list(executor.map(lambda i: solver.solve(i), items))  # violation

    def work(item):
        return solver.solve(item)

    results.extend(executor.submit(work, item) for item in items)  # violation
    return results


def run_in_child(payload):
    Worker(lambda: payload.run(), ())  # violation: lambda

    def target():
        return payload.run()

    return Worker(target, (), 1.0)  # violation: closure
