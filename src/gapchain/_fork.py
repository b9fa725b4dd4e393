"""One pool of forked workers for independent items of work.

The Maier row scan (one item per row) and the Maynard row build (one item
per batch of rows) both split their work into items that depend on
nothing but state fixed before the split.  `fork_map` runs such items on
one forked worker per usable CPU.  The workers inherit the state by fork,
so it is never pickled: only the items go out and the results come back.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

# set in each pool worker by _start_worker, never in the parent
_worker_func: Callable[[Any, Any], Any] | None = None
_worker_state: Any = None


def _start_worker(func: Callable[[Any, Any], Any], state: Any) -> None:
    global _worker_func, _worker_state
    _worker_func, _worker_state = func, state


def _run_item(item: Any) -> Any:
    return _worker_func(_worker_state, item)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fork_map(
    func: Callable[[Any, Any], Any], items: Sequence[Any], state: Any
) -> list[Any]:
    """[func(state, item) for item in items], in the order of items.

    The items go to min(usable CPUs, len(items)) forked workers, one at a
    time as each worker gets free.  func and state reach the workers by
    fork (a forked worker's initializer arguments are not pickled), so
    func may write into memory that state shares with this process.  A
    worker that dies (a kill, the OOM killer) raises BrokenProcessPool
    here once the other workers are stopped.  The items are run here, one
    after another, when there is one worker, when the platform cannot
    fork, when this process is itself a daemonic pool worker, when other
    threads are alive (forking a threaded process can deadlock) or when
    starting the pool fails.
    """
    import multiprocessing
    import threading

    workers = min(usable_cpus(), len(items))
    if (
        workers > 1
        and "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    ):
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("fork")
        try:
            pool = ProcessPoolExecutor(workers, ctx, _start_worker, (func, state))
        except OSError:  # no pipe or lock for the pool: run here instead
            pass
        else:
            with pool:
                try:  # the first item forks every worker
                    futures = [pool.submit(_run_item, items[0])]
                except OSError:  # a fork failed: stop the workers that started
                    for proc in pool._processes.values():
                        proc.terminate()
                        proc.join()
                else:
                    futures += [pool.submit(_run_item, item) for item in items[1:]]
                    return [future.result() for future in futures]
    return [func(state, item) for item in items]
