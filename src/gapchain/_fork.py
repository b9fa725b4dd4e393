"""Forked workers and threads for independent items of work.

The Maier row scan (one item per row), the full-round tests of listed
primes (one per block of rounds) and the Maynard row build (one per
batch of rows) split their work into items that depend on nothing but
state fixed before the split.  `fork_map` runs such items in one process
per usable CPU, the caller and the bare workers it forks, in guided
chunks: runs of consecutive items that shrink as the items run out, so
a map of many cheap items costs a few round trips and the last chunks
still balance the processes.  The workers inherit the state by fork:
only chunk indices go out, down one task pipe that the caller reads
too, and only the workers' results come back, each down a pipe of its
own.  `thread_map` runs items on threads instead, for numpy work that
drops the GIL (the weight gathers), and joins them all, so `fork_map`
can fork.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Any, Callable, NoReturn, Sequence

_in_worker = False  # True while a fork_map process runs its chunks


class WorkerLost(RuntimeError):
    """A fork_map worker died or sent back no results."""


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _guided_chunks(n: int, workers: int) -> list[tuple[int, int]]:
    """Runs [a, b) over range(n), each ceil((n - a) / (2 workers)) long."""
    chunks, a = [], 0
    while a < n:
        b = a - (a - n) // (2 * workers)
        chunks.append((a, b))
        a = b
    return chunks


def fork_map(
    func: Callable[[Any, Any], Any], items: Sequence[Any], state: Any
) -> list[Any]:
    """[func(state, item) for item in items], in the order of items.

    The items run in min(usable CPUs, len(items)) processes, this one
    and the workers it forks, in guided chunks: runs of ceil(remaining
    items / (2 processes)) items, each to the next process that gets
    free; the first error in the order of items is the one raised.  func
    and state reach the workers by fork, so func may write into memory
    that state shares with this process.  A map inside an item runs
    serially in that item's process.  This process reaps every worker,
    killing them first if it is interrupted.  A worker that dies (a kill,
    the OOM killer) or sends no results (one it cannot pickle) raises
    WorkerLost.  Every item runs here when there is one usable CPU, when
    the platform cannot fork, inside a fork_map item or a daemonic
    multiprocessing worker, when other threads are alive (forking a
    threaded process can deadlock) or when a pipe or a fork fails.
    """
    import threading

    n = min(usable_cpus(), len(items))
    mp = sys.modules.get("multiprocessing")  # loaded only if something uses it
    daemonic = mp is not None and mp.current_process().daemon
    if (n > 1 and hasattr(os, "fork") and not _in_worker and not daemonic
            and threading.active_count() == 1):
        chunks = _guided_chunks(len(items), n)
        held: list[int] = []  # the pipe ends this process holds
        pids: list[int] = []  # the workers not yet reaped
        try:
            try:
                held += os.pipe()  # the task pipe
                for _ in range(n - 1):
                    held += os.pipe()  # this worker's result pipe
                    pid = os.fork()
                    if pid == 0:
                        _work(func, items, state, chunks, held)
                    pids.append(pid)
                    os.close(held.pop())
            except OSError:  # no pipe or no fork: the items run here
                pass
            else:
                # one 4-byte record per chunk; EOF tells a process to stop
                records = [k.to_bytes(4, "little") for k in range(len(chunks))]
                with open(held.pop(1), "wb") as task:
                    task.write(b"".join(records))
                done = _run_chunks(func, items, state, chunks, held[0])
                os.close(held.pop(0))
                # a worker writes once the task pipe is empty, so reading the
                # result pipes to EOF in turn waits on no worker that waits
                codes = []
                while pids:
                    with open(held.pop(0), "rb") as pipe:
                        data = pipe.read()
                    status = os.waitpid(pids[0], 0)[1]
                    codes.append(os.waitstatus_to_exitcode(status))
                    pids.pop(0)
                    if codes[-1] == 0:
                        done.update(pickle.loads(data))
                if any(codes) or len(done) < len(chunks):
                    raise WorkerLost(f"fork_map workers exited with codes {codes}")
                errors = {chunks[k][0] + len(out): exc
                          for k, (out, exc) in done.items() if exc is not None}
                if errors:
                    raise errors[min(errors)]
                return [out for k in range(len(chunks)) for out in done[k][0]]
        finally:
            import signal

            for pid in pids:  # left by a failed fork or an interrupt
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for fd in held:
                os.close(fd)
    return [func(state, item) for item in items]


def _run_chunks(func: Callable[[Any, Any], Any], items: Sequence[Any], state: Any,
                chunks: list[tuple[int, int]], task: int) -> dict[int, Any]:
    """Run each chunk named on the task pipe: {chunk: (results, error)},
    the results up to the chunk's first error."""
    global _in_worker
    done: dict[int, Any] = {}
    _in_worker = True
    try:
        while record := os.read(task, 4):
            k = int.from_bytes(record, "little")
            out: list[Any] = []
            done[k] = (out, None)
            for i in range(*chunks[k]):
                try:
                    out.append(func(state, items[i]))
                except Exception as exc:
                    done[k] = (out, exc)
                    break
    finally:
        _in_worker = False
    return done


def _work(func: Callable[[Any, Any], Any], items: Sequence[Any], state: Any,
          chunks: list[tuple[int, int]], held: list[int]) -> NoReturn:
    """A worker: run its chunks, send their results, leave."""
    status = 1
    try:
        for fd in held[1:-1]:
            os.close(fd)
        done = _run_chunks(func, items, state, chunks, held[0])
        with open(held[-1], "wb") as out:
            out.write(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


def thread_map(
    func: Callable[[Any, Any], Any], items: Sequence[Any], state: Any
) -> list[Any]:
    """[func(state, item) for item in items], in the order of items.

    The first item runs here, the others on min(usable CPUs, len(items)) - 1
    threads, all joined before this returns or raises the first error in
    the order of items.  With one usable CPU every item runs here.
    """
    n = min(usable_cpus(), len(items))
    if n < 2:
        return [func(state, item) for item in items]
    import threading

    out, errors = [None] * len(items), {}
    rest = iter(range(1, len(items)))  # each thread takes the next item

    def run(indices: Any) -> None:
        for i in indices:
            try:
                out[i] = func(state, items[i])
            except BaseException as exc:
                errors[i] = exc

    threads = [threading.Thread(target=run, args=(rest,)) for _ in range(n - 1)]
    try:
        for thread in threads:
            thread.start()
        run([0])
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    if errors:
        raise errors[min(errors)]
    return out
