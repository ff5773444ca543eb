"""Independent work shared between the process and one forked worker.

Three sites split work that is independent item by item: the trajectory
flows of the validation (:func:`slowphase.validation.trajectory_consistency`),
the phase and amplitude recursions of the response stage
(:func:`slowphase.response.expand_response_functions`), and the two halves
of the accuracy domain's phase columns
(:func:`slowphase.validation.accuracy_domain`).  Each item does the same
arithmetic in either process, so a split writes the bytes of the serial
run.  The code decides alone whether to split: :func:`can_split` reads the
process and the machine, and :func:`worth_splitting` adds a size gate for
the two sites whose work is small on small problems.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import WorkerError

# A fork round trip costs about 1.5 ms.  The response stage and the accuracy
# domain split only from this many grid values, (L+1) N d.  Medians on 2
# cores at one OpenBLAS thread, serial -> split, response stage and accuracy
# domain: `oracle` (grid 128, order 4, 1,280 values) 1.5 -> 3.0 and 1.2 ->
# 2.8 ms; `ei` (d = 6, grid 2^10) at order 4 (30,720 values) 5.8 -> 8.4 and
# 13.8 -> 13.5 ms, at order 5 (36,864) 7.2 -> 7.4 and 14.1 -> 12.1 ms, at
# order 9 (61,440) 13.5 -> 11.2 and 19.9 -> 16.3 ms.
SPLIT_SIZE = 32768


def can_split() -> bool:
    """Whether this process may share work with a forked worker:
    ``os.fork`` exists, two CPUs are usable, and the process runs one OS
    thread (a fork copies only the calling thread, so a forked BLAS pool
    could deadlock the worker, and Python 3.12 warns of it)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def worth_splitting(size: int) -> bool:
    """Whether work over ``size`` grid values, (L+1) N d, splits: at least
    ``SPLIT_SIZE`` and :func:`can_split`.  The gate reads sizes, never
    timings, so a run's work and traced counts repeat."""
    return size >= SPLIT_SIZE and can_split()


def with_worker(mine, theirs, task: str):
    """``(mine(), theirs())``, with ``theirs`` run in a forked worker.

    A fork, not a fresh interpreter: the worker needs no import, and a
    user model's closures, which cannot be pickled, come with it.  The
    worker pickles ``(ok, result or exception)`` down a pipe and ends
    in ``os._exit``, so it never returns into the caller's stack.  Its
    exception is raised here again, type, message and attributes as
    pickled; a worker that exits without a result raises WorkerError
    naming ``task``.  The worker is reaped on every path, and killed first
    if ``mine`` raises (KeyboardInterrupt included).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, theirs())
            except BaseException as exc:
                payload = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            result = mine()
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if not data:
        raise WorkerError(
            f"{task} worker exited with status "
            f"{os.waitstatus_to_exitcode(status)} and sent no result"
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return result, value
