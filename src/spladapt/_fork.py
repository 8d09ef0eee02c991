"""Run one call in a forked worker process while the caller goes on.

The experiment has independent parts: the target pretrain reads no source
stage, the fine-tune from base reads only the seeded base, and report rows
read only their own encoder. Each part is numpy-bound and owns its seeded
generator, so running one beside the caller changes no output byte: a
forked child keeps the parent's BLAS thread count, and its result comes
back pickled, which preserves every array exactly.

The worker pays only where it gets a core of its own (fork_pays). Anywhere
else the call runs inline, when the caller asks for its result.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fork_pays() -> bool:
    """True when the "fork" start method exists, the caller runs no other
    Python thread, and the environment pins BLAS to at most half of the
    usable cores, so caller and child each keep their threads busy without
    sharing a core.

    Every one of BLAS_THREAD_VARS that is set must name a positive thread
    count n with 2n <= cores, and at least one must be set: a BLAS left to
    size its own pool fills every core, and a child beside it only
    oversubscribes them. A child forked from a threaded caller can inherit
    a lock another thread held, and hang on it.
    """
    if ("fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity")):
        return False
    cores = len(os.sched_getaffinity(0))
    pins = [os.environ[v].strip() for v in BLAS_THREAD_VARS if os.environ.get(v, "").strip()]
    return bool(pins) and all(p.isdigit() and 0 < 2 * int(p) <= cores for p in pins)


def _run_and_send(fn: Callable[[], object], send) -> None:
    """Child side: send (result, None), or (None, (exception, traceback text))."""
    try:
        message = (fn(), None)
    except Exception as exc:
        message = (None, (exc, traceback.format_exc()))
    send.send(message)


@contextmanager
def forked(fn: Callable[[], T]) -> Iterator[Callable[[], T]]:
    """Yield a function to call once for fn()'s result.

    When fork_pays(), fn starts now in a forked child. The child inherits fn
    and all it reads through the fork, so nothing is pickled on the way in;
    only the result comes back. An exception fn raises in the child is
    re-raised by the yielded function with its own type and message, chained
    to the child's traceback. Otherwise the yielded function is fn itself,
    so the work runs inline when its result is asked for.

    Leaving the block reaps the child. A child whose result was not read,
    because the caller raised or never asked, is terminated first.
    """
    if not fork_pays():
        yield fn
        return
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_and_send, args=(fn, send))
    child.start()
    send.close()  # the child holds the only writer, so its death reads as EOF
    received = False

    def result() -> T:
        nonlocal received
        try:
            # before join: a result larger than the pipe buffer blocks the
            # child until it is read
            value, error = recv.recv()
        except EOFError:
            child.join()
            raise RuntimeError(f"forked worker exited with code {child.exitcode} "
                               f"before sending a result") from None
        received = True
        if error:
            exc, tb = error
            raise exc from RuntimeError(f"in the forked worker:\n{tb}")
        return value

    try:
        yield result
    finally:
        if not received:
            child.terminate()
        child.join()
        recv.close()
