"""Run a generator in a forked worker process while the caller goes on.

The experiment has independent parts: the target pretrain reads no source
stage, the fine-tune from base reads only the seeded base, and report rows
read only their own encoder. Each part is numpy-bound and owns its seeded
generator, so running one beside the caller changes no output byte: a
forked child keeps the parent's BLAS thread count, and its results come
back pickled, which preserves every array exactly. (index.encode_corpus
runs its batches on a helper thread instead, under the same fork_pays.)

A worker runs one generator and hands back each value it yields as soon as
it exists, so the caller can go on with the first result while the worker
makes the next. The worker pays only where it gets cores of its own
(fork_pays). Anywhere else the generator runs inline, one value each time
the caller asks for the next.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import traceback
from contextlib import contextmanager
from typing import Callable, Generator, Iterator, TypeVar

T = TypeVar("T")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fork_pays() -> bool:
    """True when the "fork" start method exists, the caller runs no other
    Python thread, and the environment pins BLAS so that the caller, every
    live worker and one more each keep their threads busy without sharing
    a core. The one more is a forked worker here, or the helper thread of
    index.encode_corpus.

    Every one of BLAS_THREAD_VARS that is set must name a positive thread
    count n with (live workers + 2) * n <= cores, and at least one must be
    set: a BLAS left to size its own pool fills every core, and a worker
    beside it only oversubscribes them. Counting the live workers makes a
    forked block nested in another run inline where the cores are taken. A
    child forked from a threaded caller can inherit a lock another thread
    held, and hang on it; the same rule keeps a worker, which runs a sender
    thread, from forking workers of its own.
    """
    if ("fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1
            or not hasattr(os, "sched_getaffinity")):
        return False
    cores = len(os.sched_getaffinity(0))
    processes = len(multiprocessing.active_children()) + 2
    pins = [os.environ[v].strip() for v in BLAS_THREAD_VARS if os.environ.get(v, "").strip()]
    return bool(pins) and all(p.isdigit() and 0 < processes * int(p) <= cores for p in pins)


def _stream(gen: Generator, send) -> None:
    """Child side: send (value, None) for each value gen yields, then
    (None, (exception, traceback text)) if gen raised.

    Values are pickled here and written by a sender thread, so a value
    larger than the pipe buffer never holds up the next one while the
    caller is busy.
    """
    outbox: queue.SimpleQueue[bytes | None] = queue.SimpleQueue()

    def send_all() -> None:
        while (message := outbox.get()) is not None:
            send.send_bytes(message)

    sender = threading.Thread(target=send_all)
    sender.start()
    try:
        for value in gen:
            outbox.put(pickle.dumps((value, None), pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        outbox.put(pickle.dumps((None, (exc, traceback.format_exc())), pickle.HIGHEST_PROTOCOL))
    finally:
        outbox.put(None)
        sender.join()


@contextmanager
def forked(gen: Generator[T, None, None]) -> Iterator[Callable[[], T]]:
    """Yield a function that returns the next value gen yields.

    When fork_pays(), gen starts now in a forked child. The child inherits
    gen and all it reads through the fork, so nothing is pickled on the way
    in; only the values come back, in order. An exception gen raises in the
    child is re-raised by the yielded function, at the value gen failed to
    make, with its own type and message, chained to the child's traceback.
    A child that dies before its next value makes the yielded function
    raise RuntimeError naming its exit code. Otherwise the yielded function
    advances gen inline.

    Leaving the block terminates and reaps the child, as inline gen never
    runs past the last value read.
    """
    if not fork_pays():
        yield gen.__next__
        return
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_stream, args=(gen, send))
    child.start()
    send.close()  # the child holds the only writer, so its death reads as EOF

    def next_value() -> T:
        try:
            value, error = pickle.loads(recv.recv_bytes())
        except EOFError:
            child.join()
            raise RuntimeError(f"forked worker exited with code {child.exitcode} "
                               f"before sending its next result") from None
        if error:
            exc, tb = error
            raise exc from RuntimeError(f"in the forked worker:\n{tb}")
        return value

    try:
        yield next_value
    finally:
        child.terminate()
        child.join()
        recv.close()
