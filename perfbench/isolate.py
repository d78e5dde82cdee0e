"""Run a piece of the benchmark in a child forked from the set-up
process.

Each timed pass, and each batch of reference runs, runs in its own
child.  Every child starts from the same warm state, and whatever a
child leaves behind in its process (the compiled-unit cache never
lets go of a unit) cannot slow what runs after it.  The parent itself
runs no program after set-up.  Fork, not spawn: the child must inherit
the warm set-up state, and no other thread is alive at that point to
be lost across the fork.
"""

import multiprocessing
import threading
import traceback


def in_child(function, *args):
    """``function(*args)`` in a forked child; its (picklable) return
    value, or RuntimeError with the child's traceback."""
    return in_children([(function, args)])[0]


def in_children(calls):
    """Each ``(function, args)`` of ``calls`` in its own forked child,
    all at once; their return values, in order."""
    if threading.active_count() != 1:
        raise RuntimeError("cannot fork: %d threads alive"
                           % threading.active_count())
    ctx = multiprocessing.get_context("fork")
    started = []
    for function, args in calls:
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child, args=(function, args, sender),
                            name="perfbench-%s" % function.__name__)
        child.start()
        sender.close()
        started.append((function, receiver, child))
    replies = []
    for function, receiver, child in started:
        try:
            replies.append(receiver.recv())
        except EOFError:
            replies.append(("error", "%s died without a result"
                            % function.__name__))
        finally:
            receiver.close()
            child.join()
    for kind, payload in replies:
        if kind != "ok":
            raise RuntimeError(payload)
    return [payload for _, payload in replies]


def _child(function, args, conn):
    try:
        conn.send(("ok", function(*args)))
    except Exception:  # noqa: BLE001 - reported to the parent
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()
