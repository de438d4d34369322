"""Small shared utilities: deterministic seeding and the replicate runner."""

from __future__ import annotations

import os
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ChoiceStatsError, ReplicateFailureWarning


def seed_from(*parts):
    """Deterministic 64-bit seed from a tuple of non-negative integers.

    Hashing goes through numpy's SeedSequence so the derived streams for
    (base, 0), (base, 1), ... are independent and platform-stable. Order
    matters: seed_from(a, b) != seed_from(b, a) in general.
    """
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def reject_unknown_keys(doc, allowed, context):
    """Raise ValueError naming every key of ``doc`` not in ``allowed``.

    A misspelt key in a config document would otherwise fall back to a
    default without notice.
    """
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(
            f"{context} has unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))} (allowed: {', '.join(sorted(allowed))})"
        )


def first_failure(checks):
    """(row, check) for the first row failing any of ``checks``, boolean arrays
    over the rows in check order, and its first failing check; else None."""
    if np.any(checks):
        return divmod(int(np.argmax(np.column_stack(checks))), len(checks))


@dataclass(frozen=True)
class Failure:
    """A replicate that raised ChoiceStatsError; ``reason`` is its message."""

    reason: str


#: Contiguous blocks per worker process. Blocks go to whichever worker is
#: free, so one slow stretch of indices cannot leave the other workers idle.
BLOCKS_PER_WORKER = 8

# (fn, args) of the parallel_map a worker process serves, set once per
# worker by the pool initializer; never set in the calling process.
_worker_task = None


def _run_chunk(fn, args, first, count):
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(first, first + count):
            try:
                out.append(fn(*args, i))
            except ChoiceStatsError as exc:
                out.append(Failure(str(exc)))
    return out


def _init_worker(fn, args):
    global _worker_task
    _worker_task = (fn, args)


def _run_block(block):
    return _run_chunk(*_worker_task, *block)


def _usable_cpus():
    """CPUs this process may run on, or the machine's count where the
    platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallel_map(fn, args, total, jobs=1):
    """``[fn(*args, i) for i in range(total)]``, run as replicates.

    A replicate that raises ChoiceStatsError leaves a Failure in its slot;
    any other exception propagates. When more than 10% of the slots fail,
    one ReplicateFailureWarning tallies them by reason. Warnings raised
    inside replicates are silenced. With more than one
    worker, ``min(jobs, total, usable CPUs)`` processes each receive ``fn``
    and ``args`` once, at start-up, so ``fn`` must be a module-level
    function. The indices are split into about BLOCKS_PER_WORKER contiguous
    blocks per worker, and each block goes to whichever worker is free next;
    results come back in index order. Each replicate must derive its seeds
    from its index alone; the result is then identical for any job count.
    """
    workers = min(max(1, int(jobs or 1)), total, _usable_cpus())
    if workers <= 1:
        outcomes = _run_chunk(fn, args, 0, total)
    else:
        # Imported here: a serial run never loads the multiprocessing machinery.
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, total, min(total, BLOCKS_PER_WORKER * workers) + 1).astype(int)
        blocks = [(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(fn, args)
        ) as pool:
            outcomes = [out for block in pool.map(_run_block, blocks) for out in block]
    reasons = Counter(out.reason for out in outcomes if isinstance(out, Failure))
    failed = sum(reasons.values())
    if failed > 0.1 * total:
        warnings.warn(
            f"{failed} of {total} replicates failed (by reason: {dict(sorted(reasons.items()))}); "
            "only the others count downstream",
            ReplicateFailureWarning,
            stacklevel=3,
        )
    return outcomes
