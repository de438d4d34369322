"""Small shared utilities: deterministic seeding and the replicate runner."""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ChoiceStatsError


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


def _run_chunk(fn, args, first, count):
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(first, first + count):
            try:
                out.append(fn(*args, i))
            except (ChoiceStatsError, ValueError):
                out.append(None)
    return out


def parallel_map(fn, args, total, jobs=1):
    """``[fn(*args, i) for i in range(total)]``, run as replicates.

    A replicate that raises ChoiceStatsError or ValueError yields None in its
    slot; warnings raised inside replicates are silenced. The indices are
    split into at most ``jobs`` contiguous chunks, run in worker processes
    when there is more than one, so ``fn`` must be a module-level function.
    Each replicate must derive its seeds from its index alone; the result is
    then identical for any job count.
    """
    n_chunks = min(max(1, int(jobs or 1)), total)
    if n_chunks <= 1:
        return _run_chunk(fn, args, 0, total)
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)
    firsts = [int(a) for a in bounds[:-1]]
    counts = [int(b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    with ProcessPoolExecutor(max_workers=n_chunks) as pool:
        chunks = pool.map(_run_chunk, [fn] * n_chunks, [args] * n_chunks, firsts, counts)
        return [out for chunk in chunks for out in chunk]
