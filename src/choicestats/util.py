"""Small shared utilities: deterministic seeding, the JSON document checker and
the replicate runner."""

from __future__ import annotations

import json
import os
import sys
import types
import warnings
from collections import Counter
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from typing import Union, get_args, get_origin, get_type_hints, is_typeddict

import numpy as np

from .errors import ChoiceStatsError, DataError, ReplicateFailureWarning


def seed_from(*parts):
    """Deterministic 64-bit seed from a tuple of non-negative integers.

    Hashing goes through numpy's SeedSequence so the derived streams for
    (base, 0), (base, 1), ... are independent and platform-stable. Order
    matters: seed_from(a, b) != seed_from(b, a) in general.
    """
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


#: What a value of each scalar type must be, as messages say it.
_SCALARS = {str: "a string", bool: "true or false", float: "a number", int: "a whole number"}

# Resolved on first use, so that importing the package resolves no annotation.
_hints = cache(get_type_hints)


def from_json(tp, value, where, path=""):
    """``value``, decoded from JSON, checked against the type ``tp`` and built as one.

    ``tp`` is str, bool, float, int, ``list[X]``, ``tuple[X, ...]``,
    ``dict[str, X]``, ``X | None``, a dataclass or a TypedDict; any other
    annotation raises TypeError. No number type takes a bool, an int takes
    a whole number only, and a float no whole number beyond its range. A
    dataclass is a closed record: its fields are its keys, a field with a
    default may be left out, and any other key is refused. A TypedDict is
    an open record: its keys are required, and they are all that is kept.
    A mismatch raises DataError "<where>: <path> ...", ``path`` being the
    key path of the value, such as ``parameters[0].fixed``.
    """
    subject, prefix = (f"{where}: {path}", f"{path}.") if path else (where, "")
    origin, args = get_origin(tp), get_args(tp)
    if tp in _SCALARS:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        whole = number and (isinstance(value, int) or value.is_integer())
        if not {str: isinstance(value, str), bool: isinstance(value, bool), float: number, int: whole}[tp]:
            raise DataError(f"{subject} must be {_SCALARS[tp]}, got {_shown(value)}")
        if tp is float and isinstance(value, int) and abs(value) > sys.float_info.max:
            # A whole-number literal that no float holds; read_json refuses 1e400 itself.
            raise DataError(f"{subject} must be a finite number, got a whole number beyond the float range")
        return tp(value)
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = next(a for a in args if a is not type(None))
        return None if value is None else from_json(inner, value, where, path)
    if origin is list or (origin is tuple and args[1:] == (...,)):
        if not isinstance(value, (list, tuple)):
            raise DataError(f"{subject} must be a list, got {_shown(value)}")
        return origin(from_json(args[0], v, where, f"{path}[{i}]") for i, v in enumerate(value))
    record = is_dataclass(tp) or is_typeddict(tp)
    if not (record or (origin is dict and args[0] is str)):
        raise TypeError(f"no JSON form for {tp!r}")
    if not isinstance(value, dict):
        raise DataError(f"{subject} must be an object, got {_shown(value)}")
    if not record:
        return {k: from_json(args[1], v, where, prefix + k) for k, v in value.items()}
    hints = _hints(tp)
    required = list(hints)  # every key of a TypedDict
    if is_dataclass(tp):
        required = [f.name for f in fields(tp) if f.default is MISSING and f.default_factory is MISSING]
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise DataError(f"{subject} has unknown {_keys(unknown)} (allowed: {', '.join(sorted(hints))})")
    missing = [key for key in required if key not in value]
    if missing:
        raise DataError(f"{subject} is missing required {_keys(missing)}")
    return tp(**{k: from_json(hints[k], value[k], where, prefix + k) for k in hints if k in value})


def _shown(value):
    return {dict: "an object", list: "a list", tuple: "a list"}.get(type(value)) or json.dumps(value)


def _keys(names):
    return f"key{'s' if len(names) > 1 else ''} {', '.join(map(repr, names))}"


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


def _attempt(fn, *args):
    """``fn(*args)``, or a Failure holding the message of the ChoiceStatsError it raised."""
    try:
        return fn(*args)
    except ChoiceStatsError as exc:
        return Failure(str(exc))


def _run_chunk(fn, args, first, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [_attempt(fn, *args, i) for i in range(first, first + count)]


def _init_worker(fn, args):
    global _worker_task
    _worker_task = (fn, args)


def _run_block(block):
    return _run_chunk(*_worker_task, *block)


def _usable_cpus():
    """CPUs this process may run on, or the machine's count where the
    platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def parallel_map(fn, args, total, jobs=1):
    """``[fn(*args, i) for i in range(total)]``, run as replicates.

    A replicate that raises ChoiceStatsError leaves a Failure in its slot;
    any other exception propagates. A replicate that returns a list holds
    one slot per element, each a result or a Failure. When more than 10% of
    the slots fail, one ReplicateFailureWarning tallies them by reason.
    Warnings raised inside replicates are silenced. With more than one
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
    slots = [slot for out in outcomes for slot in (out if isinstance(out, list) else (out,))]
    reasons = Counter(slot.reason for slot in slots if isinstance(slot, Failure))
    failed = sum(reasons.values())
    if failed > 0.1 * len(slots):
        warnings.warn(
            f"{failed} of {len(slots)} replicates failed (by reason: {dict(sorted(reasons.items()))}); "
            "only the others count downstream",
            ReplicateFailureWarning,
            stacklevel=3,
        )
    return outcomes
