"""The replicate runner: blocks, worker cap, failure slots and silenced warnings."""

import concurrent.futures
import os
import warnings

import pytest

from choicestats import ChoiceStatsError, util
from choicestats.util import parallel_map


def _replicate(offset, i):
    # Module level so worker processes can unpickle it.
    if i % 4 == 1:
        raise ValueError("synthetic failure")
    if i % 4 == 2:
        raise ChoiceStatsError("synthetic package failure")
    warnings.warn("replicate warning", RuntimeWarning)
    return offset + i * i


def _expected(offset, total):
    return [None if i % 4 in (1, 2) else offset + i * i for i in range(total)]


@pytest.mark.parametrize("total", [0, 1, 5])
def test_same_list_at_any_job_count(total):
    expected = _expected(10, total)
    for jobs in (1, 2, 3):
        assert parallel_map(_replicate, (10,), total, jobs) == expected


def test_replicate_warnings_are_silenced():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel_map(_replicate, (0,), 4, 1) == _expected(0, 4)
    assert caught == []


def test_other_exceptions_propagate():
    def broken(i):
        raise KeyError(i)

    with pytest.raises(KeyError):
        parallel_map(broken, (), 2, 1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs the worker start-up and every
    block in this process and records what the pool was given."""

    made = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.initargs = initargs
        initializer(*initargs)
        _RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, blocks):
        self.blocks = list(blocks)
        return map(fn, self.blocks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(util, "_worker_task", None)
    monkeypatch.setattr(_RecordingPool, "made", [])
    return _RecordingPool.made


@pytest.mark.parametrize("jobs, cpus, workers", [(500, 3, 3), (2, 3, 2), (500, 1000, 400)])
def test_workers_are_capped_and_blocks_cover_the_indices_in_order(
    monkeypatch, recording_pool, jobs, cpus, workers
):
    monkeypatch.setattr(util, "_usable_cpus", lambda: cpus)
    assert parallel_map(_replicate, (10,), 400, jobs) == _expected(10, 400)
    (pool,) = recording_pool
    assert pool.max_workers == workers
    assert pool.initargs == (_replicate, (10,))
    assert len(pool.blocks) == min(400, util.BLOCKS_PER_WORKER * workers)
    firsts = [first for first, _ in pool.blocks]
    ends = [first + count for first, count in pool.blocks]
    assert firsts == [0, *ends[:-1]] and ends[-1] == 400
    assert max(count for _, count in pool.blocks) - min(count for _, count in pool.blocks) <= 1


def test_one_usable_cpu_runs_serially(monkeypatch, recording_pool):
    monkeypatch.setattr(util, "_usable_cpus", lambda: 1)
    assert parallel_map(_replicate, (10,), 20, 4) == _expected(10, 20)
    assert recording_pool == []


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert util._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert util._usable_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert util._usable_cpus() == 1
