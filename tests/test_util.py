"""The replicate runner: blocks, worker cap, failure outcomes, its one warning
and silenced replicate warnings."""

import concurrent.futures
import os
import warnings

import pytest

from choicestats import ChoiceStatsError, ReplicateFailureWarning, util
from choicestats.util import Failure, parallel_map


def _replicate(offset, i):
    # Module level so worker processes can unpickle it.
    if i % 4 == 1:
        raise ChoiceStatsError("synthetic failure")
    if i % 4 == 2:
        raise ChoiceStatsError("synthetic package failure")
    warnings.warn("replicate warning", RuntimeWarning)
    return offset + i * i


def _expected(offset, total):
    reasons = {1: "synthetic failure", 2: "synthetic package failure"}
    return [Failure(reasons[i % 4]) if i % 4 in reasons else offset + i * i for i in range(total)]


def _mapped(offset, total, jobs):
    """parallel_map over _replicate, with the warnings it lets through.

    Half of the slots from index 1 on fail, over the tenth that warns, so
    any run of two or more slots must give exactly one warning.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcomes = parallel_map(_replicate, (offset,), total, jobs)
    assert [w.category for w in caught] == [ReplicateFailureWarning] * (total > 1)
    return outcomes


@pytest.mark.parametrize("total", [0, 1, 5])
def test_same_list_at_any_job_count(total):
    expected = _expected(10, total)
    for jobs in (1, 2, 3):
        assert _mapped(10, total, jobs) == expected


def test_replicate_warnings_are_silenced():
    # The replicates' RuntimeWarnings stay inside; only the runner's tally
    # of the two failures comes out.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel_map(_replicate, (0,), 4, 1) == _expected(0, 4)
    (warning,) = caught
    assert warning.category is ReplicateFailureWarning
    assert str(warning.message).startswith(
        "2 of 4 replicates failed (by reason: "
        "{'synthetic failure': 1, 'synthetic package failure': 1})"
    )


def _fails_below(cutoff, i):
    if i < cutoff:
        raise ChoiceStatsError("too few persons" if i % 2 else "max_iterations")
    return i


@pytest.mark.parametrize("jobs", [1, 2])
def test_runner_warns_once_when_more_than_a_tenth_fail(jobs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parallel_map(_fails_below, (2,), 20, jobs)[:3] == [
            Failure("max_iterations"),
            Failure("too few persons"),
            2,
        ]
    with pytest.warns(ReplicateFailureWarning) as caught:
        parallel_map(_fails_below, (3,), 20, jobs)
    assert len(caught) == 1
    assert str(caught[0].message).startswith(
        "3 of 20 replicates failed (by reason: {'max_iterations': 2, 'too few persons': 1})"
    )


def test_other_exceptions_propagate():
    def broken(i):
        raise KeyError(i)

    with pytest.raises(KeyError):
        parallel_map(broken, (), 2, 1)


def _shape_bug(i):
    if i == 3:
        raise ValueError("operands could not be broadcast together")
    return i


@pytest.mark.parametrize("jobs", [1, 2])
def test_value_errors_propagate_at_any_job_count(jobs):
    with pytest.raises(ValueError, match="broadcast"):
        parallel_map(_shape_bug, (), 8, jobs)


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
    assert _mapped(10, 400, jobs) == _expected(10, 400)
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
    assert _mapped(10, 20, 4) == _expected(10, 20)
    assert recording_pool == []


def test_usable_cpus_reads_the_affinity_mask_else_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert util._usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert util._usable_cpus() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert util._usable_cpus() == 1
