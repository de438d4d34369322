"""The replicate runner: chunking, failure slots and silenced warnings."""

import warnings

import pytest

from choicestats import ChoiceStatsError
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
