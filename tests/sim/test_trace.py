"""Unit tests for trace recording and aggregation."""

import pytest

from repro.sim.trace import Interval, Phase, Trace


def iv(start, end, phase=Phase.GPU_COMPUTE, resource="gpu", nbytes=0):
    return Interval(start=start, end=end, phase=phase, resource=resource,
                    nbytes=nbytes)


def test_duration():
    assert iv(1.0, 3.5).duration == pytest.approx(2.5)


def test_record_rejects_negative_duration():
    t = Trace()
    with pytest.raises(ValueError):
        t.record(iv(2.0, 1.0))


def test_overlaps():
    assert iv(0, 2).overlaps(iv(1, 3))
    assert not iv(0, 1).overlaps(iv(1, 2))  # touching is not overlap
    assert not iv(0, 1).overlaps(iv(5, 6))


def test_busy_time_by_phase_and_resource():
    t = Trace()
    t.record(iv(0, 1, Phase.GPU_COMPUTE, "gpu"))
    t.record(iv(0, 2, Phase.IO_READ, "ssd"))
    t.record(iv(2, 3, Phase.IO_READ, "ssd"))
    assert t.busy_time() == pytest.approx(4.0)
    assert t.busy_time(phase=Phase.IO_READ) == pytest.approx(3.0)
    assert t.busy_time(resource="gpu") == pytest.approx(1.0)
    assert t.busy_time(phase=Phase.IO_READ, resource="gpu") == 0.0


def test_by_phase_totals():
    t = Trace()
    t.record(iv(0, 1, Phase.GPU_COMPUTE))
    t.record(iv(1, 4, Phase.GPU_COMPUTE))
    t.record(iv(0, 2, Phase.SETUP, "host"))
    phases = t.by_phase()
    assert phases[Phase.GPU_COMPUTE] == pytest.approx(4.0)
    assert phases[Phase.SETUP] == pytest.approx(2.0)
    assert Phase.IO_READ not in phases


def test_bytes_moved():
    t = Trace()
    t.record(iv(0, 1, Phase.IO_READ, "ssd", nbytes=100))
    t.record(iv(1, 2, Phase.IO_WRITE, "ssd", nbytes=50))
    assert t.bytes_moved() == 150
    assert t.bytes_moved(Phase.IO_READ) == 100


def test_makespan_empty_and_nonempty():
    t = Trace()
    assert t.makespan() == 0.0
    t.record(iv(0, 1))
    t.record(iv(0.5, 4.0, Phase.IO_READ, "ssd"))
    assert t.makespan() == pytest.approx(4.0)


def test_filter_returns_subset():
    t = Trace()
    t.record(iv(0, 1, Phase.GPU_COMPUTE))
    t.record(iv(0, 1, Phase.IO_READ, "ssd"))
    io_only = t.filter([Phase.IO_READ, Phase.IO_WRITE])
    assert len(io_only) == 1
    assert io_only.intervals[0].phase is Phase.IO_READ


def test_extend_merges():
    a, b = Trace(), Trace()
    a.record(iv(0, 1))
    b.record(iv(1, 2))
    a.extend(b)
    assert len(a) == 2


def test_phase_category_helpers():
    assert Phase.IO_READ.is_io and Phase.IO_WRITE.is_io
    assert not Phase.DEV_TRANSFER.is_io
    assert Phase.DEV_TRANSFER.is_transfer and Phase.MEM_COPY.is_transfer
    assert Phase.CPU_COMPUTE.is_compute and Phase.GPU_COMPUTE.is_compute
    assert not Phase.SETUP.is_compute and not Phase.RUNTIME.is_transfer


def test_phase_hash_is_c_level_and_pickle_stable():
    """Aggregates key dicts by phase on every interval: the hash is the
    C identity hash, and unpickled members are the same singletons."""
    import pickle

    assert Phase.__hash__ is object.__hash__
    for phase in Phase:
        again = pickle.loads(pickle.dumps(phase))
        assert again is phase and hash(again) == hash(phase)
    assert {Phase.CACHE: 1}[Phase("cache")] == 1
