"""Tests for the out-of-core external merge sort."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sort import SortApp, merge_cost
from repro.core.context import root_context
from repro.core.decomposition import Range1D
from repro.core.system import System
from repro.errors import ConfigError, UnsortedRunError
from repro.memory.units import KB, MB
from repro.topology.builders import (apu_two_level, discrete_gpu_three_level,
                                     in_memory_single_level)


def run_sort(tree, **kw):
    sys_ = System(tree)
    try:
        app = SortApp(sys_, **kw)
        app.run(sys_)
        np.testing.assert_array_equal(app.result(), app.reference())
        return sys_, app
    finally:
        sys_.close()


def test_sort_single_run_degenerate():
    # Everything fits one chunk: phase 2 is a no-op.
    run_sort(apu_two_level(storage_capacity=16 * MB, staging_bytes=1 * MB),
             n=5000, seed=1)


def test_sort_on_a_one_node_tree():
    """The root is the leaf: it sorts the whole vector in place and forms
    no runs, so the merge phase has nothing to do (it used to look for a
    child and raise SchedulerError)."""
    sys_ = System(in_memory_single_level(capacity=4 * MB))
    try:
        app = SortApp(sys_, n=20_000, seed=6)
        app.run(sys_)
        assert app.runs == []
        assert app.result().tobytes() == app.reference().tobytes()
    finally:
        sys_.close()


def test_sort_two_runs():
    run_sort(apu_two_level(storage_capacity=16 * MB, staging_bytes=64 * KB),
             n=12_000, seed=2)


def test_sort_many_runs_single_merge_pass():
    sys_, app = run_sort(apu_two_level(storage_capacity=16 * MB,
                                       staging_bytes=64 * KB),
                         n=40_000, seed=3)
    assert len(app.runs) >= 4


def test_sort_multi_pass_merge():
    """More runs than the staging budget can merge at once: the fan-in
    rule forces several passes (classic external-sort behaviour)."""
    sys_, app = run_sort(apu_two_level(storage_capacity=64 * MB,
                                       staging_bytes=32 * KB),
                         n=120_000, seed=4)
    assert len(app.runs) > 8


def test_sort_on_three_level_tree():
    run_sort(discrete_gpu_three_level(storage_capacity=16 * MB,
                                      staging_bytes=64 * KB,
                                      gpu_mem_bytes=16 * KB),
             n=20_000, seed=5)


def test_sort_releases_everything():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=64 * KB))
    try:
        app = SortApp(sys_, n=20_000, seed=6)
        app.run(sys_)
        assert sys_.registry.live_count == 2  # data + scratch at root
        app.release_root_buffers()
        assert sys_.registry.live_count == 0
        assert sys_.tree.leaves()[0].used == 0
    finally:
        sys_.close()


def test_sort_charges_both_phases():
    sys_, _ = run_sort(apu_two_level(storage_capacity=16 * MB,
                                     staging_bytes=64 * KB),
                       n=30_000, seed=7)
    labels = {iv.label for iv in sys_.timeline.trace}
    assert any(l.startswith("sort") for l in labels)
    assert any(l.startswith("merge") for l in labels)
    assert "merge load" in labels and "merge flush" in labels


@settings(max_examples=8, deadline=None)
@given(n=st.integers(100, 30_000), seed=st.integers(0, 99))
def test_sort_random_sizes(n, seed):
    run_sort(apu_two_level(storage_capacity=16 * MB,
                           staging_bytes=48 * KB), n=n, seed=seed)


def test_sort_with_duplicates():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=48 * KB))
    try:
        app = SortApp(sys_, n=20_000, seed=8)
        # Quantise so duplicate values straddle block boundaries.
        rng = np.random.default_rng(8)
        data = np.round(rng.standard_normal(20_000).astype(np.float32) * 4) / 4
        sys_.preload(app.data_root, data)
        app.run(sys_)
        np.testing.assert_array_equal(app.result(), np.sort(data))
    finally:
        sys_.close()


def test_merge_of_an_unsorted_run_raises_instead_of_spinning():
    """Two descending runs, each longer than a merge block: no head can
    take anything up to the bound, so the merge must fail, not spin.
    It runs on a daemon thread so a spinning merge fails the join."""
    half = 20_000
    sys_ = System(apu_two_level(staging_bytes=160 * KB))
    try:
        app = SortApp(sys_, n=2 * half, seed=1)
        sys_.preload(app.data_root,
                     np.arange(2 * half, 0, -1, dtype=np.float32))
        app.runs = [Range1D(index=0, start=0, stop=half),
                    Range1D(index=1, start=half, stop=2 * half)]
        raised = []

        def merge():
            try:
                app._merge_runs(root_context(sys_))
            except UnsortedRunError as exc:
                raised.append(exc)
        worker = threading.Thread(target=merge, daemon=True)
        worker.start()
        worker.join(30)
        assert not worker.is_alive(), "the merge spins on an unsorted run"
        assert len(raised) == 1
        assert "(0, 20000), (20000, 40000)" in str(raised[0])
    finally:
        sys_.close()


def test_sort_validation():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=64 * KB))
    try:
        with pytest.raises(ConfigError):
            SortApp(sys_, n=0)
    finally:
        sys_.close()


def test_cost_models_scale():
    assert merge_cost(10_000, 10_000).flops > merge_cost(1_000, 1_000).flops
    assert merge_cost(1000, 8).flops > merge_cost(1000, 2).flops
    assert merge_cost(1, 1).flops > 0
