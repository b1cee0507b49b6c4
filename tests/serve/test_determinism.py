"""Scheduler determinism: an identical seed and arrival stream yields a
byte-identical dispatch order and identical virtual bench numbers --
across repeated in-process runs, under the process-pool bench runner,
and on every compute backend."""

import json

import pytest

from repro.bench.parallel import run_parallel
from repro.exec import EXEC_BACKENDS
from repro.serve import bench as serve_bench
from tests.serve.sizes import SMALL_STREAM


def _run_policy(policy, executor=None, seed=0):
    """Module-level so the process pool can pickle it.  The record minus
    ``meta`` (the loop's wall-clock rate): everything left is virtual."""
    row = serve_bench.run_policy(policy, sizes=SMALL_STREAM, seed=seed,
                                 executor=executor)
    return {k: v for k, v in row.items() if k != "meta"}


def test_repeated_runs_are_byte_identical():
    first = _run_policy("fair")
    second = _run_policy("fair")
    # Not just close -- the serialized payloads match byte for byte.
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)
    assert first["dispatch_digest"] == second["dispatch_digest"]


def test_policies_actually_differ_on_dispatch():
    fifo = _run_policy("fifo")
    fair = _run_policy("fair")
    assert fifo["dispatch_digest"] != fair["dispatch_digest"]
    # ...while conserving work: same jobs, same total grants.
    assert fifo["jobs_done"] == fair["jobs_done"]
    assert fifo["grants"] == fair["grants"]


def test_process_pool_matches_inline():
    policies = ["fifo", "fair", "priority"]
    inline = [_run_policy(p) for p in policies]
    pooled = run_parallel(_run_policy, policies, workers=3)
    for a, b in zip(inline, pooled):
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("backend", [b for b in EXEC_BACKENDS
                                     if b != "inline"])
def test_async_compute_backend_is_dispatch_invisible(backend):
    """Serving on a worker pool must not perturb a single virtual
    statistic or dispatch decision: the whole payload stays
    byte-identical to the inline run."""
    inline = _run_policy("fair")
    pooled = _run_policy("fair", executor=backend)
    assert json.dumps(inline, sort_keys=True) == \
        json.dumps(pooled, sort_keys=True)
    assert inline["dispatch_digest"] == pooled["dispatch_digest"]


def test_seed_changes_the_stream():
    base = _run_policy("fair", seed=0)
    other = _run_policy("fair", seed=1)
    assert base["dispatch_digest"] != other["dispatch_digest"]
