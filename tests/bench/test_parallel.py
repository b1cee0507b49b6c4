"""The parallel bench runner: deterministic merge, sequential parity."""

from repro.bench.cells import fig11_cell
from repro.bench.parallel import default_workers, run_parallel


def _square(x):
    return x * x


def _fig11(params):
    return fig11_cell(**params)


def _slow_then_fast(x):
    # Later submissions finish first; merge order must not care.
    import time
    time.sleep(0.05 if x == 0 else 0.0)
    return x


def test_run_parallel_preserves_submission_order():
    assert run_parallel(_square, [3, 1, 4, 1, 5], workers=2) == \
        [9, 1, 16, 1, 25]


def test_run_parallel_merge_ignores_completion_order():
    assert run_parallel(_slow_then_fast, [0, 1, 2, 3], workers=4) == \
        [0, 1, 2, 3]


def test_run_parallel_inline_fallback():
    # workers<=1 must not spawn a pool (lambdas aren't picklable).
    assert run_parallel(lambda x: x + 1, [1, 2, 3], workers=1) == [2, 3, 4]


def test_parallel_sweep_matches_sequential_sweep():
    """Scenario cells fanned across the pool equal the sequential loop,
    record for record."""
    cells = [{"input": "1024x256", "gpu_queues": q} for q in (8, 16, 32)]
    assert run_parallel(_fig11, cells, workers=2) == \
        [_fig11(c) for c in cells]


def test_default_workers_bounds():
    assert 1 <= default_workers() <= 8
