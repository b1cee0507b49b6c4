"""Scenario cells reject integer knobs they would otherwise truncate."""

import pytest

from repro.errors import ConfigError
from repro.tools.experiment.registry import get_runner

BAD_KNOBS = [
    ("fig11", dict(input="1024x256", gpu_queues=8.9), "gpu_queues"),
    ("fig11", dict(input="1024x256", gpu_queues=True), "gpu_queues"),
    ("fig11", dict(input="1024x256", gpu_queues=8, cpu_threads=2.5),
     "cpu_threads"),
    ("fig11", dict(input="1024x256", gpu_queues=8, steps_per_chunk=False),
     "steps_per_chunk"),
    ("library_reduce", dict(storage="ssd", n=1000.5), "n"),
    ("library_sort", dict(staging_divisor=True, n=1000), "staging_divisor"),
    ("library_sort", dict(staging_divisor=4, n=999.5), "n"),
    ("framework_op", dict(op="alloc_release", rounds=2.5), "rounds"),
    ("serve_policy", dict(policy="fifo", seed=True), "seed"),
    ("distributed", dict(section="equivalence", app="gemm", workers=1.5),
     "workers"),
]


@pytest.mark.parametrize("runner,params,knob", BAD_KNOBS,
                         ids=[f"{r}-{k}-{p[k]!r}" for r, p, k in BAD_KNOBS])
def test_non_integral_knob_is_rejected(runner, params, knob):
    with pytest.raises(ConfigError, match=rf"\b{knob} must be an integer"):
        get_runner(runner)(**params)


def test_integral_float_knob_is_accepted():
    fig11 = get_runner("fig11")
    assert fig11("1024x256", 8.0) == fig11("1024x256", 8)


@pytest.mark.parametrize("dims", ["1024x0", "0x0", "1024x-256"])
def test_fig11_rejects_non_positive_dimensions(dims):
    with pytest.raises(ConfigError, match="must be >= 1"):
        get_runner("fig11")(dims, 32)
