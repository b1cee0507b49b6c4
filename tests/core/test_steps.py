"""``run()`` is "drive ``steps()`` to exhaustion": both forms of every
app give the same bytes, the same virtual time and the same trace."""

import hashlib

import numpy as np
import pytest

from repro.core.program import drive
from repro.core.scheduler import InOrderScheduler, PipelinedScheduler
from tests.serve.test_service import MOUSE_SPECS, fresh_system


def outcome(spec, scheduler_cls, stepped):
    sys_ = fresh_system()
    try:
        app = spec.build(sys_)
        if stepped:
            steps = app.steps(sys_, scheduler=scheduler_cls())
            assert list(steps) == []        # these schedulers never yield
        else:
            app.run(sys_, scheduler=scheduler_cls())
        digest = hashlib.sha256(
            np.ascontiguousarray(app.result()).tobytes()).hexdigest()
        app.release_root_buffers()
        return digest, sys_.makespan(), len(sys_.timeline.trace)
    finally:
        sys_.close()


@pytest.mark.parametrize("scheduler_cls",
                         [InOrderScheduler, PipelinedScheduler])
@pytest.mark.parametrize("spec", MOUSE_SPECS, ids=lambda s: s.app)
def test_run_equals_exhausted_steps(spec, scheduler_cls):
    assert outcome(spec, scheduler_cls, stepped=True) == \
        outcome(spec, scheduler_cls, stepped=False)


def test_drive_returns_the_generators_value():
    def steps():
        yield "offer"
        return "ctx"

    assert drive(steps()) == "ctx"


def test_steps_returns_the_root_context():
    sys_ = fresh_system()
    try:
        app = MOUSE_SPECS[0].build(sys_)
        assert drive(app.steps(sys_)).node is sys_.tree.root
        app.release_root_buffers()
    finally:
        sys_.close()


def test_closing_steps_mid_run_unwinds_every_finally():
    from repro.serve import CooperativeScheduler

    sys_ = fresh_system()
    try:
        app = MOUSE_SPECS[0].build(sys_)
        steps = app.steps(sys_, scheduler=CooperativeScheduler())
        _plan, ready = next(steps)
        _plan, ready = steps.send(ready[0])
        assert len(sys_.obs._stack) > 2     # suspended inside run > divide
        steps.close()
        assert sys_.obs._stack == [0]
        app.release_root_buffers()
    finally:
        sys_.close()
