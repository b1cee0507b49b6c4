"""Suite-wide hygiene checks and the shared committed-scenario runs."""

import pytest

from tests.hygiene import io_threads


@pytest.fixture(scope="session")
def scenario_summary(tmp_path_factory):
    """``scenario_summary(name)``: the summary of one run of a committed
    scenario through the harness.  Each scenario runs once per session;
    the regeneration gate and the shape and calibration tests share it."""
    from repro.tools.experiment.config import find_scenario, load_scenario
    from repro.tools.experiment.runner import run_scenario
    summaries = {}

    def run(name: str) -> dict:
        if name not in summaries:
            summaries[name] = run_scenario(
                load_scenario(find_scenario(name)),
                out_dir=str(tmp_path_factory.mktemp(name))).summary
        return summaries[name]

    return run


@pytest.fixture(scope="session")
def scenario_records(scenario_summary):
    """``scenario_records(name)``: that run's cell records, in plan
    order."""
    return lambda name: [cell["record"]
                         for cell in scenario_summary(name)["cells"]]


@pytest.fixture(autouse=True)
def no_leaked_io_threads():
    """A test that leaves a ``repro-io-*`` thread alive forgot to close
    a ``FileBackend`` (or a ``System`` over one) -- or ``close`` lost
    the thread.  Only the test that started it is blamed."""
    before = io_threads()
    yield
    leaked = [name for name in io_threads() if name not in before]
    assert not leaked, f"I/O threads left alive: {leaked}"
