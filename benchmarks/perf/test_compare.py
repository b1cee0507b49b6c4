"""compare.py on synthetic result documents.

Run explicitly (``testpaths`` keeps it out of tier-1)::

    python -m pytest benchmarks/perf/test_compare.py -q
"""

import json

import compare


def _doc(run_samples, *, makespan=1.0, fail_frac=0.0, bound=0.15):
    ordered = sorted(run_samples)
    n = len(ordered)
    median = ordered[n // 2]
    iqr = ordered[(3 * n) // 4] - ordered[n // 4]
    return {"workloads": {"w": {
        "end_to_end": {"run_s": {"median": median, "iqr": iqr,
                                 "bound": bound, "unit": "s"}},
        "samples": {"run_s": list(run_samples)},
        "virtual_makespan": makespan, "virtual_p99_latency": 0.0,
        "fail_frac": fail_frac}}}


def _verdicts(a, b):
    return {row[1]: row[-1] for row in compare.compare(a, b)}


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def test_same_distribution_is_ok():
    assert _verdicts(_doc(TIGHT), _doc(TIGHT))["run_s"] == "ok"


def test_small_worsening_within_bound_is_ok():
    b = [x * 1.10 for x in TIGHT]
    assert _verdicts(_doc(TIGHT), _doc(b))["run_s"] == "ok"


def test_worsening_beyond_bound_regresses():
    b = [x * 1.30 for x in TIGHT]
    assert _verdicts(_doc(TIGHT), _doc(b))["run_s"] == "regressed"


def test_improvement_is_ok():
    b = [x * 0.5 for x in TIGHT]
    assert _verdicts(_doc(TIGHT), _doc(b))["run_s"] == "ok"


def test_wide_interleaved_runs_are_unresolved():
    wide_a = [1.0, 1.4, 0.8, 1.5, 0.7, 1.3, 0.9, 1.6, 1.0]
    wide_b = [1.1, 1.5, 0.9, 1.4, 0.8, 1.2, 1.0, 1.7, 1.1]
    assert _verdicts(_doc(wide_a), _doc(wide_b))["run_s"] == "unresolved"


def test_wide_but_separated_runs_resolve():
    wide_a = [1.0, 1.4, 0.8, 1.5, 0.7, 1.3, 0.9, 1.6, 1.0]
    slower = [x + 2.0 for x in wide_a]
    faster = [x * 0.3 for x in wide_a]
    assert _verdicts(_doc(wide_a), _doc(slower))["run_s"] == "regressed"
    assert _verdicts(_doc(wide_a), _doc(faster))["run_s"] == "ok"


def test_exact_metrics_have_bound_zero():
    v = _verdicts(_doc(TIGHT), _doc(TIGHT, makespan=1.0000001))
    assert v["virtual_makespan"] == "regressed"
    v = _verdicts(_doc(TIGHT), _doc(TIGHT, fail_frac=0.01))
    assert v["fail_frac"] == "regressed"
    v = _verdicts(_doc(TIGHT), _doc(TIGHT, makespan=0.9))
    assert v["virtual_makespan"] == "ok"


def test_cli_exit_code(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc(TIGHT)))
    b.write_text(json.dumps(_doc([x * 1.5 for x in TIGHT])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(a)]) == 2
