"""Golden snapshot of the bench-scale machines.

Every distinct ``scaled_*_tree`` call the committed scenarios make
(through :mod:`repro.bench.cells`), the serve bench makes
(:mod:`repro.serve.bench`) and the scaling-invariance tests make is
built here, and each node is pinned: its id, level and instance, every
:class:`~repro.memory.device.DeviceSpec` field, every uplink field and
every processor field.  Floats are compared by ``repr``, so a rescale
that rounds differently fails.

``python tests/bench/test_machines_golden.py`` rewrites the golden file.
"""

import dataclasses
import json
import os
import sys

import pytest

from repro.bench import configs

GOLDEN = os.path.join(os.path.dirname(__file__), "machines_golden.json")

S = configs.STAGING_BYTES

#: ``(builder, args, kwargs)`` of every distinct bench-machine call.
CALLS = [
    # The serve bench and library_reduce take the defaults.
    *[("scaled_apu_tree", (storage,), {}) for storage in ("ssd", "hdd")],
    # Figure 6/7/9, overhead, future_memory: the APU tree per storage,
    # GEMM with its FLOP-rate scaling.
    *[("scaled_apu_tree", (storage,), {"flop_bound_app": flop})
      for storage in ("ssd", "hdd", "nvm") for flop in (False, True)],
    # Figure 8: the discrete-GPU tree.
    *[("scaled_dgpu_tree", ("hdd",), {"flop_bound_app": flop})
      for flop in (False, True)],
    # In-memory bars and the SpMV structure baseline.
    *[("scaled_inmemory_tree", (), {"flop_bound_app": flop})
      for flop in (False, True)],
    # Blocking-size ablation.
    *[("scaled_apu_tree", ("ssd",), {"flop_bound_app": True,
                                     "staging_bytes": staging})
      for staging in (S // 4, S * 4)],
    # SpMV structures, sort staging budgets, pipeline overlap.
    ("scaled_apu_tree", ("ssd",), {"flop_bound_app": False,
                                   "staging_bytes": S // 8}),
    ("scaled_apu_tree", ("ssd",), {"staging_bytes": S // 32}),
    *[("scaled_apu_tree", (storage,), {"staging_bytes": 256000})
      for storage in ("hdd", "ssd")],
    # Figure 9's bandwidth override (the ladder's top rung).
    ("scaled_apu_tree", ("ssd",), {"read_bw": configs.FIG9_LADDER[-1][0],
                                   "write_bw": configs.FIG9_LADDER[-1][1]}),
    # Scaling invariance at 1/16 and 1/32.
    *[("scaled_inmemory_tree", (), {"flop_bound_app": flop,
                                    "linear_scale": scale})
      for flop in (False, True) for scale in (16, 32)],
    *[("scaled_apu_tree", (storage,), {"flop_bound_app": flop,
                                       "linear_scale": scale})
      for storage in ("ssd", "hdd") for flop in (False, True)
      for scale in (16, 32)],
]


def _key(builder: str, args: tuple, kwargs: dict) -> str:
    params = [repr(a) for a in args]
    params += [f"{k}={v!r}" for k, v in sorted(kwargs.items())]
    return f"{builder}({', '.join(params)})"


def _fields(obj) -> dict:
    return {f.name: repr(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def describe(tree) -> list[dict]:
    """Every node of ``tree``, its fields as ``repr`` strings."""
    return [{"id": node.node_id, "level": node.level,
             "instance": node.device.instance,
             "spec": _fields(node.device.spec),
             "uplink": None if node.uplink is None else _fields(node.uplink),
             "processors": [_fields(p) for p in node.processors]}
            for node in tree.nodes()]


def snapshot() -> dict:
    out = {}
    for builder, args, kwargs in CALLS:
        tree = getattr(configs, builder)(*args, **kwargs)
        try:
            out[_key(builder, args, kwargs)] = describe(tree)
        finally:
            tree.close()
    return out


def test_calls_are_distinct():
    keys = [_key(*call) for call in CALLS]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("call", CALLS, ids=lambda c: _key(*c))
def test_machine_matches_golden(call):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    builder, args, kwargs = call
    tree = getattr(configs, builder)(*args, **kwargs)
    try:
        assert describe(tree) == golden[_key(*call)]
    finally:
        tree.close()


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(snapshot(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
