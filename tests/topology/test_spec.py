"""Unit tests for declarative topology specs."""

import pytest

from repro.errors import ConfigError
from repro.memory.backends import FileBackend
from repro.memory.device import StorageKind
from repro.memory.units import GB
from repro.topology.spec import build_from_spec


def test_minimal_spec():
    tree = build_from_spec({
        "device": "ssd", "capacity": "4GB",
        "children": [{
            "device": "dram", "capacity": "2GB",
            "processors": ["cpu", "gpu-apu"],
        }],
    })
    assert tree.root.capacity == 4 * GB
    (leaf,) = tree.leaves()
    assert leaf.capacity == 2 * GB
    assert len(leaf.processors) == 2


def test_int_capacity_and_instance():
    tree = build_from_spec({
        "device": "dram", "capacity": 4096, "instance": "main",
        "processors": ["gpu-apu"],
    })
    assert tree.root.capacity == 4096
    assert tree.root.device.name == "main"


def test_auto_instance_names_unique():
    tree = build_from_spec({
        "device": "hdd",
        "children": [
            {"device": "dram", "processors": ["cpu"]},
            {"device": "dram", "processors": [{"kind": "gpu-apu",
                                               "name": "gpu-b"}]},
        ],
    })
    names = [n.device.name for n in tree.nodes()]
    assert len(set(names)) == 3


def test_file_backend_spec(tmp_path):
    tree = build_from_spec({
        "device": "ssd", "backend": f"file:{tmp_path}/store",
        "children": [{"device": "dram", "processors": ["gpu-apu"]}],
    })
    assert isinstance(tree.root.device.backend, FileBackend)
    tree.close()


def test_processor_dict_form():
    tree = build_from_spec({
        "device": "dram",
        "processors": [{"kind": "cpu", "name": "mycpu"}],
    })
    assert tree.root.processors[0].name == "mycpu"


@pytest.mark.parametrize("bad_spec,msg", [
    ("nope", "must be a dict"),
    ({"capacity": "1GB"}, "device"),
    ({"device": "ssd", "wheels": 4}, "unknown keys"),
    ({"device": "ssd", "capacity": -5}, "positive"),
    ({"device": "ssd", "capacity": "garbage"}, "unparseable"),
    ({"device": "ssd", "capacity": 1.5}, "int or string"),
    ({"device": "ssd", "backend": "s3://bucket"}, "unknown backend"),
    ({"device": "ssd", "backend": "file:"}, "directory"),
    ({"device": "dram", "processors": "cpu"}, "must be a list"),
    ({"device": "dram", "processors": [42]}, "name or a dict"),
    ({"device": "dram", "processors": [{"name": "x"}]}, "kind"),
    ({"device": "warpdrive"}, "unknown device"),
    ({"device": "dram", "capacity": True}, "int or string"),
    ({"device": "dram", "instance": 7}, "instance must be a string"),
    ({"device": "dram", "processors": [{"kind": "cpu", "nmae": "x"}]},
     "unknown keys"),
    ({"device": "dram", "processors": [{"kind": "cpu", "name": 3}]},
     "name must be a string"),
    ({"device": "ssd", "children": "dram"}, "children must be a list"),
    ({"device": "ssd", "children": {"device": "dram"}},
     "children must be a list"),
])
def test_malformed_specs_rejected(bad_spec, msg):
    with pytest.raises(ConfigError, match=msg):
        build_from_spec(bad_spec, validate=False)


def test_validation_applied_by_default():
    from repro.errors import TopologyError
    with pytest.raises(TopologyError):
        build_from_spec({"device": "ssd"})  # leaf without processor


def test_nested_three_levels():
    tree = build_from_spec({
        "device": "hdd",
        "children": [{
            "device": "dram",
            "processors": ["cpu"],
            "children": [{"device": "gpu-mem", "processors": ["gpu-w9100"]}],
        }],
    })
    assert tree.get_max_treelevel() == 2
    assert tree.leaves()[0].storage_type is StorageKind.GPU_DEVICE
