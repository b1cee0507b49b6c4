"""Unit tests for Device, DeviceSpec, and the device catalog."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigError
from repro.memory import catalog
from repro.memory.backends import FileBackend
from repro.memory.device import DeviceSpec, StorageKind
from repro.memory.units import GB, MB


def test_spec_validation():
    with pytest.raises(ConfigError):
        DeviceSpec(name="x", kind=StorageKind.MEM, capacity=0,
                   read_bw=1, write_bw=1)
    with pytest.raises(ConfigError):
        DeviceSpec(name="x", kind=StorageKind.MEM, capacity=1,
                   read_bw=0, write_bw=1)
    with pytest.raises(ConfigError):
        DeviceSpec(name="x", kind=StorageKind.MEM, capacity=1,
                   read_bw=1, write_bw=1, latency=-1)


def test_spec_scaled_replaces_fields():
    base = catalog.spec("ssd")
    scaled = base.scaled(capacity=123, read_bw=1.0)
    assert scaled.capacity == 123
    assert scaled.read_bw == 1.0
    assert scaled.write_bw == base.write_bw
    assert scaled.kind is base.kind


def test_device_allocate_write_read_release():
    dev = catalog.make_device("dram", capacity=4096)
    h = dev.allocate(256)
    dev.write(h, 0, np.full(256, 7, dtype=np.uint8))
    assert dev.read(h, 0, 256).sum() == 7 * 256
    assert dev.used_bytes == 256
    dev.release(h)
    assert dev.used_bytes == 0


def test_device_capacity_enforced():
    dev = catalog.make_device("dram", capacity=1024)
    dev.allocate(512)
    with pytest.raises(CapacityError):
        dev.allocate(1024)


def test_half_duplex_shares_channel():
    hdd = catalog.make_device("hdd")
    assert hdd.read_resource == hdd.write_resource


def test_duplex_separates_channels():
    dram = catalog.make_device("dram")
    assert dram.read_resource != dram.write_resource


def test_instance_names_disambiguate():
    a = catalog.make_device("dram", instance="dram0")
    b = catalog.make_device("dram", instance="dram1")
    assert a.read_resource != b.read_resource
    assert a.name == "dram0"


def test_device_with_file_backend(tmp_path):
    dev = catalog.make_device("ssd", capacity=1 * MB,
                              backend=FileBackend(str(tmp_path / "ssd")))
    h = dev.allocate(128)
    dev.write(h, 0, b"northup")
    assert bytes(dev.read(h, 0, 7)) == b"northup"
    dev.close()


def test_factories_produce_expected_kinds():
    kinds = {"hdd": StorageKind.FILE, "ssd": StorageKind.FILE,
             "nvm": StorageKind.FILE, "nvm-dimm": StorageKind.MEM,
             "dram": StorageKind.MEM, "hbm": StorageKind.MEM,
             "gpu-mem": StorageKind.GPU_DEVICE,
             "gpu-local": StorageKind.GPU_LOCAL}
    for name, kind in kinds.items():
        assert catalog.make_device(name).kind is kind, name


def test_nvm_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="nvm-dimm"):
        catalog.make_device("nvm-quantum")


def test_ssd_bandwidth_overrides():
    spec = catalog.spec("ssd").scaled(read_bw=3500 * MB, write_bw=2100 * MB)
    assert spec.read_bw == 3500 * MB
    assert spec.write_bw == 2100 * MB
    assert spec.latency == catalog.spec("ssd").latency


def test_paper_calibration_numbers():
    """Section V-A device numbers are preserved in the catalog."""
    assert catalog.spec("ssd").read_bw == 1400 * MB
    assert catalog.spec("ssd").write_bw == 600 * MB
    assert catalog.spec("ssd-fast").read_bw == 3500 * MB
    assert catalog.spec("ssd-fast").write_bw == 2100 * MB
    assert catalog.spec("hdd").read_bw == 125 * MB
    assert catalog.spec("dram").capacity == 16 * GB


def test_catalog_lookup_and_errors():
    assert set(catalog.names()) >= {"hdd", "ssd", "dram", "gpu-mem"}
    dev = catalog.make_device("hbm", capacity=1024, instance="hbm0")
    assert dev.capacity == 1024
    assert dev.name == "hbm0"
    with pytest.raises(ConfigError):
        catalog.spec("floppy")


def test_describe_mentions_key_numbers():
    text = catalog.spec("ssd").describe()
    assert "1400.0 MB/s" in text and "600.0 MB/s" in text
