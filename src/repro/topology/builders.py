"""Prebuilt topologies for the paper's evaluated systems.

Section V-A runs two machines:

* the **APU system** (A10-7850K/7960K): a two-level Northup tree --
  file storage (SSD or disk) at the root, a DRAM staging buffer below
  it, with the APU's CPU and GPU sharing that memory at the leaf;
* the **discrete-GPU system** (A10-7850K + FirePro W9100): three levels
  -- file storage, DRAM, and the GPU's own device memory at the leaf.

Also provided: a single-level in-memory system (the baseline), the
asymmetric Figure 2 sample tree, and a deeper "future node" topology
with NVM and die-stacked DRAM (the Exascale configuration of
Section VI's "Northup for HPC" discussion).
"""

from __future__ import annotations

from repro.compute.cpu import make_cpu_steamroller
from repro.compute.gpu import make_gpu_apu, make_gpu_w9100
from repro.errors import ConfigError
from repro.memory.backends import DataBackend, MemBackend
from repro.memory.catalog import make_device
from repro.memory.channel import Link
from repro.memory.device import Device, DeviceSpec, StorageKind
from repro.memory.units import GB
from repro.topology.tree import TopologyTree
from repro.topology.validate import validate_tree

#: The DRAM slice Section V-A configures as the out-of-core staging
#: buffer (the in-memory runs use the full 16 GB).
STAGING_BUFFER_BYTES = 2 * GB


def _storage_device(storage: str, capacity: int | None,
                    backend: DataBackend | None):
    if storage not in ("ssd", "hdd", "nvm", "ssd-fast"):
        raise ConfigError(f"storage must be one of ssd/hdd/nvm/ssd-fast, "
                          f"got {storage!r}")
    return make_device(storage, capacity=capacity,
                       backend=backend or MemBackend(),
                       instance=f"{storage}.root")


def apu_two_level(*, storage: str = "ssd",
                  storage_capacity: int | None = None,
                  staging_bytes: int = STAGING_BUFFER_BYTES,
                  storage_backend: DataBackend | None = None,
                  with_cpu: bool = True) -> TopologyTree:
    """The paper's APU system: storage root -> DRAM staging -> APU leaf.

    ``staging_bytes`` defaults to the paper's 2 GB out-of-core staging
    buffer.  The leaf carries the integrated GPU and (optionally) the
    CPU -- both needed for the Figure 11 load-balancing study.
    """
    tree = TopologyTree()
    root = tree.add_node(_storage_device(storage, storage_capacity,
                                         storage_backend))
    procs = [make_gpu_apu()]
    if with_cpu:
        procs.append(make_cpu_steamroller())
    tree.add_node(make_device("dram", capacity=staging_bytes,
                              instance="dram.staging"),
                  parent=root, processors=procs)
    validate_tree(tree)
    return tree


def discrete_gpu_three_level(*, storage: str = "hdd",
                             storage_capacity: int | None = None,
                             staging_bytes: int = STAGING_BUFFER_BYTES,
                             gpu_mem_bytes: int | None = None,
                             storage_backend: DataBackend | None = None) -> TopologyTree:
    """The discrete-GPU system: storage -> DRAM -> W9100 device memory.

    The CPU attaches to the (non-leaf) DRAM node -- the exception the
    paper calls out in Section III-B; the GPU sits at the device-memory
    leaf.
    """
    tree = TopologyTree()
    root = tree.add_node(_storage_device(storage, storage_capacity,
                                         storage_backend))
    dram = tree.add_node(make_device("dram", capacity=staging_bytes,
                                     instance="dram.staging"),
                         parent=root,
                         processors=[make_cpu_steamroller()])
    tree.add_node(make_device("gpu-mem", capacity=gpu_mem_bytes,
                              instance="gpu-mem.w9100"),
                  parent=dram, processors=[make_gpu_w9100()])
    validate_tree(tree)
    return tree


def in_memory_single_level(*, capacity: int | None = None,
                           with_cpu: bool = True) -> TopologyTree:
    """The in-memory machine: one DRAM node holding the whole working
    set (the paper's 16 GB configuration), APU processors attached.  An
    app run on it is Section V-B's in-memory upper bound."""
    tree = TopologyTree()
    procs = [make_gpu_apu()]
    if with_cpu:
        procs.append(make_cpu_steamroller())
    tree.add_node(make_device("dram", capacity=capacity or 16 * GB,
                              instance="dram.main"),
                  processors=procs)
    validate_tree(tree)
    return tree


def dual_branch_apu(*, storage: str = "ssd",
                    storage_capacity: int | None = None,
                    staging_bytes: int = STAGING_BUFFER_BYTES,
                    storage_backend: DataBackend | None = None) -> TopologyTree:
    """A two-branch machine: one storage root feeding two independent
    staging memories, each with its own GPU.

    Section III-C: "level i can spawn multiple tasks each processing one
    chunk to one of its children at level i+1 (e.g., multiple tree
    branches)" -- chunks sent to different branches execute
    concurrently, which the virtual timeline exposes directly.
    """
    tree = TopologyTree()
    root = tree.add_node(_storage_device(storage, storage_capacity,
                                         storage_backend))
    for i in range(2):
        tree.add_node(make_device("dram", capacity=staging_bytes,
                                  instance=f"dram.branch{i}"),
                      parent=root,
                      processors=[make_gpu_apu(name=f"gpu.branch{i}"),
                                  make_cpu_steamroller(name=f"cpu.branch{i}")])
    validate_tree(tree)
    return tree


#: A shared parallel filesystem (Lustre/GPFS class): high aggregate
#: bandwidth, high access latency.
PARALLEL_FS = DeviceSpec(
    name="pfs",
    kind=StorageKind.FILE,
    capacity=100 * 1000 * GB,
    read_bw=2 * GB,
    write_bw=2 * GB,
    latency=1e-3,
    duplex=True,
)

#: EDR InfiniBand-class fabric between the filesystem and compute nodes.
INFINIBAND = Link(name="infiniband", bandwidth=5 * GB, latency=1.5e-6)


def two_node_cluster(*, staging_bytes: int = STAGING_BUFFER_BYTES,
                     nvme_capacity: int | None = None,
                     pfs_backend: DataBackend | None = None) -> TopologyTree:
    """A small distributed machine (Section VII's future-work direction,
    and Section VI's "Northup for HPC"): a shared parallel filesystem at
    the root, an InfiniBand fabric to two compute nodes, each with a
    local NVMe burst buffer, DRAM, and an APU.

    The tree model needs nothing new -- distribution is just more
    levels and more branches: pfs -> (per-node NVMe -> DRAM+APU) x 2.
    """
    tree = TopologyTree()
    root = tree.add_node(Device(spec=PARALLEL_FS, instance="pfs.root",
                                backend=pfs_backend or MemBackend()))
    for i in range(2):
        nvme = tree.add_node(
            make_device("ssd", capacity=nvme_capacity,
                        instance=f"nvme.node{i}"),
            parent=root, link=INFINIBAND)
        tree.add_node(
            make_device("dram", capacity=staging_bytes,
                        instance=f"dram.node{i}"),
            parent=nvme,
            processors=[make_gpu_apu(name=f"gpu.node{i}"),
                        make_cpu_steamroller(name=f"cpu.node{i}")])
    validate_tree(tree)
    return tree


def figure2_asymmetric() -> TopologyTree:
    """The asymmetric sample of Figure 2: a root storage with two
    subtrees of different depths and processor mixes.

    Node numbering follows the figure's breadth-first order.  One branch
    is a conventional DRAM + discrete GPU hierarchy; the other goes
    through NVM to a PIM-style stack (the "any subsystem with its own
    memory hierarchy" case of Section VI).
    """
    tree = TopologyTree()
    root = tree.add_node(make_device("hdd", instance="store.0"))          # 0
    left = tree.add_node(make_device("nvm", instance="nvm.1"),
                         parent=root)                                      # 1
    right = tree.add_node(make_device("dram", instance="dram.2"),
                          parent=root,
                          processors=[make_cpu_steamroller(name="cpu.r")])  # 2
    l3 = tree.add_node(make_device("dram", capacity=4 * GB,
                                   instance="dram.3"), parent=left)        # 3
    tree.add_node(make_device("hbm", instance="hbm.4"), parent=right,
                  processors=[make_gpu_apu(name="gpu.4")])                 # 4
    tree.add_node(make_device("gpu-mem", instance="gpu-mem.5"),
                  parent=right, processors=[make_gpu_w9100(name="gpu.5")])  # 5
    tree.add_node(make_device("hbm", instance="hbm.6"), parent=l3,
                  processors=[make_gpu_apu(name="pim.6")])                  # 6
    tree.add_node(make_device("hbm", instance="hbm.7"), parent=l3,
                  processors=[make_gpu_apu(name="pim.7")])                  # 7
    validate_tree(tree)
    return tree


def exascale_node(*, storage_backend: DataBackend | None = None,
                  nvm_capacity: int | None = None,
                  dram_capacity: int | None = None,
                  hbm_capacity: int | None = None,
                  gpu_mem_capacity: int | None = None) -> TopologyTree:
    """A deep "future Exascale node" (Section VI): NVM as large slow
    per-node memory, DRAM, die-stacked HBM, and an accelerator leaf.

    Four software-managed levels -- the kind of hierarchy the paper
    argues only a recursive model maps to without rewrites.  Capacities
    can be overridden per level for scaled experiments.
    """
    tree = TopologyTree()
    root = tree.add_node(make_device("nvm-dimm", instance="nvm.root",
                                     capacity=nvm_capacity,
                                     backend=storage_backend or MemBackend()))
    dram = tree.add_node(make_device("dram", instance="dram.main",
                                     capacity=dram_capacity),
                         parent=root, processors=[make_cpu_steamroller()])
    hbm = tree.add_node(make_device("hbm", instance="hbm.stack",
                                    capacity=hbm_capacity),
                        parent=dram)
    tree.add_node(make_device("gpu-mem", instance="gpu-mem.accel",
                              capacity=gpu_mem_capacity),
                  parent=hbm, processors=[make_gpu_w9100()])
    validate_tree(tree)
    return tree
