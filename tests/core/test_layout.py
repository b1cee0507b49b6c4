"""Tests for layout-transforming moves (Section VI's data-layout
extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layout import AosToSoa, Identity, SoaToAos, Transpose
from repro.core.system import System
from repro.errors import TransferError
from repro.memory.units import MB
from repro.sim.trace import Phase
from repro.topology.builders import apu_two_level


def bytes_of(*vals):
    return np.array(vals, dtype=np.uint8)


# -- pure transforms ----------------------------------------------------------

def test_identity_is_free_noop():
    t = Identity(nbytes=4)
    data = bytes_of(1, 2, 3, 4)
    np.testing.assert_array_equal(t.apply(data), data)
    assert t.cost_factor == 0.0
    assert t.inverse() is t


def test_transpose_bytes():
    # 2x3 matrix of 1-byte elements: [[1,2,3],[4,5,6]] -> [[1,4],[2,5],[3,6]]
    t = Transpose(rows=2, cols=3, elem_size=1)
    out = t.apply(bytes_of(1, 2, 3, 4, 5, 6))
    np.testing.assert_array_equal(out, bytes_of(1, 4, 2, 5, 3, 6))


def test_transpose_multibyte_elements():
    t = Transpose(rows=2, cols=2, elem_size=2)
    # [[ab, cd], [ef, gh]] -> [[ab, ef], [cd, gh]]
    out = t.apply(bytes_of(0xA, 0xB, 0xC, 0xD, 0xE, 0xF, 0x1, 0x2))
    np.testing.assert_array_equal(out,
                                  bytes_of(0xA, 0xB, 0xE, 0xF, 0xC, 0xD,
                                           0x1, 0x2))


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 16), cols=st.integers(1, 16),
       elem=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 999))
def test_transpose_roundtrip(rows, cols, elem, seed):
    t = Transpose(rows=rows, cols=cols, elem_size=elem)
    data = np.random.default_rng(seed).integers(
        0, 256, size=rows * cols * elem).astype(np.uint8)
    np.testing.assert_array_equal(t.inverse().apply(t.apply(data)), data)


def test_transpose_matches_numpy_on_floats():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((5, 7)).astype(np.float32)
    t = Transpose(rows=5, cols=7, elem_size=4)
    out = t.apply(mat.reshape(-1).view(np.uint8)).view(np.float32)
    np.testing.assert_array_equal(out.reshape(7, 5), mat.T)


def test_aos_soa_small_example():
    # Two records of (2-byte, 1-byte) fields: [a1 a2 b | c1 c2 d]
    t = AosToSoa(field_sizes=(2, 1), count=2)
    out = t.apply(bytes_of(1, 2, 9, 3, 4, 8))
    np.testing.assert_array_equal(out, bytes_of(1, 2, 3, 4, 9, 8))


@settings(max_examples=40, deadline=None)
@given(fields=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       count=st.integers(1, 20), seed=st.integers(0, 999))
def test_aos_soa_roundtrip(fields, count, seed):
    t = AosToSoa(field_sizes=tuple(fields), count=count)
    data = np.random.default_rng(seed).integers(
        0, 256, size=t.expected_nbytes).astype(np.uint8)
    np.testing.assert_array_equal(t.inverse().apply(t.apply(data)), data)
    assert isinstance(t.inverse(), SoaToAos)


def test_transform_validation():
    with pytest.raises(TransferError):
        Transpose(rows=0, cols=3)
    with pytest.raises(TransferError):
        AosToSoa(field_sizes=(), count=3)
    with pytest.raises(TransferError):
        AosToSoa(field_sizes=(2,), count=0)
    with pytest.raises(TransferError):
        Transpose(rows=2, cols=2, elem_size=1).apply(bytes_of(1, 2, 3))


# -- the transforming move ----------------------------------------------------

@pytest.fixture
def system():
    sys_ = System(apu_two_level(storage_capacity=16 * MB,
                                staging_bytes=4 * MB))
    yield sys_
    sys_.close()


def test_move_transformed_transposes_in_flight(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    mat = np.arange(12, dtype=np.float32).reshape(3, 4)
    src = system.alloc(mat.nbytes, root)
    dst = system.alloc(mat.nbytes, leaf)
    system.preload(src, mat)
    system.move_transformed(dst, src, mat.nbytes,
                            Transpose(rows=3, cols=4, elem_size=4))
    np.testing.assert_array_equal(
        system.fetch(dst, np.float32, shape=(4, 3)), mat.T)


def test_move_transformed_charges_extra_pass(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    n = 512 * 512 * 4  # 1 MiB exactly
    src = system.alloc(n, root)
    a = system.alloc(n, leaf)
    b = system.alloc(n, leaf)
    plain = system.move(a, src, n)
    transformed = system.move_transformed(
        b, src, n, Transpose(rows=512, cols=512, elem_size=4))
    assert transformed.duration > plain.duration
    assert system.breakdown().by_phase[Phase.MEM_COPY] > 0


def test_move_transformed_identity_costs_nothing_extra(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    src = system.alloc(1024, root)
    dst = system.alloc(1024, leaf)
    system.preload(src, np.arange(1024, dtype=np.uint8))
    res = system.move_transformed(dst, src, 1024, Identity(nbytes=1024))
    np.testing.assert_array_equal(system.fetch(dst, np.uint8),
                                  np.arange(1024, dtype=np.uint8))
    assert Phase.MEM_COPY not in system.breakdown().by_phase
    assert res.nbytes == 1024


def test_move_transformed_size_mismatch_rejected(system):
    root, leaf = system.tree.root, system.tree.leaves()[0]
    src = system.alloc(64, root)
    dst = system.alloc(64, leaf)
    with pytest.raises(TransferError):
        system.move_transformed(dst, src, 64,
                                Transpose(rows=3, cols=3, elem_size=4))
