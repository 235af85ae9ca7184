"""Bytes per stored entry of the read-matrix layers, measured with tracemalloc.

One instance at n = 2000, m = ceil(2 n ln n), k = 2, p = 0. Each bound is
25% above the peak measured on numpy 2.4 / scipy 1.17: transmit 17.0,
ReadMatrix 7.0 and erasure.decode 33.3 bytes per entry. The peaks count
what each call allocates, its result included, and not its inputs.
"""

import math
import tracemalloc

import numpy as np
import pytest

from haplosim import channel, erasure
from haplosim.model import Haplotype, MembershipVector, ReadMatrix

N = 2000
M = math.ceil(2 * N * math.log(N))


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(2000)
    h = Haplotype(rng.integers(0, 2, N) * 2 - 1)
    c = MembershipVector(rng.integers(0, 2, M) * 2 - 1)
    cfg = channel.ChannelConfig(n=N, m=M, seed=11)
    observed, _ = channel.transmit(h, c, cfg)
    erasure.decode(observed)  # first-call imports are not the decoder's working set
    return h, c, cfg, observed


def test_transmit_bytes_per_entry(instance):
    h, c, cfg, observed = instance
    assert peak_bytes(lambda: channel.transmit(h, c, cfg)) / observed.indices.size <= 21.3


def test_read_matrix_bytes_per_entry(instance):
    observed = instance[3]
    arrays = (observed.indptr, observed.indices, observed.values)
    assert peak_bytes(lambda: ReadMatrix(N, *arrays)) / observed.indices.size <= 8.8


def test_erasure_decode_bytes_per_entry(instance):
    observed = instance[3]
    result = erasure.decode(observed)
    assert result.ok and result.meta["mismatches"] == 0
    assert peak_bytes(lambda: erasure.decode(observed)) / observed.indices.size <= 41.6
