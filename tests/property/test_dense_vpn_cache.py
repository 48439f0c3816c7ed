"""Differential properties: the numpy-backed VPN cache vs a plain dict.

The engine's vectorized translation kernel resolves whole chunks through
:class:`repro.vm.mmu.DenseVpnCache`.  Equivalence with the dict the page
table used before is a contract, not an aspiration: these properties
replay random operation sequences against both and require identical
answers, through the scalar ``get``/``[] =`` protocol and through
``lookup_many``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.mmu import DenseVpnCache

# -- DenseVpnCache vs plain dict ----------------------------------------------

_BASE = 1 << 20

#: Operations: (kind, vpn-offset, ppn).  Offsets straddle the dense window
#: boundary (capacity 64 below) and go negative, so both the dense vector
#: and the overflow dict are exercised.
_CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "get"]),
        st.integers(min_value=-20, max_value=120),
        st.integers(min_value=0, max_value=1 << 30),
    ),
    max_size=80,
)


class TestDenseVpnCache:
    @settings(max_examples=200, deadline=None)
    @given(ops=_CACHE_OPS)
    def test_matches_dict_model(self, ops):
        cache = DenseVpnCache(_BASE, capacity=64)
        model = {}
        for kind, offset, ppn in ops:
            vpn = _BASE + offset
            if kind == "set":
                cache[vpn] = ppn
                model[vpn] = ppn
            else:
                assert cache.get(vpn) == model.get(vpn)
                assert (vpn in cache) == (vpn in model)
        assert len(cache) == len(model)

    @settings(max_examples=100, deadline=None)
    @given(ops=_CACHE_OPS)
    def test_lookup_many_matches_scalar_gets(self, ops):
        cache = DenseVpnCache(_BASE, capacity=64)
        probes = []
        for kind, offset, ppn in ops:
            vpn = _BASE + offset
            probes.append(vpn)
            if kind == "set":
                cache[vpn] = ppn
        if not probes:
            probes = [_BASE]
        vector = cache.lookup_many(np.asarray(probes, dtype=np.int64))
        for vpn, got in zip(probes, vector.tolist()):
            expected = cache.get(vpn)
            assert got == (expected if expected is not None else -1)

    def test_heap_base_window_matches_workloads(self):
        """The OS model's dense-window base must equal the workloads' heap
        base — the two constants live in different layers and cannot
        import each other, so this test pins the agreement."""
        from repro.common.addr import PAGE_SHIFT
        from repro.vm.os_model import HEAP_BASE_VPN
        from repro.workloads.synthetic import HEAP_BASE

        assert HEAP_BASE_VPN == HEAP_BASE >> PAGE_SHIFT

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DenseVpnCache(0, capacity=0)
