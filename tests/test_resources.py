"""Unit tests for shared resource accounting."""

import pytest

from repro.isa.instruction import OpClass
from repro.pipeline.config import SMTConfig
from repro.pipeline.resources import (
    FP_RESOURCES,
    IQ_RESOURCES,
    REG_RESOURCES,
    Resource,
    SharedResources,
    iq_for_class,
    reg_for_dest,
)


def make_resources(num_threads=2, **cfg):
    return SharedResources(SMTConfig(**cfg), num_threads)


class TestMapping:
    def test_iq_for_class(self):
        assert iq_for_class(OpClass.INT_ALU) == Resource.IQ_INT
        assert iq_for_class(OpClass.BRANCH) == Resource.IQ_INT
        assert iq_for_class(OpClass.FP_ALU) == Resource.IQ_FP
        assert iq_for_class(OpClass.LOAD) == Resource.IQ_LS
        assert iq_for_class(OpClass.STORE) == Resource.IQ_LS

    def test_reg_for_dest(self):
        assert reg_for_dest(False) == Resource.REG_INT
        assert reg_for_dest(True) == Resource.REG_FP

    def test_resource_groups(self):
        assert set(IQ_RESOURCES) | set(REG_RESOURCES) == set(Resource)
        assert set(FP_RESOURCES) == {Resource.IQ_FP, Resource.REG_FP}


class TestPools:
    def test_totals_follow_config(self):
        resources = make_resources(num_threads=4)
        assert resources.totals[Resource.IQ_INT] == 80
        # 352 physical - 32 x 4 architectural = 224 rename registers.
        assert resources.totals[Resource.REG_INT] == 224
        assert resources.totals[Resource.REG_FP] == 224

    def test_rename_pool_grows_with_fewer_threads(self):
        assert (make_resources(2).totals[Resource.REG_INT]
                == 352 - 64)

    def test_acquire_release_roundtrip(self):
        resources = make_resources()
        resources.acquire(Resource.IQ_LS, 1)
        assert resources.usage(Resource.IQ_LS, 1) == 1
        assert resources.free(Resource.IQ_LS) == 79
        resources.release(Resource.IQ_LS, 1)
        assert resources.usage(Resource.IQ_LS, 1) == 0
        assert resources.free(Resource.IQ_LS) == 80

    def test_over_allocation_rejected(self):
        resources = make_resources(num_threads=1, int_iq_size=2)
        resources.acquire(Resource.IQ_INT, 0)
        resources.acquire(Resource.IQ_INT, 0)
        with pytest.raises(RuntimeError):
            resources.acquire(Resource.IQ_INT, 0)

    def test_underflow_rejected(self):
        with pytest.raises(RuntimeError):
            make_resources().release(Resource.IQ_INT, 0)

    def test_register_file_too_small(self):
        with pytest.raises(ValueError):
            SharedResources(SMTConfig(int_physical_registers=64), 4)


class TestRob:
    def test_shared_rob_not_partitioned_by_default(self):
        resources = make_resources(num_threads=4)
        assert resources.rob_cap_per_thread == 512

    def test_partitioned_rob(self):
        resources = SharedResources(SMTConfig(rob_partitioned=True), 4)
        assert resources.rob_cap_per_thread == 128

    def test_rob_accounting(self):
        resources = make_resources()
        resources.acquire_rob(0)
        resources.acquire_rob(1)
        assert resources.rob_used == 2
        assert resources.rob_free() == 510
        assert resources.rob_free_for_thread(0) == 510
        resources.release_rob(0)
        assert resources.rob_per_thread == [0, 1]

    def test_rob_underflow_rejected(self):
        with pytest.raises(RuntimeError):
            make_resources().release_rob(0)

    def test_rob_free_for_thread_respects_partition(self):
        resources = SharedResources(SMTConfig(rob_size=8,
                                              rob_partitioned=True), 2)
        for _ in range(4):
            resources.acquire_rob(0)
        assert resources.rob_free_for_thread(0) == 0
        assert resources.rob_free_for_thread(1) == 4


class TestViews:
    def test_iq_total_for_thread(self):
        resources = make_resources()
        resources.acquire(Resource.IQ_INT, 0)
        resources.acquire(Resource.IQ_FP, 0)
        resources.acquire(Resource.IQ_LS, 0)
        resources.acquire(Resource.IQ_LS, 1)
        assert resources.iq_total_for_thread(0) == 3
        assert resources.iq_total_for_thread(1) == 1

    def test_consistency_check_passes(self):
        resources = make_resources()
        resources.acquire(Resource.REG_INT, 0)
        resources.acquire_rob(0)
        resources.check_consistency()

    def test_consistency_check_detects_corruption(self):
        resources = make_resources()
        resources.used[Resource.REG_INT] = 5
        with pytest.raises(AssertionError):
            resources.check_consistency()

    @pytest.mark.parametrize("resource,count", [
        (Resource.REG_FP, 289),   # one past the 288-entry pool
        (Resource.REG_FP, -1),    # a release without its acquire
        (Resource.IQ_LS, 81),
    ])
    def test_consistency_check_detects_shared_corruption(self, resource,
                                                         count):
        """Both sides corrupted alike: the sums agree, the bounds do not
        (what the inlined rename/commit counter updates could cause)."""
        resources = make_resources()
        resources.used[resource] = count
        resources.per_thread[resource][1] = count
        with pytest.raises(AssertionError, match=resource.name):
            resources.check_consistency()

    def test_consistency_check_detects_rob_corruption(self):
        resources = SharedResources(SMTConfig(rob_size=8,
                                              rob_partitioned=True), 2)
        resources.rob_used = resources.rob_per_thread[0] = 5
        with pytest.raises(AssertionError, match="ROB"):
            resources.check_consistency()
        resources.rob_used = resources.rob_per_thread[0] = -1
        with pytest.raises(AssertionError, match="ROB"):
            resources.check_consistency()
