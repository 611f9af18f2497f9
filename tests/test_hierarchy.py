"""Unit tests for the composed memory hierarchy (timing + content)."""

import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.registry import make_policy
from repro.trace.profiles import ALL_BENCHMARKS, get_profile


def make_hierarchy(**kwargs):
    defaults = dict(
        num_threads=2,
        l1i_size=4 * 1024,
        l1d_size=4 * 1024,
        l1_assoc=2,
        l2_size=32 * 1024,
        l2_assoc=4,
        l1_latency=1,
        l2_latency=10,
        memory_latency=100,
        tlb_entries=8,
        tlb_penalty=20,
        mshr_capacity=4,
    )
    defaults.update(kwargs)
    return MemoryHierarchy(**defaults)


def collect_waiter(sink):
    def waiter(cycle):
        sink.append(cycle)
    return waiter


def per_line_prewarm(hierarchy, base, size, kind):
    """Reference: install a region one ``Cache.fill`` per line."""
    line = hierarchy.l1d.line_bytes
    for addr in range(base, base + size, line):
        victim = hierarchy.l2.fill(addr)
        if victim is not None and hierarchy.inclusive_l2:
            hierarchy.l1d.invalidate(victim)
            hierarchy.l1i.invalidate(victim)
        if kind == "code":
            hierarchy.l1i.fill(addr)
        elif kind == "hot":
            hierarchy.l1d.fill(addr)
    if kind == "hot":
        for addr in range(base, base + size, hierarchy.dtlb.page_bytes):
            hierarchy.dtlb.access(addr)
        hierarchy.dtlb.hits = 0
        hierarchy.dtlb.misses = 0


class TestLoadTiming:
    def test_l1_hit_latency(self):
        hierarchy = make_hierarchy()
        hierarchy.l1d.fill(0x1000)
        hierarchy.dtlb.access(0x1000)
        result = hierarchy.access_load(0, 0x1000, 100, lambda c: None)
        assert result.complete_cycle == 101
        assert not result.l1_miss

    def test_l2_hit_fill_time(self):
        hierarchy = make_hierarchy()
        hierarchy.l2.fill(0x2000)
        hierarchy.dtlb.access(0x2000)
        fills = []
        result = hierarchy.access_load(0, 0x2000, 100, collect_waiter(fills))
        assert result.l1_miss and not result.l2_miss
        assert result.complete_cycle is None
        for cycle in range(100, 112):
            hierarchy.tick(cycle)
        assert fills == [111]  # 100 + 1 (L1) + 10 (L2)

    def test_memory_fill_time_and_detection(self):
        hierarchy = make_hierarchy()
        hierarchy.dtlb.access(0x3000)
        fills = []
        result = hierarchy.access_load(0, 0x3000, 50, collect_waiter(fills))
        assert result.l2_miss
        assert result.l2_detect_cycle == 60  # issue + L2 latency
        for cycle in range(50, 162):
            hierarchy.tick(cycle)
        assert fills == [161]  # 50 + 1 + 10 + 100

    def test_tlb_miss_penalty_added(self):
        hierarchy = make_hierarchy()
        hierarchy.l1d.fill(0x4000)
        result = hierarchy.access_load(0, 0x4000, 10, lambda c: None)
        assert result.tlb_miss
        assert result.complete_cycle == 10 + 1 + 20

    def test_perfect_dl1_always_hits(self):
        hierarchy = make_hierarchy(perfect_dl1=True)
        result = hierarchy.access_load(0, 0x9999999, 7, lambda c: None)
        assert result.complete_cycle == 8
        assert not result.l1_miss


class TestMissMerging:
    def test_second_load_merges(self):
        hierarchy = make_hierarchy()
        hierarchy.dtlb.access(0x5000)
        first, second = [], []
        r1 = hierarchy.access_load(0, 0x5000, 10, collect_waiter(first))
        r2 = hierarchy.access_load(1, 0x5010, 12, collect_waiter(second))
        assert r1.l2_miss and r2.l2_miss
        assert hierarchy.mshrs.merges == 1
        fill_cycle = 10 + 1 + 10 + 100
        for cycle in range(10, fill_cycle + 1):
            hierarchy.tick(cycle)
        assert first == [fill_cycle]
        assert second == [fill_cycle]

    def test_mshr_full_returns_retry(self):
        hierarchy = make_hierarchy(mshr_capacity=1)
        hierarchy.dtlb.access(0)
        hierarchy.access_load(0, 0x0, 1, lambda c: None)
        result = hierarchy.access_load(0, 0x10000, 1, lambda c: None)
        assert result.retry
        # retry accesses must not pollute statistics
        assert hierarchy.thread_stats[0].l1d_accesses == 1


class TestStores:
    def test_store_hit_no_mshr(self):
        hierarchy = make_hierarchy()
        hierarchy.l1d.fill(0x100)
        hierarchy.access_store(0, 0x100, 5)
        assert hierarchy.mshrs.outstanding() == 0

    def test_store_miss_allocates_fill(self):
        hierarchy = make_hierarchy()
        hierarchy.access_store(0, 0x6000, 5)
        assert hierarchy.mshrs.outstanding() == 1
        assert hierarchy.thread_stats[0].store_l2_misses == 1

    def test_store_misses_not_counted_as_load_misses(self):
        hierarchy = make_hierarchy()
        hierarchy.access_store(0, 0x6000, 5)
        assert hierarchy.thread_stats[0].l2_data_misses == 0


class TestIFetch:
    def test_icache_hit(self):
        hierarchy = make_hierarchy()
        hierarchy.l1i.fill(0x7000)
        assert hierarchy.access_ifetch(0, 0x7000, 3) is None

    def test_icache_miss_returns_fill_cycle(self):
        hierarchy = make_hierarchy()
        ready = hierarchy.access_ifetch(0, 0x8000, 3)
        assert ready == 3 + 1 + 10 + 100
        for cycle in range(3, ready + 1):
            hierarchy.tick(cycle)
        assert hierarchy.l1i.contains(0x8000)
        assert not hierarchy.l1d.contains(0x8000)

    def test_icache_miss_merges_with_in_flight(self):
        hierarchy = make_hierarchy()
        first = hierarchy.access_ifetch(0, 0x8000, 3)
        second = hierarchy.access_ifetch(1, 0x8000, 4)
        assert second == first


class TestPrewarm:
    def test_prewarm_hot_fills_l1d_l2_tlb(self):
        hierarchy = make_hierarchy()
        hierarchy.prewarm(0, 0x10000, 2048, "hot")
        assert hierarchy.l1d.contains(0x10000)
        assert hierarchy.l2.contains(0x10000)
        assert hierarchy.dtlb.access(0x10000)

    def test_prewarm_code_fills_l1i(self):
        hierarchy = make_hierarchy()
        hierarchy.prewarm(0, 0x20000, 1024, "code")
        assert hierarchy.l1i.contains(0x20000)
        assert not hierarchy.l1d.contains(0x20000)

    def test_prewarm_warm_fills_l2_only(self):
        hierarchy = make_hierarchy()
        hierarchy.prewarm(0, 0x30000, 1024, "warm")
        assert hierarchy.l2.contains(0x30000)
        assert not hierarchy.l1d.contains(0x30000)

    def test_prewarm_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_hierarchy().prewarm(0, 0, 64, "lukewarm")

    @pytest.mark.parametrize("num_threads", [1, 2, 4, 6])
    @pytest.mark.parametrize("changes,offset", [
        ({}, 0),
        # A small inclusive L2 evicts lines still held in L1I/L1D.
        ({"inclusive_l2": True, "l2_size": 64 * 1024}, 0),
        ({}, 24),  # region bases off line boundaries
    ], ids=["default", "inclusive", "unaligned"])
    def test_one_pass_matches_per_line_fills(self, num_threads, changes,
                                             offset):
        """Every profile's regions, in the processor's pre-warm order and
        then in reverse (refilling resident lines in a new LRU order):
        the one-pass install equals filling line by line."""
        config = SMTConfig(prewarm_caches=False, **changes)
        names = sorted(ALL_BENCHMARKS)
        for start in range(0, len(names), num_threads):
            profiles = [get_profile(names[(start + i) % len(names)])
                        for i in range(num_threads)]
            processor = SMTProcessor(config, profiles, make_policy("ICOUNT"))
            one_pass = processor.hierarchy
            reference = SMTProcessor(config, profiles,
                                     make_policy("ICOUNT")).hierarchy
            regions = [(thread.tid, base + offset, size, kind)
                       for order in ("warm", "hot", "code")
                       for thread in processor.threads
                       for base, size, kind in thread.trace.prewarm_regions()
                       if kind == order]
            for tid, base, size, kind in regions + regions[::-1]:
                one_pass.prewarm(tid, base, size, kind)
                per_line_prewarm(reference, base, size, kind)
            assert one_pass.capture_state() == reference.capture_state()


class TestInclusionPolicy:
    def test_non_inclusive_keeps_l1_lines(self):
        hierarchy = make_hierarchy()
        hierarchy.l1d.fill(0x0)
        # Thrash L2 far beyond capacity; L1 copy must survive.
        for i in range(hierarchy.l2.num_sets * hierarchy.l2.assoc * 2):
            hierarchy.l2.fill(0x100000 + i * 64)
        assert hierarchy.l1d.contains(0x0)

    def test_missrate_statistic(self):
        hierarchy = make_hierarchy()
        hierarchy.dtlb.access(0x0)
        hierarchy.access_load(0, 0x0, 1, lambda c: None)  # memory miss
        stats = hierarchy.thread_stats[0]
        assert stats.l2_missrate_pct() == pytest.approx(100.0)
