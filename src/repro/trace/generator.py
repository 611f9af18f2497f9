"""Synthetic instruction stream generation.

:class:`SyntheticTraceGenerator` turns a :class:`BenchmarkProfile` into a
deterministic, infinite stream of :class:`StaticOp` instructions.  The
correct-path stream depends only on the seed, never on simulator state, so
a thread's trace can be replayed after squashes; wrong-path instructions
come from an independent RNG so fetching them does not perturb the correct
path.

:class:`TraceBuffer` provides indexed, replayable access on top of the
generator with pruning of committed history, which is how the pipeline
rewinds after branch mispredictions and FLUSH events.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import (
    OP_CLASS_BY_VALUE,
    BranchKind,
    OpClass,
    StaticOp,
)
from repro.trace.profiles import (
    COLD_REGION_BYTES,
    HOT_REGION_BYTES,
    WARM_REGION_BYTES,
    BenchmarkProfile,
)

#: Cache line size used for streaming strides (matches the memory system).
_LINE = 64

#: Strongly biased outcome probability for predictable branch sites.
_STABLE_BIAS = 0.97

#: Maximum dependency distance the generator will emit.
_MAX_DEP_DIST = 64

#: Maximum synthetic call-stack depth (mirrors the 256-entry RAS loosely).
_MAX_CALL_DEPTH = 48

#: Cold (DRAM-bound) accesses arrive in clusters of this mean length.
#: Real miss streams are bursty — dependent loads walk a cold structure,
#: then execution returns to cached data — and burstiness is what lets a
#: thread overlap several L2 misses (memory-level parallelism) and what
#: makes STALL-style policies viable (one stall covers a whole cluster).
_COLD_BURST_LEN = 4

_FP_LATENCY = 4

# Enum members bound once: an Enum class attribute read costs a slow
# metaclass ``__getattr__`` lookup on Python < 3.12, and every op
# generated compares its class against these.
_INT_ALU = OpClass.INT_ALU
_FP_ALU = OpClass.FP_ALU
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_NO_BRANCH = BranchKind.NONE
_COND = BranchKind.COND
_CALL = BranchKind.CALL
_RETURN = BranchKind.RETURN


class SyntheticTraceGenerator:
    """Deterministic instruction stream for one thread.

    Args:
        profile: behaviour profile of the benchmark being imitated.
        seed: RNG seed; two generators with the same profile and seed
            produce identical streams.
        tid: thread id, used only to place the thread's code and data in a
            disjoint part of the address space (threads still share the L2,
            so they interfere through capacity, as in the real machine).
    """

    def __init__(self, profile: BenchmarkProfile, seed: int, tid: int = 0) -> None:
        self.profile = profile
        self.tid = tid
        self._rng = random.Random(seed)
        self._wp_rng = random.Random(seed ^ 0x5DEECE66D)
        # Threads get disjoint address spaces, staggered by an odd number
        # of lines so their hot/code regions do not alias onto the same
        # cache sets (physical allocation spreads pages in reality; a
        # uniform layout would make all threads fight over one set range).
        base = ((tid + 1) << 34) + tid * 20032
        self._code_base = base
        self._code_size = profile.code_kb * 1024
        self._data_base = base + (1 << 30)
        self._hot_base = self._data_base
        self._warm_base = self._data_base + HOT_REGION_BYTES
        self._cold_base = self._warm_base + WARM_REGION_BYTES
        self._pc = self._code_base
        self._stream_ptr = 0
        self._cold_burst_left = 0
        # Wrong-path fetch keeps private stream/burst state so speculative
        # depth never perturbs the committed address stream.
        self._wp_stream_ptr = 0
        self._wp_burst_left = 0
        self._call_stack: List[int] = []
        self._branch_sites: Dict[int, float] = {}
        self._branch_targets: Dict[int, int] = {}
        # Static code layout: the op class at each pc is fixed on first
        # (correct-path) visit, like real instructions.  Without this the
        # set of branch/load sites grows to the whole code footprint and
        # the BTB and PDG's miss predictor thrash unrealistically.
        self._pc_class: Dict[int, OpClass] = {}
        # Hot-block set: most taken branches land in a small, popular part
        # of the code (loop nests / hot functions), which is what lets the
        # BTB and the direction predictor train even for benchmarks with
        # large code footprints (gcc, vortex).  The remaining targets are
        # spread over the whole footprint and exercise I-cache capacity.
        block_count = self._code_size // 32
        hot_count = max(8, min(32, profile.code_kb // 2))
        self._hot_blocks = [
            self._code_base + self._rng.randrange(block_count) * 32
            for _ in range(hot_count)
        ]
        self._instr_count = 0
        self._since_load = _MAX_DEP_DIST
        self._phase_left = 0
        self._in_mem_phase = True
        # Hot-path precomputation: the dependency-law denominator and the
        # per-phase region parameters are pure functions of the profile,
        # so they are computed once instead of per generated op.
        dep_p = profile.dep_geom_p
        self._log_dep_denom = math.log(1.0 - dep_p) if dep_p < 1.0 else None
        self._phase_params = {
            True: self._phase_param_tuple(True),
            False: self._phase_param_tuple(False),
        }
        # Bresenham-style accumulator: phases follow the mem/compute ratio
        # deterministically (starting with a memory phase), so even short
        # runs see the profile's steady-state mix instead of the huge
        # variance a random phase draw would give.
        self._phase_acc = 0.9999
        self._next_phase()
        # Cumulative mix thresholds for a single uniform draw per op.
        mix = profile.mix
        acc = 0.0
        self._mix_cdf: List[Tuple[float, OpClass]] = []
        for prob, cls in zip(mix, (OpClass.INT_ALU, OpClass.FP_ALU, OpClass.LOAD,
                                   OpClass.STORE, OpClass.BRANCH)):
            acc += prob
            self._mix_cdf.append((acc, cls))

    def capture_state(self) -> dict:
        """Snapshot the stream cursors (StateSnapshot protocol).

        Captures every field that evolves as ops are generated: both RNG
        states, the program counter and region cursors, the call stack,
        the memoised static code layout (branch biases/targets, per-PC
        classes) and the phase machinery.  Address-space layout and the
        hot-block set are functions of (profile, seed, tid) and are
        rebuilt by construction.
        """
        from repro.snapshot import int_dict_to_pairs, rng_state_to_json

        return {
            "rng": rng_state_to_json(self._rng.getstate()),
            "wp_rng": rng_state_to_json(self._wp_rng.getstate()),
            "pc": self._pc,
            "stream_ptr": self._stream_ptr,
            "cold_burst_left": self._cold_burst_left,
            "wp_stream_ptr": self._wp_stream_ptr,
            "wp_burst_left": self._wp_burst_left,
            "call_stack": list(self._call_stack),
            "branch_sites": int_dict_to_pairs(self._branch_sites),
            "branch_targets": int_dict_to_pairs(self._branch_targets),
            "pc_class": [[pc, int(cls)]
                         for pc, cls in sorted(self._pc_class.items())],
            "instr_count": self._instr_count,
            "since_load": self._since_load,
            "phase_left": self._phase_left,
            "in_mem_phase": self._in_mem_phase,
            "phase_acc": self._phase_acc,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the stream cursors from :meth:`capture_state`."""
        from repro.snapshot import int_dict_from_pairs, rng_state_from_json

        self._rng.setstate(rng_state_from_json(state["rng"]))
        self._wp_rng.setstate(rng_state_from_json(state["wp_rng"]))
        self._pc = state["pc"]
        self._stream_ptr = state["stream_ptr"]
        self._cold_burst_left = state["cold_burst_left"]
        self._wp_stream_ptr = state["wp_stream_ptr"]
        self._wp_burst_left = state["wp_burst_left"]
        self._call_stack = list(state["call_stack"])
        self._branch_sites = int_dict_from_pairs(state["branch_sites"])
        self._branch_targets = int_dict_from_pairs(state["branch_targets"])
        self._pc_class = {pc: OP_CLASS_BY_VALUE[cls]
                          for pc, cls in state["pc_class"]}
        self._instr_count = state["instr_count"]
        self._since_load = state["since_load"]
        self._phase_left = state["phase_left"]
        self._in_mem_phase = state["in_mem_phase"]
        self._phase_acc = state["phase_acc"]

    def prewarm_regions(self):
        """Regions to pre-install in the caches: (base, size, kind) tuples.

        See :meth:`repro.mem.hierarchy.MemoryHierarchy.prewarm`; the warm
        region is listed first so hot/code lines are most recent in LRU.
        """
        return [
            (self._warm_base, WARM_REGION_BYTES, "warm"),
            (self._hot_base, HOT_REGION_BYTES, "hot"),
            (self._code_base, self._code_size, "code"),
        ]

    # -- phase machinery ----------------------------------------------------

    def _next_phase(self) -> None:
        """Advance to the next behaviour phase (memory-heavy or compute)."""
        p = self.profile
        self._phase_acc += p.mem_phase_frac
        if self._phase_acc >= 1.0:
            self._phase_acc -= 1.0
            self._in_mem_phase = True
        else:
            self._in_mem_phase = False
        # Durations jitter around the mean (0.4x..1.6x) so co-scheduled
        # threads do not phase-lock, without exponential-tail variance.
        jitter = 0.4 + 1.2 * self._rng.random()
        self._phase_left = max(200, int(p.phase_len * jitter))

    def _region_weights(self, in_mem_phase: Optional[bool] = None) -> Tuple[float, float]:
        """Return (cold, warm) access probabilities for one phase kind.

        Defaults to the current phase.  The steady-state average over
        phases matches the profile's ``cold_frac``/``warm_frac`` so
        single-thread L2 miss rates land on the Table 3 targets, while
        individual phases are visibly memory bound or compute bound
        (Table 5 behaviour).
        """
        p = self.profile
        f = p.mem_phase_frac
        if in_mem_phase is None:
            in_mem_phase = self._in_mem_phase
        if in_mem_phase:
            cold = min(0.95, p.cold_frac / max(f, 0.05))
            warm = min(0.95 - cold, p.warm_frac / max(f, 0.05))
        else:
            # The remaining mass keeps the steady state on target.
            if f >= 1.0:
                cold, warm = p.cold_frac, p.warm_frac
            else:
                cold_mem = min(0.95, p.cold_frac / max(f, 0.05))
                warm_mem = min(0.95 - cold_mem, p.warm_frac / max(f, 0.05))
                cold = max(0.0, (p.cold_frac - f * cold_mem) / (1.0 - f))
                warm = max(0.0, (p.warm_frac - f * warm_mem) / (1.0 - f))
        return cold, warm

    def _phase_param_tuple(self, in_mem_phase: bool) -> Tuple[float, float]:
        """Precompute (burst trigger, warm threshold) for one phase kind.

        Renewal argument for the trigger: a burst of length B covers B
        accesses, a non-burst draw covers one, so triggering with
        probability ``cold / (B - (B-1)*cold)`` makes the steady-state
        cold fraction equal to ``cold``.  The warm threshold is the
        conditional warm probability given the draw was not cold; a
        negative sentinel (never matched by ``rng.random()``) encodes
        the degenerate all-cold case.
        """
        cold, warm = self._region_weights(in_mem_phase)
        burst = _COLD_BURST_LEN
        trigger = cold / (burst - (burst - 1) * cold) if cold < 1.0 else 1.0
        warm_threshold = warm / (1.0 - cold) if cold < 1.0 else -1.0
        return trigger, warm_threshold

    # -- operand helpers ----------------------------------------------------

    def _dep_distance(self, rng: random.Random) -> int:
        """Draw a producer distance from a truncated geometric law."""
        denom = self._log_dep_denom
        u = rng.random()
        if denom is None:  # p == 1: every dependency is distance 1
            return 1
        dist = 1 + int(math.log(max(u, 1e-12)) / denom)
        return min(dist, _MAX_DEP_DIST)

    def _sources(self, rng: random.Random, n_srcs: int) -> Tuple[int, ...]:
        """Draw source distances, possibly biased towards the last load.

        The truncated-geometric draw of :meth:`_dep_distance` is inlined
        here — this runs once per generated instruction.
        """
        bias = self.profile.load_dep_bias
        since_load = self._since_load
        biasable = since_load < _MAX_DEP_DIST
        denom = self._log_dep_denom
        rand = rng.random
        log = math.log
        if n_srcs == 1:  # the common case: avoid the list round-trip
            if biasable and rand() < bias:
                return (since_load + 1,)
            u = rand()
            if denom is None:
                return (1,)
            dist = 1 + int(log(u if u > 1e-12 else 1e-12) / denom)
            return (dist if dist < _MAX_DEP_DIST else _MAX_DEP_DIST,)
        dists = []
        for _ in range(n_srcs):
            if biasable and rand() < bias:
                dists.append(since_load + 1)
                continue
            u = rand()
            if denom is None:
                dists.append(1)
                continue
            dist = 1 + int(log(u if u > 1e-12 else 1e-12) / denom)
            dists.append(dist if dist < _MAX_DEP_DIST else _MAX_DEP_DIST)
        return tuple(dists)

    def _cold_address(self, rng: random.Random, wrong_path: bool) -> int:
        if rng.random() < self.profile.stream_frac:
            if wrong_path:
                self._wp_stream_ptr = (self._wp_stream_ptr + _LINE) \
                    % COLD_REGION_BYTES
                return self._cold_base + self._wp_stream_ptr
            self._stream_ptr = (self._stream_ptr + _LINE) % COLD_REGION_BYTES
            return self._cold_base + self._stream_ptr
        off = rng.randrange(COLD_REGION_BYTES // _LINE) * _LINE
        return self._cold_base + off

    def _mem_address(self, rng: random.Random, wrong_path: bool = False) -> int:
        """Pick a data address from the phase-weighted region model.

        Cold accesses come in clusters of mean ``_COLD_BURST_LEN``: once a
        cluster starts, the next few data references stay cold.  The
        trigger probability is scaled down by the cluster length so the
        steady-state cold fraction still matches the profile.
        """
        if wrong_path:
            if self._wp_burst_left > 0:
                self._wp_burst_left -= 1
                return self._cold_address(rng, True)
        elif self._cold_burst_left > 0:
            self._cold_burst_left -= 1
            return self._cold_address(rng, False)
        trigger, warm_threshold = self._phase_params[self._in_mem_phase]
        u = rng.random()
        if u < trigger:
            if wrong_path:
                self._wp_burst_left = _COLD_BURST_LEN - 1
            else:
                self._cold_burst_left = _COLD_BURST_LEN - 1
            return self._cold_address(rng, wrong_path)
        u = rng.random()
        if u < warm_threshold:
            off = rng.randrange(WARM_REGION_BYTES // 8) * 8
            return self._warm_base + off
        off = rng.randrange(HOT_REGION_BYTES // 8) * 8
        return self._hot_base + off

    def _branch_site_bias(self, pc: int, rng: random.Random) -> float:
        """Return (memoised) taken-probability of the branch site at pc."""
        bias = self._branch_sites.get(pc)
        if bias is None:
            p = self.profile
            if rng.random() < p.br_flaky_frac:
                bias = 0.5
            elif rng.random() < p.br_taken_bias:
                bias = _STABLE_BIAS
            else:
                bias = 1.0 - _STABLE_BIAS
            self._branch_sites[pc] = bias
        return bias

    def _site_target(self, pc: int, rng: random.Random) -> int:
        """The (fixed) target of the branch site at ``pc``.

        Real branches jump to one static target; memoising per site keeps
        the BTB meaningful (a fresh random target per execution would make
        every taken branch a target mispredict).
        """
        target = self._branch_targets.get(pc)
        if target is None:
            if rng.random() < 0.95:
                target = self._hot_blocks[rng.randrange(len(self._hot_blocks))]
            else:
                target = (self._code_base
                          + rng.randrange(self._code_size // 32) * 32)
            self._branch_targets[pc] = target
        return target

    # -- op generation ------------------------------------------------------

    def next_op(self) -> StaticOp:
        """Generate the next correct-path instruction."""
        rng = self._rng
        self._instr_count += 1
        self._phase_left -= 1
        if self._phase_left <= 0:
            self._next_phase()
        op = self._make_op(rng, wrong_path=False)
        return op

    def wrong_path_op(self, pc: int) -> StaticOp:
        """Generate a wrong-path instruction starting near ``pc``.

        Wrong-path ops use an independent RNG stream so speculative fetch
        depth never perturbs the committed trace.  They exercise the same
        resources (queues, registers, caches) as correct-path work, which
        is what makes wrong paths costly under resource pressure.
        """
        return self._make_op(self._wp_rng, wrong_path=True, wp_pc=pc)

    def _draw_class(self, rng: random.Random) -> OpClass:
        u = rng.random()
        for threshold, op_class in self._mix_cdf:
            if u < threshold:
                return op_class
        return self._mix_cdf[-1][1]

    def _make_op(self, rng: random.Random, wrong_path: bool, wp_pc: int = 0) -> StaticOp:
        p = self.profile
        pc_class = self._pc_class
        if wrong_path:
            pc = wp_pc
            # Wrong-path fetch reads the static layout where it exists but
            # never mutates generator state (correct path stays identical
            # whatever the speculation depth).
            op_class = pc_class.get(pc)
            if op_class is None:
                op_class = self._draw_class(rng)
        else:
            pc = self._pc
            self._pc = pc + 4
            op_class = pc_class.get(pc)
            if op_class is None:
                op_class = self._draw_class(rng)
                pc_class[pc] = op_class

        # StaticOp is built positionally (keyword calls cost about twice
        # as much on Python 3.11): op_class, pc, dest_is_fp, src_dists,
        # mem_addr, branch_kind, taken, target, latency.
        if op_class == _INT_ALU:
            srcs = self._sources(rng, 1 + (rng.random() < p.two_src_prob))
            if not wrong_path:
                self._since_load += 1
            return StaticOp(op_class, pc, False, srcs, None, _NO_BRANCH,
                            False, 0, 1)

        if op_class == _FP_ALU:
            srcs = self._sources(rng, 1 + (rng.random() < p.two_src_prob))
            if not wrong_path:
                self._since_load += 1
            return StaticOp(op_class, pc, True, srcs, None, _NO_BRANCH,
                            False, 0, _FP_LATENCY)

        if op_class == _LOAD:
            addr = self._mem_address(rng, wrong_path)
            srcs = self._sources(rng, 1)
            if not wrong_path:
                self._since_load = 0
            dest_fp = rng.random() < p.fp_load_frac
            return StaticOp(op_class, pc, dest_fp, srcs, addr, _NO_BRANCH,
                            False, 0, 1)

        if op_class == _STORE:
            addr = self._mem_address(rng, wrong_path)
            srcs = self._sources(rng, 2)
            if not wrong_path:
                self._since_load += 1
            return StaticOp(op_class, pc, False, srcs, addr, _NO_BRANCH,
                            False, 0, 1)

        # Branch: conditional, call, or return.
        if not wrong_path:
            self._since_load += 1
        srcs = self._sources(rng, 1)
        if wrong_path:
            # Wrong-path control flow never redirects the real front end.
            return StaticOp(op_class, pc, False, srcs, None, _COND,
                            False, 0, 1)
        if self._call_stack and rng.random() < p.call_prob:
            target = self._call_stack.pop()
            self._pc = target
            return StaticOp(op_class, pc, False, srcs, None, _RETURN,
                            True, target, 1)
        if len(self._call_stack) < _MAX_CALL_DEPTH and rng.random() < p.call_prob:
            self._call_stack.append(pc + 4)
            target = self._site_target(pc, rng)
            self._pc = target
            return StaticOp(op_class, pc, False, srcs, None, _CALL,
                            True, target, 1)
        bias = self._branch_site_bias(pc, rng)
        taken = rng.random() < bias
        target = self._site_target(pc, rng) if taken else pc + 4
        if taken:
            self._pc = target
        return StaticOp(op_class, pc, False, srcs, None, _COND,
                        taken, target, 1)


class TraceBuffer:
    """Replayable, windowed view over a generator's correct-path stream.

    The pipeline fetches by monotonically increasing *trace index*; after a
    squash it simply re-reads earlier indices.  Committed history is pruned
    with :meth:`release_below` to keep memory bounded on long runs.
    """

    def __init__(self, generator: SyntheticTraceGenerator) -> None:
        self._gen = generator
        self._ops: List[StaticOp] = []
        self._base = 0

    @property
    def profile(self) -> BenchmarkProfile:
        return self._gen.profile

    def get(self, index: int) -> StaticOp:
        """Return the instruction at ``index``, generating it if needed."""
        ops = self._ops
        i = index - self._base
        if 0 <= i < len(ops):  # fast path: replayed or already generated
            return ops[i]
        if i < 0:
            raise IndexError(
                f"trace index {index} was pruned (base={self._base}); "
                "release_below() was called past a live instruction"
            )
        next_op = self._gen.next_op
        while i >= len(ops):
            ops.append(next_op())
        return ops[i]

    def capture_state(self, low_water: int = 0) -> dict:
        """Snapshot the live window and generator cursors (StateSnapshot).

        The window from ``max(base, low_water)``, the owning thread's
        oldest index still in use, is serialised op by op without pruning
        the buffer, so the capture does not depend on when the last prune
        ran.  Its instructions were drawn *before* the captured RNG
        cursor, so they cannot be regenerated from it — they are data.
        """
        from repro.isa.instruction import encode_static

        drop = min(max(0, low_water - self._base), len(self._ops))
        return {
            "base": self._base + drop,
            "ops": [encode_static(op) for op in self._ops[drop:]],
            "generator": self._gen.capture_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite window and generator from :meth:`capture_state`."""
        from repro.isa.instruction import decode_static

        self._base = state["base"]
        self._ops = [decode_static(row) for row in state["ops"]]
        self._gen.restore_state(state["generator"])

    def wrong_path_op(self, pc: int) -> StaticOp:
        """Delegate wrong-path generation to the underlying generator."""
        return self._gen.wrong_path_op(pc)

    def prewarm_regions(self):
        """Regions to pre-install in the caches (see the generator)."""
        return self._gen.prewarm_regions()

    def release_below(self, index: int) -> None:
        """Drop instructions below ``index``; they can no longer be fetched."""
        if index <= self._base:
            return
        drop = min(index - self._base, len(self._ops))
        del self._ops[:drop]
        self._base += drop

    def __len__(self) -> int:
        """Number of instructions generated so far (including pruned)."""
        return self._base + len(self._ops)
