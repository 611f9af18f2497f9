"""The SMT processor: a cycle-level, trace-driven out-of-order pipeline.

Stage order within a cycle runs the back end first (fills, writeback,
commit, issue) and the front end last (rename, fetch) so resources freed
in a cycle become visible to allocation in the same cycle, the usual
reverse-pipeline iteration of cycle simulators.

The processor delegates two decisions to a pluggable policy object
(:mod:`repro.policies`): the ordered set of threads allowed to fetch each
cycle, and whether a thread may allocate back-end resources at rename.
Everything a policy may want to observe — per-thread occupancy counters,
pending/detected miss counters, queue depths — is exposed through
:class:`~repro.pipeline.resources.SharedResources` and the thread
contexts, matching the hardware counters of the paper's Figure 3.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.branch.unit import BranchUnit
from repro.isa.instruction import (
    MicroOp,
    OpClass,
    ST_COMPLETED,
    ST_COMMITTED,
    ST_IN_QUEUE,
    ST_ISSUED,
    ST_SQUASHED,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.pipeline.config import SMTConfig
from repro.pipeline.fastpath import _PRUNE_INTERVAL, run_fast
from repro.pipeline.resources import SharedResources
from repro.pipeline.thread import ThreadContext
from repro.trace.generator import SyntheticTraceGenerator, TraceBuffer
from repro.trace.profiles import BenchmarkProfile

#: Execution unit groups by ``StaticOp.iq`` value: the snapshot's
#: ``ready`` keys.
_UNIT_GROUPS = ("int", "fp", "ls")

# Enum members bound once: an Enum class attribute read costs a slow
# metaclass ``__getattr__`` lookup on Python < 3.12.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH


class SMTProcessor:
    """A simulated SMT processor running one synthetic program per context.

    Args:
        config: hardware configuration (see :class:`SMTConfig`).
        profiles: one benchmark profile per hardware context.
        policy: fetch/allocation policy (attached via ``policy.attach``).
        seed: base RNG seed; each thread derives its own stream from it.
        state: a tree from :meth:`capture_state` to build the processor
            from.  The processor is then restored from it instead of
            pre-warmed: the restore overwrites every cache and TLB line
            the pre-warm would install, so skipping it is exact and the
            result equals construct-then-:meth:`restore_state`.
        restore_policy: with ``state``, also restore policy-internal
            state (see :meth:`restore_state`).
    """

    def __init__(
        self,
        config: SMTConfig,
        profiles: Sequence[BenchmarkProfile],
        policy,
        seed: int = 0,
        state: Optional[dict] = None,
        restore_policy: bool = True,
    ) -> None:
        if not profiles:
            raise ValueError("at least one thread profile is required")
        self.config = config
        self.num_threads = len(profiles)
        self.cycle = 0
        self.stat_start_cycle = 0
        self.resources = SharedResources(config, self.num_threads)
        self.hierarchy = MemoryHierarchy(
            self.num_threads,
            l1i_size=config.l1i_size,
            l1d_size=config.l1d_size,
            l1_assoc=config.l1_assoc,
            line_bytes=config.line_bytes,
            l2_size=config.l2_size,
            l2_assoc=config.l2_assoc,
            l1_latency=config.l1_latency,
            l2_latency=config.l2_latency,
            memory_latency=config.memory_latency,
            tlb_entries=config.tlb_entries,
            tlb_penalty=config.tlb_penalty,
            mshr_capacity=config.mshr_capacity,
            perfect_dl1=config.perfect_dl1,
            inclusive_l2=config.inclusive_l2,
        )
        self.branch_unit = BranchUnit(
            self.num_threads,
            gshare_entries=config.gshare_entries,
            gshare_history_bits=config.gshare_history_bits,
            btb_entries=config.btb_entries,
            btb_assoc=config.btb_assoc,
            ras_depth=config.ras_depth,
        )
        self.threads: List[ThreadContext] = []
        for tid, profile in enumerate(profiles):
            generator = SyntheticTraceGenerator(
                profile, seed=seed * 1000003 + tid * 7919 + 17, tid=tid
            )
            self.threads.append(
                ThreadContext(tid, TraceBuffer(generator), config.fetch_queue_size)
            )
        if config.prewarm_caches and state is None:
            self._prewarm()
        self._seq = 0
        self._completions: Dict[int, List[MicroOp]] = {}
        self._l2_detect_events: Dict[int, List[MicroOp]] = {}
        #: Ready instructions per unit group (indexed by ``StaticOp.iq``),
        #: as min-heaps of (seq, op) so the issue stage pops oldest-first
        #: without re-sorting per cycle.
        self._ready: List[List[Tuple[int, MicroOp]]] = [[], [], []]
        self._unit_caps = [config.int_units, config.fp_units, config.ls_units]
        #: Optional per-cycle probes (e.g. phase sampling for Table 5);
        #: each is called with the processor at the end of every cycle.
        self.cycle_hooks: List = []
        #: Per-cycle phase histogram: ``phase_counts[k]`` counts cycles
        #: during which exactly k threads were slow (pending L1D miss).
        #: None until :meth:`enable_phase_tracking` switches it on, so
        #: monolithic runs pay only a None check per cycle.
        self.phase_counts: Optional[List[int]] = None
        self.policy = policy
        policy.attach(self)
        # Per-op policy hooks are only dispatched when the policy class
        # actually overrides them: the base no-ops would otherwise cost a
        # bound-method call per rename/commit/load on the hot path.
        from repro.policies.base import Policy as _Base

        cls = type(policy)
        self._policy_may_rename = (
            policy.may_rename
            if cls.may_rename is not _Base.may_rename else None)
        self._policy_on_rename = (
            policy.on_rename if cls.on_rename is not _Base.on_rename else None)
        self._policy_on_commit = (
            policy.on_commit if cls.on_commit is not _Base.on_commit else None)
        self._policy_on_load_issued = (
            policy.on_load_issued
            if cls.on_load_issued is not _Base.on_load_issued else None)
        self._policy_on_l1d_miss = (
            policy.on_l1d_miss
            if cls.on_l1d_miss is not _Base.on_l1d_miss else None)
        if state is not None:
            self.restore_state(state, restore_policy)

    def _prewarm(self) -> None:
        """Install steady-state cache contents (see ``prewarm_caches``).

        Warm regions of all threads go first, then hot data, then code,
        so the most performance-critical lines are most recent in LRU
        order when threads contend for the shared L2.
        """
        regions_by_kind = {"warm": [], "hot": [], "code": []}
        for thread in self.threads:
            for base, size, kind in thread.trace.prewarm_regions():
                regions_by_kind[kind].append((thread.tid, base, size))
        for kind in ("warm", "hot", "code"):
            for tid, base, size in regions_by_kind[kind]:
                self.hierarchy.prewarm(tid, base, size, kind)

    # ------------------------------------------------------------------ run --

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles.

        A thin wrapper over :meth:`run_intervals`: the monolithic run is
        one interval whose snapshot is discarded (two counter captures —
        no per-cycle cost, and phase tracking stays off).
        """
        if cycles > 0:
            for _ in self.run_intervals(cycles, n_intervals=1,
                                        track_phases=False):
                pass

    def _run_cycles(self, cycles: int) -> None:
        """The raw simulation loop shared by the run APIs: the fused,
        quiescence-skipping :func:`~repro.pipeline.fastpath.run_fast`,
        bitwise-equal to calling :meth:`step` ``cycles`` times."""
        run_fast(self, cycles)

    def enable_phase_tracking(self) -> List[int]:
        """Start (or continue) counting the per-cycle phase histogram.

        Returns the live ``phase_counts`` list; see the attribute
        docstring.  Tracking costs one extra list increment per cycle
        and never changes simulated behaviour.
        """
        if self.phase_counts is None:
            self.phase_counts = [0] * (self.num_threads + 1)
        return self.phase_counts

    def run_intervals(self, interval_cycles: int,
                      n_intervals: Optional[int] = None,
                      total_cycles: Optional[int] = None,
                      track_phases: bool = True,
                      start_index: int = 0):
        """Advance the simulation in chunks, yielding a snapshot per chunk.

        The chunked face of :meth:`run`: after each interval an immutable
        :class:`~repro.metrics.intervals.IntervalSnapshot` is yielded,
        carrying the per-thread pipeline/cache/MSHR counter *deltas* and
        (with ``track_phases``) the fast/slow phase histogram of that
        interval.  Deltas are computed by capturing counters before and
        after the chunk — never by resetting them — so an interval run
        simulates the exact same cycles as a monolithic one, and summing
        the snapshots reproduces the monolithic statistics bitwise
        (:func:`~repro.metrics.intervals.snapshots_to_result`).

        Args:
            interval_cycles: cycles per interval (> 0).
            n_intervals: number of full intervals to run; exactly one of
                this and ``total_cycles`` must be given.
            total_cycles: total cycles to run; the final interval is
                short when ``interval_cycles`` does not divide it.
            track_phases: maintain the per-cycle phase histogram (see
                :meth:`enable_phase_tracking`).
            start_index: index assigned to the first snapshot.

        Yields:
            One :class:`IntervalSnapshot` per completed interval.
        """
        from repro.metrics.intervals import (
            capture_counter_state,
            snapshot_between,
        )

        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        if (n_intervals is None) == (total_cycles is None):
            raise ValueError("pass exactly one of n_intervals/total_cycles")
        if n_intervals is not None:
            lengths = [interval_cycles] * n_intervals
        else:
            full, remainder = divmod(total_cycles, interval_cycles)
            lengths = [interval_cycles] * full
            if remainder:
                lengths.append(remainder)
        if track_phases:
            self.enable_phase_tracking()
        for offset, length in enumerate(lengths):
            before = capture_counter_state(self)
            self._run_cycles(length)
            yield snapshot_between(before, capture_counter_state(self),
                                   start_index + offset)

    def run_adaptive_warmup(self, interval_cycles: int,
                            window: int = 4,
                            rel_tol: float = 0.05,
                            metric: str = "throughput",
                            max_warmup: int = 12_000,
                            track_phases: bool = True):
        """Warm up until a metric series settles, or ``max_warmup`` cycles.

        Simulates ``interval_cycles``-sized chunks (the final chunk is
        short when the cap is not a multiple), watching either the total
        IPC of each chunk (``metric="throughput"``) or every thread's
        own IPC (``metric="ipc"``, all threads must settle).  Warm-up
        ends the first time the trailing ``window`` chunks are settled
        within ``rel_tol`` (:func:`~repro.metrics.intervals.window_settled`
        — the online face of suffix-stability: the settled window is
        always the current end of the series).

        Like every run API, chunking and counter captures never change
        simulated behaviour: warming up adaptively for N cycles leaves
        the processor in exactly the state a monolithic ``run(N)``
        would, so an adaptive warm-up that resolves to N cycles is
        bitwise-equivalent to a fixed warm-up of N cycles.

        Returns:
            ``(snapshots, converged)`` — the warm-up
            :class:`~repro.metrics.intervals.IntervalSnapshot` list
            (indices 0..n-1; callers re-index discarded series) and
            whether the series settled before the cap.
        """
        if metric not in ("throughput", "ipc"):
            raise ValueError(f"unknown warm-up metric {metric!r}")
        if window < 2:
            raise ValueError("steady-state window must be >= 2")
        if max_warmup < 0:
            raise ValueError("max_warmup must be >= 0")
        snapshots = []
        num_series = self.num_threads if metric == "ipc" else 1
        series: List[List[float]] = [[] for _ in range(num_series)]
        cycles_done = 0
        from repro.metrics.intervals import window_settled

        while cycles_done < max_warmup:
            length = min(interval_cycles, max_warmup - cycles_done)
            for snapshot in self.run_intervals(
                    length, n_intervals=1, track_phases=track_phases,
                    start_index=len(snapshots)):
                snapshots.append(snapshot)
                cycles_done += snapshot.cycles
                if metric == "ipc":
                    for tid, delta in enumerate(snapshot.threads):
                        series[tid].append(delta.ipc(snapshot.cycles))
                else:
                    series[0].append(snapshot.throughput)
            if len(snapshots) >= window and all(
                    window_settled(s[-window:], rel_tol) for s in series):
                return snapshots, True
        return snapshots, False

    def run_until_commits(self, commits: int, max_cycles: int = 10_000_000) -> None:
        """Run until every thread commits ``commits`` instructions."""
        start = [t.stats.committed for t in self.threads]
        deadline = self.cycle + max_cycles
        while self.cycle < deadline:
            if all(t.stats.committed - s >= commits
                   for t, s in zip(self.threads, start)):
                return
            self.step()
        raise RuntimeError(f"commit target not reached in {max_cycles} cycles")

    def reset_stats(self) -> None:
        """Zero statistics after warm-up, keeping microarchitectural state.

        Every counter that accumulates during warm-up is reset — the
        per-thread :class:`ThreadStats`, the per-thread and structural
        memory-hierarchy counters (caches, TLB, MSHR merges/overlap), the
        branch unit's prediction counters, and policy-side statistics
        such as DCRA's stall cycles — so measured statistics reflect only
        the window after the reset.  Microarchitectural *state* (cache
        contents, predictor tables, in-flight instructions and fills) is
        deliberately untouched: a reset never changes simulated behaviour.
        """
        from repro.pipeline.thread import ThreadStats

        self.stat_start_cycle = self.cycle
        # The policy hook runs first so policies that track deltas of
        # per-thread counters (e.g. DCRA-ADAPT's window commit rates) can
        # rebase against the pre-reset values.
        self.policy.reset_stats()
        for thread in self.threads:
            thread.stats = ThreadStats()
        self.hierarchy.reset_stats()
        self.branch_unit.reset_stats()
        if self.phase_counts is not None:
            # Zero in place: captures hold copies, callers the live list.
            for k in range(len(self.phase_counts)):
                self.phase_counts[k] = 0

    @property
    def stat_cycles(self) -> int:
        """Cycles elapsed since the last statistics reset."""
        return self.cycle - self.stat_start_cycle

    # ------------------------------------------------------------- snapshot --

    def capture_state(self) -> dict:
        """The full mutable simulator state as a JSON-safe tree.

        The traversal mirrors :meth:`reset_stats`: every component that
        accumulates state is visited, delegating through the
        ``capture_state`` protocol (:mod:`repro.snapshot`).  Each live
        in-flight :class:`MicroOp` is serialised exactly once, keyed by
        its unique ``seq``; containers (fetch queues, ROBs, ready heaps,
        completion and detection schedules, MSHR waiters, policy gate
        references) hold seq references, preserving order.  Ops that
        were squashed are dropped everywhere — every consumer of a dead
        op already skips it, so the restored run is bitwise-identical.

        The capture is a pure read: it never changes simulated
        behaviour, and equal logical states capture to equal trees
        (``json.dumps(state, sort_keys=True)`` is a canonical form).
        """
        from repro.isa.instruction import encode_static
        from repro.snapshot import SNAPSHOT_VERSION

        live: Dict[int, MicroOp] = {}
        for thread in self.threads:
            for op in thread.fetch_queue:
                live[op.seq] = op
            for op in thread.rob:
                live[op.seq] = op
        op_rows = []
        for seq in sorted(live):
            op = live[seq]
            # Correct-path ops recover their static op from the restored
            # trace buffer; wrong-path ops carry it inline.
            static_row = (encode_static(op.static)
                          if op.trace_index < 0 else None)
            op_rows.append([
                op.seq, op.tid, op.trace_index, static_row, op.wrong_path,
                op.fetch_cycle, op.rename_cycle, op.issue_cycle,
                op.complete_cycle, op.status, op.deps_left,
                [c.seq for c in op.consumers if c.status != ST_SQUASHED],
                op.pred_taken, op.pred_target, op.mispredicted,
                op.dest_allocated, op.iq_allocated, op.waiting_line,
                op.l2_missed, op.l2_detected, op.tlb_missed,
            ])
        completions = [
            [cycle, [op.seq for op in ops if op.status != ST_SQUASHED]]
            for cycle, ops in sorted(self._completions.items())
        ]
        detections = [
            [cycle, [op.seq for op in ops
                     if op.status != ST_SQUASHED and op.waiting_line >= 0]]
            for cycle, ops in sorted(self._l2_detect_events.items())
        ]
        # A sorted seq list is a valid min-heap with the same pop order
        # (seqs are unique); only ops still waiting to issue are kept.
        ready = {
            group: sorted(seq for seq, op in heap if op.status == ST_IN_QUEUE)
            for group, heap in zip(_UNIT_GROUPS, self._ready)
        }
        return {
            "version": SNAPSHOT_VERSION,
            "cycle": self.cycle,
            "stat_start_cycle": self.stat_start_cycle,
            "seq": self._seq,
            "ops": op_rows,
            "threads": [thread.capture_state() for thread in self.threads],
            "completions": completions,
            "l2_detections": detections,
            "ready": ready,
            "resources": self.resources.capture_state(),
            "hierarchy": self.hierarchy.capture_state(),
            "branch": self.branch_unit.capture_state(),
            "policy": self.policy.capture_state(),
            "phase_counts": (list(self.phase_counts)
                             if self.phase_counts is not None else None),
        }

    def restore_state(self, state: dict, restore_policy: bool = True) -> None:
        """Overwrite this processor's state from :meth:`capture_state`.

        The target must be freshly constructed with the same config,
        profiles and thread count (config-derived state is not in the
        tree; a thread count or structure geometry that differs raises
        :class:`~repro.snapshot.SnapshotError`).  Running the restored
        processor is bitwise-identical to running the captured one — the
        invariant the checkpoint test suite pins.  Passing the tree to
        the constructor (``state=``) restores it without pre-warming
        first.

        Args:
            state: a tree produced by :meth:`capture_state`.
            restore_policy: also restore policy-internal state.  Pass
                False when forking a warm-up checkpoint onto a
                *different* measured policy: the freshly attached policy
                keeps its initial state and only sees the restored
                microarchitectural state.
        """
        from repro.isa.instruction import decode_static
        from repro.snapshot import SnapshotError, check_version

        check_version(state, "SMTProcessor")
        thread_states = state["threads"]
        if len(thread_states) != self.num_threads:
            raise SnapshotError(
                f"snapshot has {len(thread_states)} threads, processor "
                f"has {self.num_threads}")
        # Traces first: correct-path ops resolve their static op through
        # the restored trace windows.
        for thread, tstate in zip(self.threads, thread_states):
            thread.trace.restore_state(tstate["trace"])
        ops_by_seq: Dict[int, MicroOp] = {}
        for row in state["ops"]:
            (seq, tid, trace_index, static_row, wrong_path, fetch_cycle,
             rename_cycle, issue_cycle, complete_cycle, status, deps_left,
             _consumers, pred_taken, pred_target, mispredicted,
             dest_allocated, iq_allocated, waiting_line, l2_missed,
             l2_detected, tlb_missed) = row
            if static_row is not None:
                static = decode_static(static_row)
            else:
                static = self.threads[tid].trace.get(trace_index)
            op = MicroOp(static, tid, seq, trace_index, wrong_path,
                         fetch_cycle)
            op.rename_cycle = rename_cycle
            op.issue_cycle = issue_cycle
            op.complete_cycle = complete_cycle
            op.status = status
            op.deps_left = deps_left
            op.pred_taken = pred_taken
            op.pred_target = pred_target
            op.mispredicted = mispredicted
            op.dest_allocated = dest_allocated
            op.iq_allocated = iq_allocated
            op.waiting_line = waiting_line
            op.l2_missed = l2_missed
            op.l2_detected = l2_detected
            op.tlb_missed = tlb_missed
            ops_by_seq[seq] = op
        for row in state["ops"]:  # second pass: dependence links
            ops_by_seq[row[0]].consumers = [ops_by_seq[c] for c in row[11]]
        for thread, tstate in zip(self.threads, thread_states):
            thread.restore_state(tstate, ops_by_seq)
        self._completions = {
            cycle: [ops_by_seq[seq] for seq in seqs]
            for cycle, seqs in state["completions"]
        }
        self._l2_detect_events = {
            cycle: [ops_by_seq[seq] for seq in seqs]
            for cycle, seqs in state["l2_detections"]
        }
        self._ready = [
            [(seq, ops_by_seq[seq]) for seq in state["ready"][group]]
            for group in _UNIT_GROUPS
        ]
        self.resources.restore_state(state["resources"])
        self.hierarchy.restore_state(
            state["hierarchy"],
            waiter_factory=lambda seq: self._make_waiter(ops_by_seq[seq]))
        self.branch_unit.restore_state(state["branch"])
        if restore_policy:
            self.policy.restore_state(state["policy"], ops_by_seq)
        self.cycle = state["cycle"]
        self.stat_start_cycle = state["stat_start_cycle"]
        self._seq = state["seq"]
        self.phase_counts = (list(state["phase_counts"])
                             if state["phase_counts"] is not None else None)

    # ----------------------------------------------------------------- step --

    def step(self) -> None:
        """Simulate one cycle.

        The one-cycle reference :func:`~repro.pipeline.fastpath.run_fast`
        must match bitwise, and the loop it falls back to while
        ``cycle_hooks`` are installed.
        """
        cycle = self.cycle
        policy = self.policy
        self.hierarchy.tick(cycle)
        self._process_l2_detections(cycle)
        self._writeback(cycle)
        self._commit(cycle)
        self._issue(cycle)
        policy.begin_cycle(cycle)
        self._rename(cycle)
        self._fetch(cycle)
        policy.end_cycle(cycle)
        phase_counts = self.phase_counts
        if phase_counts is None:
            for thread in self.threads:
                if thread.pending_l1d > 0:  # inlined ThreadContext.is_slow
                    thread.stats.slow_cycles += 1
        else:
            slow_threads = 0
            for thread in self.threads:
                if thread.pending_l1d > 0:  # inlined ThreadContext.is_slow
                    thread.stats.slow_cycles += 1
                    slow_threads += 1
            phase_counts[slow_threads] += 1
        if self.cycle_hooks:
            for hook in self.cycle_hooks:
                hook(self)
        # Prune only once history exists; at cycle 0 nothing has been
        # fetched yet and the pass would only churn the trace buffers.
        if cycle and cycle % _PRUNE_INTERVAL == 0:
            for thread in self.threads:
                thread.prune_trace()
        self.cycle = cycle + 1

    # -------------------------------------------------------------- back end --

    def _process_l2_detections(self, cycle: int) -> None:
        """Mark L2 misses whose lookup has now resolved (STALL/FLUSH cue)."""
        if not self._l2_detect_events:
            return
        for op in self._l2_detect_events.pop(cycle, ()):
            if op.status == ST_SQUASHED or op.waiting_line < 0:
                continue
            op.l2_detected = True
            thread = self.threads[op.tid]
            thread.detected_l2 += 1
            self.policy.on_l2_miss_detected(op.tid, op)

    def _writeback(self, cycle: int) -> None:
        """Complete ops scheduled for this cycle; wake consumers."""
        completions = self._completions.pop(cycle, None)
        if completions is None:
            return
        ready = self._ready
        for op in completions:
            if op.status == ST_SQUASHED:
                continue
            op.status = ST_COMPLETED
            op.complete_cycle = cycle
            for consumer in op.consumers:
                consumer.deps_left -= 1
                if consumer.deps_left == 0 and consumer.status == ST_IN_QUEUE:
                    heappush(ready[consumer.static.iq],
                             (consumer.seq, consumer))
            op.consumers.clear()
            if op.mispredicted:
                self._resolve_mispredict(op, cycle)

    def _resolve_mispredict(self, branch_op: MicroOp, cycle: int) -> None:
        """Squash the wrong path behind a resolved mispredicted branch."""
        thread = self.threads[branch_op.tid]
        self.squash_after(branch_op)
        static = branch_op.static
        next_pc = static.target if static.taken else static.pc + 4
        thread.rewind_to(branch_op.trace_index + 1, next_pc)
        thread.fetch_stall_until = max(
            thread.fetch_stall_until, cycle + self.config.mispredict_penalty
        )

    def squash_after(self, boundary: MicroOp) -> int:
        """Squash every instruction of the thread younger than ``boundary``.

        Used for branch-misprediction recovery and by the FLUSH family of
        policies (squash behind an L2-missing load).  Returns the number
        of squashed instructions.  The caller is responsible for rewinding
        fetch (:meth:`ThreadContext.rewind_to`) when the squash came from
        a policy rather than a branch.
        """
        thread = self.threads[boundary.tid]
        squashed = 0
        rob = thread.rob
        while rob and rob[-1].seq > boundary.seq:
            self._squash_op(rob.pop())
            squashed += 1
        for op in thread.fetch_queue:
            op.status = ST_SQUASHED
            thread.stats.squashed += 1
            squashed += 1
        thread.fetch_queue.clear()
        if thread.mispredict_op is not None and \
                thread.mispredict_op.status == ST_SQUASHED:
            thread.in_wrong_path = False
            thread.wrong_path_pc = 0
            thread.mispredict_op = None
        return squashed

    def _squash_op(self, op: MicroOp) -> None:
        """Release every resource a renamed, in-flight op holds."""
        thread = self.threads[op.tid]
        resources = self.resources
        resources.release_rob(op.tid)
        if op.iq_allocated:
            resources.release(op.static.iq, op.tid)
            op.iq_allocated = False
        if op.dest_allocated:
            resources.release(op.static.reg, op.tid)
            op.dest_allocated = False
        if op.waiting_line >= 0:
            thread.pending_l1d -= 1
            if op.l2_missed:
                thread.pending_l2 -= 1
            if op.l2_detected:
                thread.detected_l2 -= 1
            op.waiting_line = -1
        op.status = ST_SQUASHED
        thread.stats.squashed += 1

    def _commit(self, cycle: int) -> None:
        """Retire completed instructions in order, round-robin by thread."""
        budget = self.config.commit_width
        num = self.num_threads
        start = cycle % num
        for offset in range(num):
            if budget <= 0:
                break
            thread = self.threads[(start + offset) % num]
            rob = thread.rob
            while budget > 0 and rob and rob[0].status == ST_COMPLETED:
                op = rob.popleft()
                self._commit_op(op)
                budget -= 1

    def _commit_op(self, op: MicroOp) -> None:
        tid = op.tid
        thread = self.threads[tid]
        resources = self.resources
        # Inlined release counterpart of the _do_rename fast path; the
        # dest_allocated flag guarantees the register was acquired.
        if op.dest_allocated:
            reg = op.static.reg
            resources.used[reg] -= 1
            resources.per_thread[reg][tid] -= 1
            op.dest_allocated = False
        resources.rob_used -= 1
        resources.rob_per_thread[tid] -= 1
        op.status = ST_COMMITTED
        thread.stats.committed += 1
        if self._policy_on_commit is not None:
            self._policy_on_commit(tid, op)

    # ---------------------------------------------------------------- issue --

    def _issue(self, cycle: int) -> None:
        """Select ready instructions oldest-first within unit limits.

        Each group's ready set is a min-heap keyed by sequence number, so
        selection pops oldest-first without the per-cycle sort a plain
        list would need.  Entries whose op was squashed while waiting are
        discarded lazily as they surface.  An op that fails structurally
        (MSHRs full) is set aside and re-queued after the scan, exactly
        as the sorted-list implementation kept scanning younger ops.
        """
        budget = self.config.issue_width
        for heap, cap in zip(self._ready, self._unit_caps):
            if not heap:
                continue
            issued = 0
            deferred = None
            while heap and issued < cap and budget > 0:
                entry = heap[0]
                op = entry[1]
                if op.status != ST_IN_QUEUE:
                    heappop(heap)  # squashed while waiting
                    continue
                if self._issue_op(op, cycle):
                    heappop(heap)
                    issued += 1
                    budget -= 1
                else:
                    heappop(heap)
                    if deferred is None:
                        deferred = []
                    deferred.append(entry)
            if deferred:
                for entry in deferred:
                    heappush(heap, entry)

    def _issue_op(self, op: MicroOp, cycle: int) -> bool:
        """Issue one op; returns False on a structural retry (MSHRs full)."""
        op_class = op.op_class
        thread = self.threads[op.tid]
        if op_class == _LOAD:
            result = self.hierarchy.access_load(
                op.tid, op.static.mem_addr, cycle, self._make_waiter(op)
            )
            if result.retry:
                return False
            self._finish_issue(op, cycle)
            if self._policy_on_load_issued is not None:
                self._policy_on_load_issued(op.tid, op, result)
            if result.complete_cycle is not None:
                self._completions.setdefault(result.complete_cycle, []).append(op)
                return True
            op.waiting_line = result.line_addr
            op.tlb_missed = result.tlb_miss
            thread.pending_l1d += 1
            thread.stats.load_l1_misses += 1
            if self._policy_on_l1d_miss is not None:
                self._policy_on_l1d_miss(op.tid, op)
            if result.l2_miss:
                op.l2_missed = True
                thread.pending_l2 += 1
                thread.stats.load_l2_misses += 1
                if result.l2_detect_cycle is not None:
                    self._l2_detect_events.setdefault(
                        max(result.l2_detect_cycle, cycle + 1), []
                    ).append(op)
            return True
        if op_class == _STORE:
            self.hierarchy.access_store(op.tid, op.static.mem_addr, cycle)
            self._finish_issue(op, cycle)
            self._completions.setdefault(cycle + 1, []).append(op)
            return True
        self._finish_issue(op, cycle)
        self._completions.setdefault(cycle + op.static.latency, []).append(op)
        return True

    def _finish_issue(self, op: MicroOp, cycle: int) -> None:
        """Common issue bookkeeping: leave the queue, free the IQ entry."""
        op.status = ST_ISSUED
        op.issue_cycle = cycle
        if op.iq_allocated:
            # Inlined release (see _do_rename); iq_allocated guards it.
            resources = self.resources
            iq = op.static.iq
            resources.used[iq] -= 1
            resources.per_thread[iq][op.tid] -= 1
            op.iq_allocated = False

    def _make_waiter(self, op: MicroOp):
        """Fill callback for a missing load; completes it on arrival."""

        def waiter(fill_cycle: int) -> None:
            if op.status == ST_SQUASHED or op.waiting_line < 0:
                return
            thread = self.threads[op.tid]
            thread.pending_l1d -= 1
            if op.l2_missed:
                thread.pending_l2 -= 1
            if op.l2_detected:
                thread.detected_l2 -= 1
                self.policy.on_l2_fill(op.tid, op)
            op.waiting_line = -1
            self._completions.setdefault(fill_cycle, []).append(op)

        # Snapshot support: the MSHR serialises a waiter as its op's seq.
        waiter.op = op
        return waiter

    # --------------------------------------------------------------- rename --

    def _rename(self, cycle: int) -> None:
        """Move instructions from fetch queues into the back end."""
        budget = self.config.decode_width
        num = self.num_threads
        start = cycle % num
        min_fetch_age = self.config.decode_delay
        threads = self.threads
        can_rename = self._can_rename
        may_rename = self._policy_may_rename
        do_rename = self._do_rename
        for offset in range(num):
            if budget <= 0:
                break
            thread = threads[(start + offset) % num]
            queue = thread.fetch_queue
            while budget > 0 and queue:
                op = queue[0]
                if op.fetch_cycle + min_fetch_age > cycle:
                    break
                if not can_rename(op):
                    break
                if may_rename is not None and not may_rename(op.tid, op):
                    thread.stats.policy_stall_cycles += 1
                    break
                queue.popleft()
                do_rename(op, cycle)
                budget -= 1

    def _can_rename(self, op: MicroOp) -> bool:
        # Structural checks, written against the raw counters: this runs
        # for every rename attempt, so the SharedResources accessor
        # methods are bypassed (same arithmetic, no call overhead).
        resources = self.resources
        if resources.rob_used >= resources.rob_size or \
                resources.rob_per_thread[op.tid] >= resources.rob_cap_per_thread:
            return False
        totals = resources.totals
        used = resources.used
        static = op.static
        iq = static.iq
        if used[iq] >= totals[iq]:
            return False
        reg = static.reg
        return reg < 0 or used[reg] < totals[reg]

    def _do_rename(self, op: MicroOp, cycle: int) -> None:
        tid = op.tid
        thread = self.threads[tid]
        resources = self.resources
        static = op.static
        # Counter updates are inlined (instead of the checked acquire
        # methods): _can_rename just guaranteed capacity for all three
        # pools, and this is the hottest allocation site in the pipeline.
        resources.rob_used += 1
        resources.rob_per_thread[tid] += 1
        used = resources.used
        per_thread = resources.per_thread
        iq = static.iq
        used[iq] += 1
        per_thread[iq][tid] += 1
        op.iq_allocated = True
        reg = static.reg
        if reg >= 0:
            used[reg] += 1
            per_thread[reg][tid] += 1
            op.dest_allocated = True
        rob = thread.rob
        rob.append(op)
        rob_len = len(rob)
        for dist in static.src_dists:
            if dist >= rob_len:
                continue  # producer already committed (hence completed)
            producer = rob[rob_len - 1 - dist]
            if producer.status >= ST_COMPLETED:
                continue  # completed, committed or squashed: value ready
            if not producer.static.has_dest:
                continue  # stores/branches produce no register value
            producer.consumers.append(op)
            op.deps_left += 1
        op.status = ST_IN_QUEUE
        op.rename_cycle = cycle
        if op.deps_left == 0:
            heappush(self._ready[iq], (op.seq, op))
        if self._policy_on_rename is not None:
            self._policy_on_rename(tid, op)

    # ---------------------------------------------------------------- fetch --

    def _fetch(self, cycle: int) -> None:
        order = self.policy.fetch_order(cycle)
        slots = self.config.fetch_width
        threads_used = 0
        for tid in order:
            if slots <= 0 or threads_used >= self.config.fetch_threads:
                break
            thread = self.threads[tid]
            if cycle < thread.fetch_stall_until:
                thread.stats.fetch_stall_cycles += 1
                continue
            if len(thread.fetch_queue) >= thread.fetch_queue_size:
                continue
            fetched = self._fetch_thread(thread, slots, cycle)
            if fetched:
                threads_used += 1
                slots -= fetched

    def _fetch_thread(self, thread: ThreadContext, max_slots: int,
                      cycle: int) -> int:
        """Fetch up to ``max_slots`` instructions for one thread."""
        if thread.in_wrong_path:
            group_pc = thread.wrong_path_pc
        else:
            group_pc = thread.trace.get(thread.fetch_index).pc
        fill_ready = self.hierarchy.access_ifetch(thread.tid, group_pc, cycle)
        if fill_ready is not None:
            thread.fetch_stall_until = max(thread.fetch_stall_until, fill_ready)
            return 0

        fetched = 0
        stats = thread.stats
        fetch_queue = thread.fetch_queue
        queue_size = thread.fetch_queue_size
        trace = thread.trace
        tid = thread.tid
        while fetched < max_slots and len(fetch_queue) < queue_size:
            if thread.in_wrong_path:
                static = trace.wrong_path_op(thread.wrong_path_pc)
                op = MicroOp(static, tid, self._seq, -1, True, cycle)
                self._seq += 1
                thread.wrong_path_pc += 4
                fetch_queue.append(op)
                fetched += 1
                stats.fetched += 1
                stats.fetched_wrong_path += 1
                continue

            static = trace.get(thread.fetch_index)
            op = MicroOp(static, tid, self._seq, thread.fetch_index,
                         False, cycle)
            self._seq += 1
            thread.fetch_index += 1
            fetch_queue.append(op)
            fetched += 1
            stats.fetched += 1
            if static.op_class != _BRANCH:
                continue

            stats.branches += 1
            prediction = self.branch_unit.predict_and_train(tid, static)
            op.pred_taken = prediction.taken
            op.pred_target = prediction.target
            if prediction.mispredicted:
                stats.mispredicts += 1
                op.mispredicted = True
                thread.in_wrong_path = True
                thread.mispredict_op = op
                thread.wrong_path_pc = prediction.wrong_path_pc
                if prediction.btb_bubble:
                    thread.fetch_stall_until = max(
                        thread.fetch_stall_until,
                        cycle + self.config.btb_bubble_penalty,
                    )
                break
            if prediction.btb_bubble:
                thread.fetch_stall_until = max(
                    thread.fetch_stall_until,
                    cycle + self.config.btb_bubble_penalty,
                )
                break
            if prediction.taken:
                break  # cannot fetch past a taken branch in one group
        return fetched
