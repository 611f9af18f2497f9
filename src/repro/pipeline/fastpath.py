"""The simulator's multi-cycle loop.

:func:`run_fast` advances an :class:`~repro.pipeline.processor.SMTProcessor`
by any number of cycles.  Every run API reaches it through
``SMTProcessor._run_cycles`` — ``run``, ``run_intervals``,
``run_adaptive_warmup``, the runners' warm-up and every checkpoint
path — so it is the only stepping loop.  It is bitwise-equal to calling
:meth:`SMTProcessor.step` once per cycle, the one-cycle reference
``tests/test_fastpath.py`` compares it against for every registry
policy, but pays less Python interpreter overhead per simulated cycle,
through two mechanisms:

* **A fused step loop.** The body of :meth:`SMTProcessor.step` is
  inlined with its per-cycle attribute lookups hoisted out of the loop
  and its cheap stages guarded: the L2-detection and writeback stages
  are entered only when an event is actually due this cycle, and the
  policy's ``begin_cycle``/``end_cycle`` hooks are called only when the
  policy class overrides them.  Every guard is skip-safe — the guarded
  call would have been a statistics-free no-op.

* **Quiescence fast-forward.** When the whole machine is provably idle
  — no ready instructions, no completed ROB heads, every thread blocked
  in fetch and rename, and the policy declares itself
  ``quiesce_safe`` — each future cycle up to the *horizon* (the
  earliest scheduled event: the policy's own
  :meth:`~repro.policies.base.Policy.quiesce_horizon`, asked first, an
  MSHR fill, a writeback, an L2-miss detection, a fetch stall expiring
  or a fetch-queue head maturing) would repeat the identical step.  The
  stepper accounts the per-cycle statistics those cycles would have
  accrued in bulk (fetch/policy stall cycles, slow cycles, the phase
  histogram, MSHR overlap samples, the periodic trace prune, and the
  policy's per-cycle bookkeeping through
  :meth:`~repro.policies.base.Policy.on_quiescent_skip`) and jumps the
  cycle counter to the horizon.  This is where memory-bound workloads
  win big: a thread sleeping on a 400-cycle memory fill costs O(1)
  instead of O(400).  Every registry policy but PDG is
  ``quiesce_safe``; PDG (its ``fetch_order`` mutates the gate table)
  still gets the fused loop, one step per cycle.
"""

from __future__ import annotations

from repro.isa.instruction import ST_COMPLETED

#: Interval (cycles) between trace-history pruning passes, shared with
#: :meth:`SMTProcessor.step`.
_PRUNE_INTERVAL = 1024


def quiescence_horizon(processor, cycle: int, end: int):
    """The quiescence probe: how far the machine is provably idle.

    Returns ``(horizon, stalled, policy_stalled)`` where ``horizon`` is
    the first cycle at which something can happen (capped at ``end``),
    ``stalled`` lists the threads accruing ``fetch_stall_cycles`` each
    skipped cycle and ``policy_stalled`` those accruing
    ``policy_stall_cycles``.  Returns ``(0, (), ())`` when the machine
    is *not* quiescent at ``cycle`` — any instruction could commit,
    issue, rename or fetch — in which case the caller must run a normal
    step.  The policy's :meth:`~repro.policies.base.Policy.quiesce_horizon`
    is asked first, so a policy that knows this cycle must be stepped
    (DCRA after any rename) ends the probe in one call.  The probe
    itself is a pure read for ``quiesce_safe`` policies (their
    ``fetch_order``/``may_rename`` are side-effect free).
    """
    not_quiescent = (0, (), ())
    horizon = processor.policy.quiesce_horizon(cycle)
    if horizon is None or horizon > end:
        horizon = end
    elif horizon <= cycle:
        return not_quiescent
    ready_int, ready_fp, ready_ls = processor._ready
    if ready_int or ready_fp or ready_ls:
        return not_quiescent
    threads = processor.threads
    for thread in threads:
        rob = thread.rob
        if rob and rob[0].status == ST_COMPLETED:
            return not_quiescent

    config = processor.config
    policy_stalled = []
    if config.decode_width > 0:
        # Every non-empty fetch queue's head must be blocked: too young
        # (cap the horizon at its maturity), structurally blocked, or
        # policy-blocked (accruing the policy stall stat).  Checked
        # before the fetch side: it needs no fetch_order call, so an
        # active front end fails the probe cheaply.
        decode_delay = config.decode_delay
        can_rename = processor._can_rename
        may_rename = processor._policy_may_rename
        for thread in threads:
            queue = thread.fetch_queue
            if not queue:
                continue
            head = queue[0]
            mature = head.fetch_cycle + decode_delay
            if mature > cycle:
                if mature < horizon:
                    horizon = mature
                continue
            if not can_rename(head):
                continue
            if may_rename is not None and not may_rename(head.tid, head):
                policy_stalled.append(thread)
                continue
            return not_quiescent

    stalled = []
    if config.fetch_width > 0 and config.fetch_threads > 0:
        # Every thread the policy admits must be unable to fetch: either
        # stalled (accruing the stall stat until its stall expires — cap
        # the horizon there, the stat regime changes at expiry) or
        # silently blocked on a full fetch queue.
        for tid in processor.policy.fetch_order(cycle):
            thread = threads[tid]
            stall_until = thread.fetch_stall_until
            if cycle < stall_until:
                stalled.append(thread)
                if stall_until < horizon:
                    horizon = stall_until
            elif len(thread.fetch_queue) < thread.fetch_queue_size:
                return not_quiescent

    completions = processor._completions
    if completions:
        due = min(completions)
        if due < horizon:
            horizon = due
    detections = processor._l2_detect_events
    if detections:
        due = min(detections)
        if due < horizon:
            horizon = due
    entries = processor.hierarchy.mshrs._entries
    if entries:
        due = min(entry.fill_cycle for entry in entries.values())
        if due < horizon:
            horizon = due
    return horizon, stalled, policy_stalled


def run_fast(processor, cycles: int) -> None:
    """Advance ``processor`` by ``cycles``, bitwise-equal to calling
    ``processor.step()`` that many times.

    Falls back to that plain step loop whenever per-cycle probes are
    installed (``cycle_hooks`` observe every cycle, so none may be
    skipped and the fused loop's savings would be noise).
    """
    if cycles <= 0:
        return
    step = processor.step
    if processor.cycle_hooks:
        for _ in range(cycles):
            step()
        return

    from repro.policies.base import Policy as _Base

    policy = processor.policy
    cls = type(policy)
    safe = cls.quiesce_safe
    begin_cycle = (policy.begin_cycle
                   if cls.begin_cycle is not _Base.begin_cycle else None)
    end_cycle = (policy.end_cycle
                 if cls.end_cycle is not _Base.end_cycle else None)
    on_skip = (policy.on_quiescent_skip
               if cls.on_quiescent_skip is not _Base.on_quiescent_skip
               else None)
    threads = processor.threads
    completions = processor._completions
    detections = processor._l2_detect_events
    mshrs = processor.hierarchy.mshrs
    tick = processor.hierarchy.tick
    process_detections = processor._process_l2_detections
    writeback = processor._writeback
    commit = processor._commit
    issue = processor._issue
    rename = processor._rename
    fetch = processor._fetch

    cycle = processor.cycle
    end = cycle + cycles
    while cycle < end:
        if safe:
            horizon, stalled, policy_stalled = quiescence_horizon(
                processor, cycle, end)
            if horizon > cycle:
                # Bulk-account the statistics the skipped cycles would
                # have accrued; all other state is provably frozen.
                skipped = horizon - cycle
                for thread in stalled:
                    thread.stats.fetch_stall_cycles += skipped
                for thread in policy_stalled:
                    thread.stats.policy_stall_cycles += skipped
                if on_skip is not None:
                    on_skip(skipped)
                phase_counts = processor.phase_counts
                slow_threads = 0
                for thread in threads:
                    if thread.pending_l1d > 0:
                        thread.stats.slow_cycles += skipped
                        slow_threads += 1
                if phase_counts is not None:
                    phase_counts[slow_threads] += skipped
                outstanding_l2 = mshrs._outstanding_l2
                if mshrs._entries and outstanding_l2 > 0:
                    # tick() would have sampled MLP each skipped cycle.
                    mshrs.l2_overlap_samples += skipped
                    mshrs.l2_overlap_sum += skipped * outstanding_l2
                # The periodic prune is idempotent while state is frozen,
                # so one pass covers every boundary inside the span.
                next_prune = -(-cycle // _PRUNE_INTERVAL) * _PRUNE_INTERVAL
                if next_prune == 0:
                    next_prune = _PRUNE_INTERVAL
                if next_prune < horizon:
                    for thread in threads:
                        thread.prune_trace()
                cycle = horizon
                processor.cycle = cycle
                continue

        # One fused step, mirroring SMTProcessor.step stage for stage;
        # each guard skips only a call that would have been a no-op.
        tick(cycle)
        if detections:
            process_detections(cycle)
        if cycle in completions:
            writeback(cycle)
        commit(cycle)
        issue(cycle)
        if begin_cycle is not None:
            begin_cycle(cycle)
        rename(cycle)
        fetch(cycle)
        if end_cycle is not None:
            end_cycle(cycle)
        phase_counts = processor.phase_counts
        if phase_counts is None:
            for thread in threads:
                if thread.pending_l1d > 0:
                    thread.stats.slow_cycles += 1
        else:
            slow_threads = 0
            for thread in threads:
                if thread.pending_l1d > 0:
                    thread.stats.slow_cycles += 1
                    slow_threads += 1
            phase_counts[slow_threads] += 1
        if cycle and cycle % _PRUNE_INTERVAL == 0:
            for thread in threads:
                thread.prune_trace()
        cycle += 1
        processor.cycle = cycle
