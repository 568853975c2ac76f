"""Guest timer services.

:class:`TimerService` backs task sleeps with hypervisor one-shot timers
(a paravirtual guest programs the hypervisor's timer and gets an
event-channel kick), so a timer can wake a task whose VM has every vCPU
blocked. The wakeup then flows through the ordinary ``wake_task`` path,
including wake balancing.

:class:`TickDriver` owns the per-gCPU periodic machinery: the compute
quantum (the one-shot that fires when the current compute segment
drains), the scheduler tick (accounting, periodic balancing, CFS
preemption), and the NOHZ idle kick. Ticks freeze with the vCPU — when
the hypervisor deschedules it, the guest's timers simply stop, which is
the semantic gap IRS exists to bridge.

A gCPU running its only task defers its ticks' work, and while nothing
can end that, its tick chain is *silenced* (``Simulator.silence``): the
event loop re-arms it in place with the same sequence numbers, and
:meth:`TickDriver.sync` counts the ticks from the event's time. Every
change to an input of the deferral test *sounds* the chain first
(:meth:`TickDriver.sound`), so the next tick fires where it would have.
"""

from ..hypervisor.vcpu import RUNSTATE_RUNNING
from ..workloads import actions as act


class TimerService:
    """Arms one-shot wakeups for sleeping tasks."""

    def __init__(self, sim, kernel):
        self.sim = sim
        self.kernel = kernel
        self._armed = {}             # task -> Event

    def arm_sleep(self, task, duration_ns):
        """Wake ``task`` after ``duration_ns`` of simulated time."""
        if task in self._armed:
            raise RuntimeError('%s already has a timer armed' % task.name)
        self._armed[task] = self.sim.after(duration_ns, self._fire, task)

    def cancel(self, task):
        """Disarm a pending timer, if any."""
        event = self._armed.pop(task, None)
        if event is not None:
            event.cancel()

    def _fire(self, task):
        self._armed.pop(task, None)
        self.kernel.wake_task(task)

    @property
    def pending(self):
        """Number of armed timers."""
        return len(self._armed)


class TickDriver:
    """Quantum, scheduler-tick and NOHZ-kick machinery of one kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        config = kernel.policy.config
        self.tick_ns = config.tick_ns
        self.balance_interval = config.balance_interval_ticks
        # Bound once: every tick re-arms with it.
        self._tick = self._on_tick
        # gCPUs whose tick chain is silenced, shared with every
        # runqueue of the kernel (see RunQueue.enqueue).
        self.silent = []

    # ------------------------------------------------------------------
    # Compute quantum (fires when the running segment drains)
    # ------------------------------------------------------------------

    def arm_quantum(self, gcpu):
        self.cancel_quantum(gcpu)
        task = gcpu.current
        gcpu.quantum_event = self.sim.after(
            task.remaining_ns, self._on_quantum, gcpu)

    def cancel_quantum(self, gcpu):
        if gcpu.quantum_event is not None:
            gcpu.quantum_event.cancel()
            gcpu.quantum_event = None

    def _on_quantum(self, gcpu):
        gcpu.quantum_event = None
        if gcpu.run_started_at is None or not gcpu.vcpu.is_running:
            return
        kernel = self.kernel
        kernel._checkpoint(gcpu)
        task = gcpu.current
        if task is not None and isinstance(task.action, act.Compute) \
                and task.remaining_ns <= 0:
            task.action = None
        kernel._run_current(gcpu)

    # ------------------------------------------------------------------
    # Scheduler tick
    # ------------------------------------------------------------------

    def arm_tick(self, gcpu):
        if gcpu.tick_event is None or not gcpu.tick_event.pending:
            gcpu.tick_event = self.sim.after(self.tick_ns, self._tick, gcpu)

    def cancel_tick(self, gcpu):
        self.sound(gcpu)
        self.sync(gcpu)
        if gcpu.tick_event is not None:
            gcpu.tick_event.cancel()
            gcpu.tick_event = None

    def _on_tick(self, gcpu):
        """Guest timer tick: accounting, balancing, CFS preemption.

        On an *alone* gCPU (current task set, empty runqueue) the tick
        does no scheduling: ``should_resched_at_tick`` is false and the
        boundary balance cannot pull unless a sibling has two ready
        tasks. Such a tick only folds a fully busy interval into
        ``rt_avg`` and checkpoints, so it is deferred: it re-arms as
        always, but just counts itself until :meth:`sync` replays the
        deferred work before the next read or change of that state.
        When no sibling could be pulled from, every later tick is
        deferred too until a sound point, so the re-armed event is
        silenced and those ticks do not fire at all."""
        gcpu.tick_event = None
        if gcpu.vcpu.runstate != RUNSTATE_RUNNING or gcpu.in_sa_handler:
            return
        gcpu.tick_count += 1
        sim = self.sim
        tick_ns = self.tick_ns
        gcpu.tick_event = event = sim.after(tick_ns, self._tick, gcpu)
        task = gcpu.current
        if task is not None and not gcpu.rq._entries:
            lazy = gcpu.lazy_ticks
            now = sim.now
            # The interval since the last rt_avg fold must be exactly
            # one tick long for the replay to reproduce it.
            if lazy or (gcpu.rt.last_time == now - tick_ns
                        and gcpu.run_started_at is not None):
                could_pull = self._balance_could_pull(gcpu)
                if not could_pull or gcpu.tick_count % self.balance_interval:
                    gcpu.lazy_ticks = lazy + 1
                    gcpu.lazy_last = now
                    if not could_pull:
                        sim.silence(event, tick_ns)
                        gcpu.silent_base = now
                        self.silent.append(gcpu)
                    return
        self.sync(gcpu)
        kernel = self.kernel
        gcpu.rt.update()
        if task is None:
            return
        kernel._checkpoint(gcpu)
        if gcpu.tick_count % self.balance_interval == 0:
            kernel.balancer.periodic_balance(gcpu, sim.now)
            if gcpu.rq.nr_ready > 0:
                self.nohz_kick(gcpu)
        if gcpu.current is task and kernel.policy.should_resched_at_tick(
                task, gcpu.rq):
            kernel._preempt_current(gcpu)

    def _balance_could_pull(self, gcpu):
        """Whether a periodic balance on alone ``gcpu`` might pull: only
        when some online sibling has more ready tasks than ``gcpu``'s
        load of one (see ``GuestBalancer.find_pull_candidate``)."""
        for other in self.kernel.gcpus:
            if len(other.rq._entries) > 1 and other.online \
                    and other is not gcpu:
                return True
        return False

    def _fold(self, gcpu):
        """Count the ticks ``gcpu``'s silenced chain skipped since its
        silent base as deferred ticks: one per ``tick_ns`` up to the
        event's next firing time."""
        tick_ns = self.tick_ns
        base = gcpu.silent_base
        count = (gcpu.tick_event.time - tick_ns - base) // tick_ns
        if count:
            gcpu.lazy_ticks += count
            gcpu.tick_count += count
            gcpu.silent_base = gcpu.lazy_last = base + count * tick_ns

    def sound(self, gcpu):
        """End ``gcpu``'s silent tick chain, if it has one: fold its
        skipped ticks, then let the event fire at its current key.
        Called before any input of the deferral test changes: an
        enqueue, a change of current task, an SA upcall, an off-grid
        ``rt_avg`` update, tick cancellation and CPU hotplug."""
        if gcpu.silent_base is not None:
            self._fold(gcpu)
            gcpu.silent_base = None
            self.sim.sound(gcpu.tick_event)
            self.silent.remove(gcpu)

    def sound_all(self):
        """End every silent tick chain of the kernel."""
        silent = self.silent
        while silent:
            self.sound(silent[-1])

    def enqueued(self, rq):
        """A task joined ``rq`` while some chain is silent: its gCPU is
        no longer alone, and a runqueue two deep lets the balance tick
        of every alone sibling pull."""
        if len(rq._entries) > 1:
            self.sound_all()
        else:
            self.sound(rq.gcpu)

    def sync(self, gcpu):
        """Apply the work of ``gcpu``'s deferred ticks, exactly as those
        ticks would have: replay their ``rt_avg`` folds, then charge
        their checkpoints (integer and monotone, so one charge of the
        whole stint equals the per-tick sequence, vruntime rounding
        kept per tick). Every reader or writer of the deferred state
        calls this first: checkpoints, tick cancellation,
        ``load_metric``, wake and pull targets, spin grants, busy-time
        totals and end-of-run snapshots. A silenced chain stays
        silent; its skipped ticks are folded in first."""
        if gcpu.silent_base is not None:
            self._fold(gcpu)
        count = gcpu.lazy_ticks
        if not count:
            return
        gcpu.lazy_ticks = 0
        tick_ns = self.tick_ns
        gcpu.rt.replay_busy(count, tick_ns)
        task = gcpu.current
        last = gcpu.lazy_last
        first = last - (count - 1) * tick_ns - gcpu.run_started_at
        task.charge(first)
        task.charge(tick_ns, count - 1)
        stint = last - gcpu.run_started_at
        if isinstance(task.action, act.Compute) and not task.spinning:
            task.remaining_ns = max(0, task.remaining_ns - stint)
        gcpu.busy_ns += stint
        gcpu.run_started_at = last
        gcpu.rq.update_min_vruntime(task)

    def nohz_kick(self, busy_gcpu):
        """NOHZ idle balancing: a busy CPU with queued work kicks one
        guest-idle sibling so it can wake up and pull (Linux's
        ``nohz_balancer_kick``). Without this, a vCPU idled by an IRS
        evacuation — or by ordinary blocking — would never reclaim
        work, because idle CPUs take no ticks."""
        kernel = self.kernel
        for gcpu in kernel.gcpus:
            if gcpu is busy_gcpu or not gcpu.online:
                continue
            if not gcpu.is_guest_idle:
                continue
            if gcpu.vcpu.is_blocked:
                self.sim.trace.count('guest.nohz_kicks')
                kernel.machine.wake_vcpu(gcpu.vcpu)
                return
