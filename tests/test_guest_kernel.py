"""Behavioural tests for the guest kernel execution engine."""

import types

import pytest

from repro.guestos.loadavg import RtAvgTracker
from repro.guestos.task import TASK_EXITED, TASK_SLEEPING
from repro.metrics import RunMetrics
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import (
    Acquire,
    Barrier,
    BarrierWait,
    BoundedQueue,
    Compute,
    Mark,
    Mutex,
    QueueGet,
    QueuePut,
    Release,
    Sleep,
    SpinLock,
    YieldCpu,
)
from repro.workloads.hogs import HogWorkload

from conftest import single_vm_machine


class TestBasicExecution:
    def test_compute_takes_exact_time(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(7 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [7 * MS]

    def test_sequential_actions_accumulate(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(3 * MS), Compute(4 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [7 * MS]

    def test_task_cpu_accounting(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        task = kernel.spawn('t', iter([Compute(5 * MS)]))
        sim.run_until(1 * SEC)
        assert task.cpu_ns == 5 * MS
        assert task.state == TASK_EXITED

    def test_two_tasks_share_one_vcpu_fairly(self, sim):
        machine, vm, kernel = single_vm_machine(sim)

        def spin_forever():
            while True:
                yield Compute(1 * MS)
        a = kernel.spawn('a', spin_forever(), gcpu_index=0)
        b = kernel.spawn('b', spin_forever(), gcpu_index=0)
        sim.run_until(1 * SEC)
        assert abs(a.cpu_ns - b.cpu_ns) < 100 * MS
        assert a.cpu_ns + b.cpu_ns > 990 * MS

    def test_mark_callback_runs_at_sim_time(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        stamps = []
        program = iter([Compute(2 * MS),
                        Mark(lambda t, now: stamps.append(now)),
                        Compute(1 * MS)])
        kernel.spawn('t', program)
        sim.run_until(1 * SEC)
        assert stamps == [2 * MS]

    def test_zero_compute_is_legal(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(0), Compute(1 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [1 * MS]

    def test_yield_with_empty_queue_continues(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(1 * MS), YieldCpu(),
                                Compute(1 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [2 * MS]

    def test_yield_rotates_to_other_task(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        order = []

        def yielder(name):
            yield Compute(100 * US)
            order.append(name + '.before')
            yield YieldCpu()
            order.append(name + '.after')
            yield Compute(100 * US)
        kernel.spawn('a', yielder('a'), gcpu_index=0)
        kernel.spawn('b', yielder('b'), gcpu_index=0)
        sim.run_until(1 * SEC)
        assert set(order) == {'a.before', 'a.after', 'b.before', 'b.after'}


class TestSleep:
    def test_sleep_duration(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        done = []
        kernel.spawn('t', iter([Compute(1 * MS), Sleep(10 * MS),
                                Compute(1 * MS)]),
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done == [12 * MS]

    def test_sleeping_task_burns_no_cpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        task = kernel.spawn('t', iter([Sleep(50 * MS)]))
        sim.run_until(1 * SEC)
        assert task.cpu_ns == 0

    def test_vcpu_blocks_while_all_sleep(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        kernel.spawn('t', iter([Sleep(100 * MS), Compute(1 * MS)]))
        sim.run_until(50 * MS)
        assert vm.vcpus[0].is_blocked

    def test_repeated_sleep_cycles(self, sim):
        """Regression: a blocking Sleep must clear the action so the
        wakeup does not re-arm the same sleep forever."""
        machine, vm, kernel = single_vm_machine(sim)

        def cycler():
            for __ in range(5):
                yield Sleep(10 * MS)
                yield Compute(1 * MS)
        task = kernel.spawn('t', cycler())
        sim.run_until(1 * SEC)
        assert task.state == TASK_EXITED
        assert task.cpu_ns == 5 * MS


class TestMutexBehaviour:
    def test_mutual_exclusion_serializes_critical_sections(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        m = Mutex()
        active = [0]
        overlaps = []

        def enter(t, now):
            active[0] += 1
            overlaps.append(active[0])

        def leave(t, now):
            active[0] -= 1

        def worker():
            for __ in range(20):
                yield Compute(200 * US)
                yield Acquire(m)
                yield Mark(enter)
                yield Compute(100 * US)
                yield Mark(leave)
                yield Release(m)
        kernel.spawn('a', worker(), gcpu_index=0)
        kernel.spawn('b', worker(), gcpu_index=1)
        sim.run_until(1 * SEC)
        assert overlaps and max(overlaps) == 1

    def test_waiter_blocks_and_wakes(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        m = Mutex()
        done = []
        kernel.spawn('holder',
                     iter([Acquire(m), Compute(20 * MS), Release(m)]),
                     gcpu_index=0)
        kernel.spawn('waiter',
                     iter([Compute(1 * MS), Acquire(m), Release(m),
                           Compute(1 * MS)]),
                     gcpu_index=1,
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        # Waiter acquires at ~20ms after the holder releases.
        assert done and 20 * MS <= done[0] <= 23 * MS

    def test_fifo_handoff_order(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=4, n_vcpus=4)
        m = Mutex()
        order = []

        def worker(name, delay):
            yield Compute(delay)
            yield Acquire(m)
            yield Mark(lambda t, now: order.append(name))
            yield Compute(5 * MS)
            yield Release(m)
        for i in range(4):
            kernel.spawn('w%d' % i, worker('w%d' % i, (i + 1) * 100 * US),
                         gcpu_index=i)
        sim.run_until(1 * SEC)
        assert order == ['w0', 'w1', 'w2', 'w3']


class TestSpinLockBehaviour:
    def test_spinner_burns_cpu_while_waiting(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        lock = SpinLock()
        kernel.spawn('holder',
                     iter([Acquire(lock), Compute(20 * MS), Release(lock)]),
                     gcpu_index=0)
        spinner = kernel.spawn(
            'spinner', iter([Compute(1 * MS), Acquire(lock),
                             Release(lock)]),
            gcpu_index=1)
        sim.run_until(100 * MS)
        # ~1ms compute + ~19ms spinning, all charged as CPU.
        assert spinner.cpu_ns > 15 * MS

    def test_spin_grant_resumes_immediately(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        lock = SpinLock()
        done = []
        kernel.spawn('holder',
                     iter([Acquire(lock), Compute(10 * MS), Release(lock)]),
                     gcpu_index=0)
        kernel.spawn('spinner',
                     iter([Compute(1 * MS), Acquire(lock), Compute(1 * MS),
                           Release(lock)]),
                     gcpu_index=1,
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert done and done[0] == 11 * MS


class TestBarrierBehaviour:
    @pytest.mark.parametrize('mode', ['block', 'spin'])
    def test_barrier_synchronizes(self, sim, mode):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        bar = Barrier(2, mode=mode)
        passed = []

        def worker(name, work_ns):
            yield Compute(work_ns)
            yield BarrierWait(bar)
            yield Mark(lambda t, now: passed.append((name, now)))
            yield Compute(1 * MS)
        kernel.spawn('fast', worker('fast', 1 * MS), gcpu_index=0)
        kernel.spawn('slow', worker('slow', 9 * MS), gcpu_index=1)
        sim.run_until(1 * SEC)
        times = dict(passed)
        assert times['fast'] == times['slow'] == 9 * MS

    def test_blocking_barrier_idles_vcpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        bar = Barrier(2, mode='block')
        kernel.spawn('fast', iter([Compute(1 * MS), BarrierWait(bar)]),
                     gcpu_index=0)
        kernel.spawn('slow', iter([Compute(50 * MS), BarrierWait(bar)]),
                     gcpu_index=1)
        sim.run_until(20 * MS)
        assert vm.vcpus[0].is_blocked        # deceptive idleness
        assert vm.vcpus[1].is_running

    def test_spin_barrier_keeps_vcpu_busy(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        bar = Barrier(2, mode='spin')
        kernel.spawn('fast', iter([Compute(1 * MS), BarrierWait(bar)]),
                     gcpu_index=0)
        kernel.spawn('slow', iter([Compute(50 * MS), BarrierWait(bar)]),
                     gcpu_index=1)
        sim.run_until(20 * MS)
        assert vm.vcpus[0].is_running        # burning cycles


class TestPipelineQueues:
    def test_producer_consumer_flow(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        q = BoundedQueue(2)
        consumed = []

        def producer():
            for i in range(5):
                yield Compute(1 * MS)
                yield QueuePut(q, i)

        def consumer():
            for __ in range(5):
                item = yield QueueGet(q)
                consumed.append(item)
                yield Compute(500 * US)
        kernel.spawn('p', producer(), gcpu_index=0)
        kernel.spawn('c', consumer(), gcpu_index=1)
        sim.run_until(1 * SEC)
        assert consumed == [0, 1, 2, 3, 4]

    def test_bounded_capacity_throttles_producer(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        q = BoundedQueue(1)
        p_done = []

        def producer():
            for i in range(3):
                yield QueuePut(q, i)
            yield Compute(100 * US)

        def slow_consumer():
            for __ in range(3):
                yield Compute(10 * MS)
                yield QueueGet(q)
        kernel.spawn('p', producer(), gcpu_index=0,
                     on_exit=lambda t, now: p_done.append(now))
        kernel.spawn('c', slow_consumer(), gcpu_index=1)
        sim.run_until(1 * SEC)
        # Producer must wait for the consumer to drain: ≥ 2 consumer
        # periods before its last put completes.
        assert p_done and p_done[0] >= 20 * MS


class TestBalancing:
    def test_idle_vcpu_pulls_ready_work(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)

        def chunk():
            yield Compute(50 * MS)
        # Three tasks on gcpu0, nothing on gcpu1: the idle CPU should
        # pull so total completion beats serial execution.
        done = []
        for i in range(3):
            kernel.spawn('t%d' % i, chunk(), gcpu_index=0,
                         on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert max(done) <= 110 * MS  # serial would be 150ms

    def test_nohz_kick_revives_idle_vcpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)

        def long_chunk():
            yield Compute(100 * MS)
        # gcpu1 idles (nothing spawned there); queue two extra tasks on
        # gcpu0 *after* gcpu1 has gone idle-blocked.
        kernel.spawn('a', long_chunk(), gcpu_index=0)
        sim.run_until(5 * MS)
        assert vm.vcpus[1].is_blocked
        done = []
        kernel.spawn('b', long_chunk(), gcpu_index=0,
                     on_exit=lambda t, now: done.append(now))
        kernel.spawn('c', long_chunk(), gcpu_index=0,
                     on_exit=lambda t, now: done.append(now))
        sim.run_until(1 * SEC)
        assert max(done) < 250 * MS  # serial on one vCPU would be ~300ms

    def test_wake_prefers_previous_idle_cpu(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)

        def napper():
            for __ in range(3):
                yield Compute(1 * MS)
                yield Sleep(5 * MS)
        task = kernel.spawn('n', napper(), gcpu_index=1)
        sim.run_until(1 * SEC)
        assert task.migrations == 0
        assert task.gcpu is kernel.gcpus[1]


class TestExitAndErrors:
    def test_exit_callback_fires_once(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        calls = []
        kernel.spawn('t', iter([Compute(1 * MS)]),
                     on_exit=lambda t, now: calls.append(now))
        sim.run_until(1 * SEC)
        assert len(calls) == 1

    def test_unknown_action_raises(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        with pytest.raises(TypeError):
            kernel.spawn('t', iter([object()]))

    def test_zero_time_action_livelock_detected(self, sim):
        machine, vm, kernel = single_vm_machine(sim)

        def endless_marks():
            while True:
                yield Mark(lambda t, now: None)
        with pytest.raises(RuntimeError):
            kernel.spawn('t', endless_marks())

    def test_empty_program_exits_immediately(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        task = kernel.spawn('t', iter(()))
        sim.run_until(1 * MS)
        assert task.state == TASK_EXITED


class TestFreezeSemantics:
    """The semantic gap itself: a preempted vCPU freezes its current
    task, which stays 'running' and untouchable."""

    def _setup(self, sim):
        from conftest import build_machine, build_vm
        machine = build_machine(sim, n_pcpus=1)
        vm, kernel = build_vm(sim, machine, 'par', pinning=[0])
        hvm, hk = build_vm(sim, machine, 'hog', pinning=[0])

        def hog():
            while True:
                yield Compute(10 * MS)
        hk.spawn('hog', hog())
        machine.start()
        return machine, vm, kernel

    def test_frozen_task_makes_no_progress(self, sim):
        machine, vm, kernel = self._setup(sim)
        task = kernel.spawn('t', iter([Compute(100 * MS)]))
        sim.run_until(1 * SEC)
        # With a competing hog the task needs ~200ms wall time.
        assert task.state == TASK_EXITED
        assert task.finished_at > 150 * MS

    def test_frozen_task_state_stays_running(self, sim):
        machine, vm, kernel = self._setup(sim)
        task = kernel.spawn('t', iter([Compute(500 * MS)]))
        # Find a moment when the vCPU is preempted mid-execution.
        for __ in range(100):
            sim.run_until(sim.now + 5 * MS)
            if vm.vcpus[0].is_runnable and task.cpu_ns > 0:
                break
        assert vm.vcpus[0].is_runnable
        assert task.state == 'running'       # the lie the guest believes
        assert kernel.gcpus[0].current is task


class TestDeferredTicks:
    """A gCPU running its only task defers the work of its scheduler
    ticks. Every reader of that work must see exactly what eager ticks
    would have produced."""

    def _alone_hog(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        hogs = HogWorkload(sim, kernel, count=1, chunk_ns=20 * MS).install()
        sim.run_until(7500 * US)
        return machine, kernel, hogs

    def test_run_metrics_read_last_tick_checkpoint(self, sim):
        machine, kernel, __ = self._alone_hog(sim)
        metrics = RunMetrics(machine, [kernel], sim.now)
        # Ticks at 1..7 ms checkpoint; the open 0.5 ms is not charged.
        assert metrics.tasks['hog.t0'].cpu_ns == 7 * MS

    def test_hog_consumed_reads_last_tick_checkpoint(self, sim):
        __, __, hogs = self._alone_hog(sim)
        assert hogs.consumed_ns() == 7 * MS

    def test_total_busy_includes_open_stint(self, sim):
        __, kernel, __ = self._alone_hog(sim)
        assert kernel.total_busy_ns() == 7500 * US

    def test_spin_grant_off_tick_grid(self, sim):
        """The grantee's pause loop ran under deferred ticks and the
        grant lands between ticks, at 5.3 ms. Pre-existing quirk kept on
        purpose: the spin time since the grantee's last tick (5.0 ms) is
        charged to its next compute segment."""
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        lock = SpinLock()
        kernel.spawn('holder',
                     iter([Acquire(lock), Compute(5300 * US), Release(lock),
                           Compute(20 * MS)]),
                     gcpu_index=0)
        spinner = kernel.spawn(
            'spinner', iter([Compute(200 * US), Acquire(lock),
                             Compute(10 * MS), Release(lock)]),
            gcpu_index=1)
        sim.run_until(6500 * US)
        # Offlining checkpoints the spinner and moves it to cpu0.
        kernel.offline_gcpu(1)
        penalty = kernel.policy.config.migration_penalty_ns
        # Charged from the tick at 5.0 ms, not from the grant at 5.3 ms.
        assert spinner.remaining_ns == 10 * MS - 1500 * US + penalty

    def test_alone_tick_chain_is_silent(self, sim):
        __, kernel, __ = self._alone_hog(sim)
        gcpu = kernel.gcpus[0]
        assert gcpu.tick_event.period == kernel.ticks.tick_ns
        assert kernel.ticks.silent == [gcpu]
        # Ticks 2..7 ms re-armed in place: sequence numbers consumed,
        # no events fired.
        assert sim.events_scheduled - sim.events_processed >= 6
        kernel.sync_ticks()
        assert gcpu.tick_count == 7
        assert gcpu.silent_base == gcpu.lazy_last == 7 * MS
        assert gcpu.tick_event.period    # a read-only sync stays silent

    def test_load_metric_sounds_the_chain(self, sim):
        __, kernel, __ = self._alone_hog(sim)
        gcpu = kernel.gcpus[0]
        gcpu.load_metric()
        assert gcpu.tick_event.period == 0
        assert gcpu.silent_base is None
        assert kernel.ticks.silent == []
        assert gcpu.tick_count == 7

    def test_two_deep_sibling_sounds_every_chain_and_balance_pulls(self, sim):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        for name, index in (('a', 0), ('b', 1)):
            kernel.spawn(name, iter([Compute(50 * MS)]), gcpu_index=index)
        sim.run_until(5500 * US)
        cpu0, cpu1 = kernel.gcpus
        assert kernel.ticks.silent == [cpu0, cpu1]
        kernel.spawn('c', iter([Compute(50 * MS)]), gcpu_index=1)
        assert cpu1.tick_event.period == 0 and cpu1.rq.nr_ready == 1
        # cpu0's 6 ms tick silences its chain again: one ready task on
        # cpu1 gives its balance nothing to pull.
        sim.run_until(6500 * US)
        assert kernel.ticks.silent == [cpu0]
        kernel.spawn('d', iter([Compute(50 * MS)]), gcpu_index=1)
        assert cpu1.rq.nr_ready == 2
        assert kernel.ticks.silent == []
        assert cpu0.tick_event.period == 0 and cpu0.silent_base is None
        pulls = sim.trace.counters['guest.pulls']
        # cpu0's next balance boundary is its 8th tick, at 8 ms.
        sim.run_until(8 * MS)
        assert cpu0.tick_count == 8
        assert sim.trace.counters['guest.pulls'] == pulls + 1
        assert (cpu0.rq.nr_ready, cpu1.rq.nr_ready) == (1, 1)

    def test_load_metric_replays_each_tick_fold(self, sim):
        machine, vm, kernel = single_vm_machine(sim)
        kernel.spawn('t', iter([Compute(50 * MS)]))
        sim.run_until(10 * MS)
        clock = types.SimpleNamespace(now=0)
        always_running = types.SimpleNamespace(
            snapshot_accounting=lambda now: (now, 0, 0))
        expected = RtAvgTracker(always_running, clock)
        for tick in range(1, 11):
            clock.now = tick * MS
            expected.update()
        gcpu = kernel.gcpus[0]
        assert gcpu.load_metric() == expected.value + 1
        # Exact to the bit: one 10 ms fold would round differently.
        assert gcpu.rt.value == expected.value
