"""Per-vCPU guest CPU state.

A :class:`GuestCpu` is the guest kernel's view of one vCPU: runqueue,
current task, timer handles, load tracking, and the hotplug/SA flags
the rest of the guest layer keys off.
"""

from .loadavg import RtAvgTracker
from .runqueue import RunQueue


class GuestCpu:
    """Per-vCPU guest state: runqueue, current task, timers, load."""

    def __init__(self, kernel, vcpu, index):
        self.kernel = kernel
        self.vcpu = vcpu
        self.index = index
        self.name = '%s.cpu%d' % (kernel.vm.name, index)
        self.rq = RunQueue(self, kernel.ticks)
        self.current = None
        # Simulation time when the current task's live stint began;
        # None whenever the task is not actually consuming cycles.
        self.run_started_at = None
        self.quantum_event = None
        self.tick_event = None
        self.tick_count = 0
        # Ticks whose work was deferred while the gCPU ran its only
        # task (see TickDriver._on_tick), and the time of the last one.
        self.lazy_ticks = 0
        self.lazy_last = 0
        # While the tick chain is silenced: the time of the last tick
        # already counted in lazy_ticks (None while the chain fires).
        self.silent_base = None
        self.rt = RtAvgTracker(vcpu, kernel.sim)
        # Stopper work (e.g. migration requests) run at next dispatch.
        self.pending_work = []
        self.in_sa_handler = False
        self.busy_ns = 0
        # Guest CPU hotplug state: offline CPUs take no tasks and are
        # skipped by balancing and by the IRS migrator (Algorithm 2
        # iterates *online* vCPUs).
        self.online = True

    @property
    def is_guest_idle(self):
        """Idle from the *guest's* point of view: nothing current and
        nothing queued. Says nothing about the hypervisor runstate."""
        return self.current is None and self.rq.nr_ready == 0

    def load_metric(self):
        """Busyness for placement decisions: decayed busy+steal fraction
        plus live task count."""
        ticks = self.kernel.ticks
        # The off-grid rt update below makes the next tick do its work.
        ticks.sound(self)
        ticks.sync(self)
        return (self.rt.update() + self.rq.nr_ready +
                (1 if self.current is not None else 0))

    def __repr__(self):
        cur = self.current.name if self.current else 'idle'
        return '<GuestCpu %s cur=%s ready=%d>' % (
            self.name, cur, self.rq.nr_ready)
