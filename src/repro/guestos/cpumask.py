"""Guest CPU hotplug and online-mask bookkeeping.

The guest analogue of ``/sys/devices/system/cpu/cpuN/online``: taking a
CPU offline evacuates its tasks onto the remaining online CPUs
(stop-machine style — legal because the vCPU is under the guest's
control) and parks the vCPU; bringing it back online lets balancing
repopulate it via NOHZ kicks and periodic pulls.
"""

from .task import TASK_READY


class CpuHotplug:
    """Online/offline transitions for a kernel's guest CPUs."""

    def __init__(self, kernel):
        self.kernel = kernel

    def online_gcpus(self):
        return [g for g in self.kernel.gcpus if g.online]

    def offline(self, index):
        """Take a guest CPU offline: its tasks are migrated to the
        remaining online CPUs and the vCPU is parked."""
        kernel = self.kernel
        gcpu = kernel.gcpus[index]
        if not gcpu.online:
            return
        survivors = [g for g in kernel.gcpus if g is not gcpu and g.online]
        if not survivors:
            raise RuntimeError('cannot offline the last online CPU')
        # The evacuation changes current tasks and runqueues.
        kernel.ticks.sound_all()
        gcpu.online = False
        kernel.sim.trace.count('guest.cpu_offline')
        # Evacuate queued tasks.
        for i, task in enumerate(gcpu.rq.tasks()):
            kernel.pull_task(task, survivors[i % len(survivors)])
        # Evacuate the current task (stop-machine style: we may do it
        # directly because the vCPU is under our control).
        task = gcpu.current
        if task is not None:
            kernel._checkpoint(gcpu)
            kernel.ticks.cancel_quantum(gcpu)
            if task.spinning:
                kernel.machine.notify_spin_stop(gcpu.vcpu)
            task.state = TASK_READY
            task.last_descheduled = kernel.sim.now
            gcpu.current = None
            gcpu.rq.enqueue(task)
            kernel.pull_task(task, survivors[0])
            target = survivors[0]
            if target.vcpu.is_blocked:
                kernel.machine.wake_vcpu(target.vcpu)
        # Park the vCPU if it is running.
        if gcpu.vcpu.is_running:
            kernel._go_idle(gcpu)

    def online(self, index):
        """Bring a guest CPU back online; balancing will repopulate it
        (NOHZ kicks / periodic pulls)."""
        gcpu = self.kernel.gcpus[index]
        if gcpu.online:
            return
        # A returning sibling may hold tasks a balance tick could pull.
        self.kernel.ticks.sound_all()
        gcpu.online = True
        self.kernel.sim.trace.count('guest.cpu_online')
