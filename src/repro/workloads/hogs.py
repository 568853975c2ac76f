"""Interference generators.

The paper's synthetic interference is "a varying number of CPU hogs
that compete for CPU cycles with almost zero memory footprint"
(Section 5.1). Real-application interference reuses the PARSEC/NPB
profiles in repeat mode.
"""

from ..simkernel.units import MS
from .program import cpu_hog


class HogWorkload:
    """N endless compute tasks in a guest."""

    def __init__(self, sim, kernel, count=1, chunk_ns=10 * MS, name='hog'):
        self.sim = sim
        self.kernel = kernel
        self.count = count
        self.chunk_ns = chunk_ns
        self.name = name
        self.tasks = []

    def install(self):
        for i in range(self.count):
            task = self.kernel.spawn(
                '%s.t%d' % (self.name, i), cpu_hog(self.chunk_ns),
                gcpu_index=i % len(self.kernel.gcpus))
            self.tasks.append(task)
        return self

    def consumed_ns(self):
        """Total CPU the hogs managed to burn."""
        self.kernel.sync_ticks()
        return sum(task.cpu_ns for task in self.tasks)
