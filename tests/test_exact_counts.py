"""Exact work counts for a small fixed spec set, one per workload family.

The simulator is deterministic, so these numbers repeat on any host:
the sequence numbers consumed (``Simulator.events_scheduled``), the
makespan and the simulated scheduling counters. A performance change
that claims to leave the simulation alone must leave every one of them
unchanged; a deliberate change to the model regenerates the JSON in the
same diff::

    PYTHONPATH=src python tests/test_exact_counts.py --write

``events_processed`` is not pinned: elided work (silent tick re-arms)
lowers it without changing what is simulated.
"""

import json
import os
import sys

import pytest

from repro.experiments import InterferenceSpec, parallel_spec, traffic_spec
from repro.experiments.executor import execute_spec
from repro.simkernel import Simulator
from repro.simkernel.units import MS

PINNED_JSON = os.path.join(os.path.dirname(__file__), 'exact_counts.json')

#: Simulated counters pinned per run (summed over its simulators).
COUNTERS = ('hv.preemptions', 'irs.sa_sent', 'irs.migrations',
            'ple.exits', 'guest.wakeups')

SPECS = {
    'scalability': parallel_spec(
        'x264', 'irs', InterferenceSpec('hogs', 4), seed=0, scale=0.3,
        n_pcpus=8, fg_vcpus=8),
    'spinning': parallel_spec(
        'CG', 'ple', InterferenceSpec('UA', 1), seed=0, scale=0.2),
    'serving': traffic_spec(
        strategy='irs', open_loop=True, seed=0, measure_ns=300 * MS),
    'oversubscribed': parallel_spec(
        'streamcluster', 'irs', InterferenceSpec('hogs', 2), seed=0,
        scale=0.2, n_threads=16),
}


def measure(spec, patch):
    """Run ``spec`` and return its pinned counts. ``patch(cls, name,
    value)`` installs the constructor wrapper that records simulators
    (``monkeypatch.setattr`` in tests)."""
    sims = []
    original = Simulator.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sims.append(self)

    patch(Simulator, '__init__', recording)
    outcome = execute_spec(spec)
    counts = {
        'events_scheduled': sum(sim.events_scheduled for sim in sims),
        'makespan_ns': outcome.makespan_ns,
    }
    for name in COUNTERS:
        counts[name] = sum(sim.trace.counters[name] for sim in sims)
    return counts


def _pinned():
    with open(PINNED_JSON) as handle:
        return json.load(handle)


@pytest.mark.parametrize('name', sorted(SPECS))
def test_counts_match_pinned(name, monkeypatch):
    assert measure(SPECS[name], monkeypatch.setattr) == _pinned()[name]


def test_pinned_set_covers_every_spec():
    assert sorted(_pinned()) == sorted(SPECS)


def _regenerate():
    restore = []

    def patch(cls, attr, value):
        restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, value)

    pinned = {}
    for name in sorted(SPECS):
        pinned[name] = measure(SPECS[name], patch)
        while restore:
            cls, attr, value = restore.pop()
            setattr(cls, attr, value)
    return pinned


if __name__ == '__main__':
    fresh = _regenerate()
    text = json.dumps(fresh, indent=2, sort_keys=True) + '\n'
    if '--write' in sys.argv[1:]:
        with open(PINNED_JSON, 'w') as handle:
            handle.write(text)
    sys.stdout.write(text)
