"""Tests of the benchmark itself (not of the simulator).

Run from the repo root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import copy
import os

import pytest

import bench
import grids
from layers import LAYERS, LayerTrace
from repro.experiments import execute_spec
from repro.simkernel.simulation import Simulator
from tools.replint.passes.layering import RANKS

REPRO_DIR = os.path.join(os.path.dirname(bench.HERE), 'src', 'repro')


def test_layers_are_every_package_in_replint_order():
    packages = {name for name in os.listdir(REPRO_DIR)
                if os.path.isfile(os.path.join(REPRO_DIR, name,
                                               '__init__.py'))}
    assert set(LAYERS) == packages == set(RANKS)
    ranks = [RANKS[layer] for layer in LAYERS]
    assert ranks == sorted(ranks)


def test_output_check_flags_each_failed_run_and_keeps_going():
    specs = grids.oversubscribed(0)[:4]
    real = {spec: execute_spec(spec) for spec in specs}
    reference = {spec.describe(): bench.outcome_digest(real[spec])
                 for spec in specs}

    def faulty(spec):
        outcome = copy.copy(real[spec])
        if spec is specs[0]:
            outcome.makespan_ns += 1
        elif spec is specs[1]:
            raise RuntimeError('injected crash')
        elif spec is specs[2]:
            outcome.makespan_ns = None
        return outcome

    reps = [bench.run_list(specs, execute=faulty)]
    failures = dict(bench.find_failures(specs, reps, reference))
    assert sorted(failures) == sorted(s.describe() for s in specs[:3])
    assert 'differs from reference' in failures[specs[0].describe()]
    assert 'RuntimeError: injected crash' in failures[specs[1].describe()]
    assert 'timed out' in failures[specs[2].describe()]
    assert reps[0][3].digest == reference[specs[3].describe()]


def test_output_check_flags_disagreeing_repetitions():
    specs = grids.oversubscribed(0)[:1]
    reps = [[bench.RunResult(1.0, 'a', None)],
            [bench.RunResult(1.0, 'b', None)]]
    (failure,) = bench.find_failures(specs, reps)
    assert 'first repetition' in failure[1]


def test_stored_references_match_the_program():
    specs = grids.oversubscribed(0)[:2]
    reference = bench.reference_for('oversubscribed', 0,
                                    grids.oversubscribed(0))
    for result, spec in zip(bench.run_list(specs), specs):
        assert result.digest == reference[spec.describe()]


@pytest.mark.parametrize('workload', sorted(grids.WORKLOADS))
def test_seed_argument_moves_only_the_seeds(workload):
    base = grids.WORKLOADS[workload](0)
    moved = grids.WORKLOADS[workload](7)
    assert [m.replace(seed=b.seed) for b, m in zip(base, moved)] == base
    assert {m.seed - b.seed for b, m in zip(base, moved)} == {7}
    seeds = {spec.seed for spec in moved}
    assert seeds == ({7, 8, 9} if workload == 'serving' else {7})


def test_run_count_guard_rejects_runs_that_did_not_execute(monkeypatch):
    specs = grids.oversubscribed(0)[:2]
    monkeypatch.setattr(bench, 'run_list', lambda specs, trace=None: [
        bench.RunResult(0.0, 'cached', None) for _ in specs])
    with pytest.raises(bench.IsolationError):
        bench.run_counted(specs)


def test_layer_trace_counts_every_event_and_unpatches():
    spec = grids.oversubscribed(0)[0]
    saved = {name: Simulator.__dict__[name]
             for name in ('__init__', 'at', 'after', 'call_soon')}

    def crash(spec):
        execute_spec(spec)
        raise RuntimeError('injected crash')

    with LayerTrace() as trace:
        (result,) = bench.run_list([spec], trace=trace)
        (crashed,) = bench.run_list([spec], execute=crash, trace=trace)
    counts = trace.counts
    assert result.error is None and 'injected crash' in crashed.error
    assert counts.events_processed > 0
    assert sum(counts.fired_by_callback.values()) == counts.events_processed
    assert counts.ticks > 0 and 0 <= counts.cancelled <= counts.scheduled
    assert sum(trace.self_time_by_layer().values()) > 0
    assert {name: Simulator.__dict__[name] for name in saved} == saved
