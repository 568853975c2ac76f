"""The benchmark: execute a workload's fixed run list and check its outputs.

One client runs the specs of a workload in order, each through the
public :func:`repro.experiments.execute_spec`, starting the next run
only when the previous one has returned (a closed loop). No result
cache and no worker pool are involved. The whole list is repeated
until ``--seconds`` is used up, at least :data:`MIN_REPS` times.
``wall_s`` sums, over the specs, the median host time of each spec
across the repetitions, so one disturbed repetition does not move it.

Every run is checked: it fails when it raises, when a parallel run
times out, when its outcome digest differs between repetitions, or
when the digest differs from the reference recorded for that seed in
``references.json``. The digest covers only the *simulated* values the
figure tables print.

With ``--trace 1`` one more repetition runs under :mod:`layers`, and
the per-layer metrics replace the end-to-end ones in the result.
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import grids
from repro.experiments import (SerialExecutor, execute_spec,
                               pipeline_counters, set_default_cache,
                               set_default_executor)
from repro.experiments.harness import (set_default_fault_plan,
                                       set_default_observability)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, 'references.json')
REFERENCE_SEEDS = (0, 1)
MIN_REPS = 3
SETUP_PROBES = 15

RunResult = collections.namedtuple('RunResult', 'seconds digest error')


class IsolationError(RuntimeError):
    """The measured runs did not all execute: something served them."""


def isolate():
    """Run every spec in-process with no cache and no ambient state."""
    set_default_cache(None)
    set_default_executor(SerialExecutor())
    set_default_fault_plan(None)
    set_default_observability(None)


def outcome_digest(outcome):
    """Hash of the simulated values a figure table prints.

    Counter names are left out, so a documented counter rename does
    not change a digest. Raises ValueError for a parallel run that
    timed out.
    """
    if outcome.spec.kind == 'traffic':
        summary = outcome.cluster
        fields = {
            'throughput': outcome.throughput,
            'latency': outcome.latency_summary,
            'injected': summary['injected'],
            'completed': summary['completed'],
            'shed': summary['shed'],
            'slo_attainment': summary['slo']['attainment'],
            'meets_slo': summary['slo']['meets_slo'],
            'migrations': summary['migrations'],
        }
    else:
        if not outcome.completed:
            raise ValueError('timed out before the workload finished')
        fields = {
            'makespan_ns': outcome.makespan_ns,
            'utilization': outcome.utilization,
            'bg_rates': list(outcome.bg_rates),
            'sa_delay_ns': list(outcome.sa_delay_ns),
        }
    text = json.dumps(fields, sort_keys=True, separators=(',', ':'))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_list(specs, execute=execute_spec, trace=None):
    """Execute ``specs`` in order; one :class:`RunResult` per spec.

    A run that raises is recorded as failed and the list goes on.
    """
    results = []
    for spec in specs:
        outcome = None
        start = time.perf_counter()
        try:
            if trace is None:
                outcome = execute(spec)
            else:
                outcome = trace.run(execute, spec)
            digest, error = outcome_digest(outcome), None
        except Exception as exc:
            digest, error = None, '%s: %s' % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
        if trace is not None:
            trace.finish_run(outcome)
        results.append(RunResult(seconds, digest, error))
    return results


def _runs_executed():
    return pipeline_counters().get('executor.runs', 0)


def run_counted(specs, trace=None):
    """:func:`run_list`, asserting that every spec really executed."""
    before = _runs_executed()
    results = run_list(specs, trace=trace)
    executed = _runs_executed() - before
    if executed != len(specs):
        raise IsolationError('%d of %d runs executed' % (executed, len(specs)))
    return results


def measure(specs, seconds):
    """Repeat the run list until ``seconds`` would be overrun."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_counted(specs))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            return reps


def wall_seconds(reps):
    """Sum over specs of each spec's median host time across reps."""
    return sum(statistics.median(rep[i].seconds for rep in reps)
               for i in range(len(reps[0])))


def find_failures(specs, reps, reference=None):
    """One ``(spec label, reason)`` pair per failed run.

    ``reference`` maps each label to the digest recorded for this seed,
    or is None to check completion and agreement between reps only.
    """
    failures = []
    for i, spec in enumerate(specs):
        label = spec.describe()
        first = reps[0][i].digest
        expected = reference[label] if reference is not None else None
        for rep in reps:
            result = rep[i]
            if result.error is not None:
                reason = result.error
            elif result.digest != first:
                reason = 'digest %s differs from the first repetition %s' % (
                    result.digest, first)
            elif expected is not None and result.digest != expected:
                reason = 'digest %s differs from reference %s' % (
                    result.digest, expected)
            else:
                continue
            failures.append((label, reason))
    return failures


def load_references():
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_for(workload, seed, specs):
    """The ``{label: digest}`` recorded for this seed, or None."""
    refs = load_references().get(workload, {}).get(str(seed))
    if refs is not None and set(refs) != {s.describe() for s in specs}:
        raise ValueError('references for %s seed %d do not match its grid; '
                         'regenerate them' % (workload, seed))
    return refs


def probe_setup(workload, seed):
    """Host seconds from spawning a fresh interpreter to its first dispatch."""
    command = [sys.executable, os.path.join(HERE, 'run.py'), '--workload',
               workload, '--seed', str(seed), '--setup-probe']
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def run_workload(workload, seed, seconds, traced):
    """Measure one workload; returns the result dict the driver reads."""
    specs = grids.WORKLOADS[workload](seed)
    reference = reference_for(workload, seed, specs)
    problems = []
    if traced:
        reps = measure(specs, seconds)
        wall_s = wall_seconds(reps)
        # Imported here so that set-up time never pays for the profiler.
        from layers import LayerTrace
        with LayerTrace() as trace:
            traced_rep = run_counted(specs, trace=trace)
        reps.append(traced_rep)
        fired = sum(trace.counts.fired_by_callback.values())
        if fired != trace.counts.events_processed:
            problems.append('hook saw %d events, simulators processed %d'
                            % (fired, trace.counts.events_processed))
        metrics = trace.metrics(wall_s, sum(r.seconds for r in traced_rep))
    else:
        setup_s = statistics.median(probe_setup(workload, seed)
                                    for _ in range(SETUP_PROBES))
        reps = measure(specs, seconds)
        metrics = {
            'wall_s': (wall_seconds(reps), 's'),
            'setup_s': (setup_s, 's'),
            'peak_rss_mb': (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                'MB'),
        }
    failures = find_failures(specs, reps, reference)
    for label, reason in failures:
        print('FAILED %s: %s' % (label, reason))
    for problem in problems:
        print('INCONSISTENT: %s' % problem)
    if reference is None:
        print('seed %d has no reference digests: runs are checked for '
              'completion and agreement between repetitions only' % seed)
    print('%s seed=%d: %d runs x %d repetitions' % (
        workload, seed, len(specs), len(reps)))
    for name, (value, unit) in metrics.items():
        print('  %-28s %14.6g %s' % (name, value, unit))
    return {
        'correct': not failures and not problems,
        'attempted': len(specs) * len(reps),
        'failed': len(failures),
        'metrics': {name: {'value': value, 'unit': unit}
                    for name, (value, unit) in metrics.items()},
    }


def regenerate_references(write):
    """Re-run every workload at the reference seeds and report changes.

    The file is replaced only with ``write``; a changed digest is always
    printed first.
    """
    try:
        old = load_references()
    except FileNotFoundError:
        old = {}
    new = {}
    changes = []
    for workload, grid in grids.WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            specs = grid(seed)
            results = run_counted(specs)
            errors = [(s.describe(), r.error)
                      for s, r in zip(specs, results) if r.error]
            if errors:
                for label, error in errors:
                    print('ERROR %s: %s' % (label, error))
                return 1
            entries = {s.describe(): r.digest
                       for s, r in zip(specs, results)}
            new.setdefault(workload, {})[str(seed)] = entries
            before = old.get(workload, {}).get(str(seed), {})
            for label, digest in entries.items():
                if before.get(label) != digest:
                    changes.append('%s: %s -> %s'
                                   % (label, before.get(label), digest))
            print('%s seed=%d: %d runs' % (workload, seed, len(entries)))
    if new == old:
        print('references unchanged')
        return 0
    for change in changes:
        print('CHANGED %s' % change)
    if not write:
        print('references not written; rerun with --write to replace them')
        return 1
    with open(REFERENCES, 'w') as handle:
        json.dump(new, handle, indent=1)
        handle.write('\n')
    print('wrote %s' % REFERENCES)
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(prog='perfbench/run.py')
    parser.add_argument('--workload', choices=sorted(grids.WORKLOADS))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=25.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--setup-probe', action='store_true',
                        help=argparse.SUPPRESS)
    parser.add_argument('--regen-references', action='store_true',
                        help='re-run the reference seeds and print which '
                             'digests changed')
    parser.add_argument('--write', action='store_true',
                        help='with --regen-references: replace the file')
    args = parser.parse_args(argv)
    if not args.regen_references and args.workload is None:
        parser.error('--workload is required')
    return args


def main(argv):
    args = parse_args(argv)
    isolate()
    if args.regen_references:
        return regenerate_references(args.write)
    if args.setup_probe:
        grids.WORKLOADS[args.workload](args.seed)
        print(repr(time.perf_counter()))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0
