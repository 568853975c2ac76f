"""The benchmark's four workloads: fixed RunSpec grids derived from a seed.

Every grid is written out here rather than taken from the figure
drivers, so a change to a figure's defaults cannot silently change what
the benchmark measures. The seed argument is the only input: parallel
runs take it as their simulation seed, and ``serving`` uses the triple
``seed, seed + 1, seed + 2``.
"""

from repro.experiments import InterferenceSpec, parallel_spec, traffic_spec
from repro.simkernel.units import SEC

#: The fig10-quick grid: each app with its suite's three interferers.
SCALABILITY_APPS = (
    ('x264', ('hogs', 'streamcluster', 'fluidanimate')),
    ('blackscholes', ('hogs', 'streamcluster', 'fluidanimate')),
    ('EP', ('hogs', 'UA', 'LU')),
    ('MG', ('hogs', 'UA', 'LU')),
)
SPINNING_APPS = ('CG', 'MG', 'UA', 'LU')
OVERSUBSCRIBED_APPS = ('streamcluster', 'dedup')
ALL_STRATEGIES = ('vanilla', 'ple', 'relaxed_co', 'irs')
SCALE = 0.5


def scalability(seed):
    return [parallel_spec(app, strategy, InterferenceSpec(inter, width),
                          seed=seed, scale=SCALE, n_pcpus=8, fg_vcpus=8)
            for app, interferers in SCALABILITY_APPS
            for inter in interferers
            for width in (1, 2, 4, 8)
            for strategy in ('vanilla', 'irs')]


def spinning(seed):
    return [parallel_spec(app, strategy, InterferenceSpec(inter, width),
                          seed=seed, scale=SCALE)
            for app in SPINNING_APPS
            for inter in ('hogs', 'UA')
            for width in (1, 4)
            for strategy in ALL_STRATEGIES]


def serving(seed):
    return [traffic_spec(strategy=strategy, open_loop=open_loop,
                         seed=seed + offset, measure_ns=1 * SEC)
            for strategy in ('vanilla', 'irs')
            for open_loop in (False, True)
            for offset in (0, 1, 2)]


def oversubscribed(seed):
    return [parallel_spec(app, strategy, InterferenceSpec('hogs', width),
                          seed=seed, scale=SCALE, n_threads=16)
            for app in OVERSUBSCRIBED_APPS
            for width in (1, 2, 4)
            for strategy in ('vanilla', 'irs')]


WORKLOADS = {
    'scalability': scalability,
    'spinning': spinning,
    'serving': serving,
    'oversubscribed': oversubscribed,
}

