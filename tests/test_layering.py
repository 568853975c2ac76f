"""Tests for the ``layering`` pass of repro-lint, the repo's only
layering checker (framework-level contracts live in test_replint.py)."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.replint import run_passes                 # noqa: E402
from tools.replint.passes.layering import RANKS      # noqa: E402


def run(src_root):
    """Active layering findings under ``src_root`` as rendered lines."""
    findings, _ = run_passes(src_root, pass_names=['layering'])
    return [f.render() for f in findings if f.active]


class TestRepoIsLayered:
    def test_no_upward_imports(self):
        violations = run(REPO_ROOT / 'src')
        assert violations == []

    def test_every_package_is_ranked(self):
        packages = {p.name for p in (REPO_ROOT / 'src' / 'repro').iterdir()
                    if p.is_dir() and (p / '__init__.py').exists()}
        assert packages == set(RANKS)


class TestDetection:
    def _lint(self, tmp_path, source, package='simkernel', name='mod.py'):
        pkg = tmp_path / 'repro' / package
        pkg.mkdir(parents=True)
        (pkg / name).write_text(source)
        return run(tmp_path)

    def test_upward_absolute_import_flagged(self, tmp_path):
        violations = self._lint(tmp_path, 'from repro.core import x\n')
        assert len(violations) == 1
        assert 'upward import' in violations[0]

    def test_upward_relative_import_flagged(self, tmp_path):
        violations = self._lint(tmp_path, 'from ..cluster import host\n')
        assert len(violations) == 1
        assert 'upward import' in violations[0]

    def test_upward_plain_import_flagged(self, tmp_path):
        violations = self._lint(tmp_path, 'import repro.experiments.cli\n')
        assert len(violations) == 1

    def test_lazy_import_exempt(self, tmp_path):
        violations = self._lint(tmp_path, (
            'def build():\n'
            '    from repro.cluster import Cluster\n'
            '    return Cluster\n'))
        assert violations == []

    def test_downward_and_sibling_imports_clean(self, tmp_path):
        violations = self._lint(tmp_path, (
            'from repro.obs.phases import PHASE_VIRQ\n'
            'from .units import MS\n'), package='simkernel')
        assert violations == []

    def test_equal_rank_pair_allowed_both_ways(self, tmp_path):
        assert self._lint(tmp_path, 'from ..guestos import GuestKernel\n',
                          package='hypervisor') == []
        assert self._lint(tmp_path, 'from ..hypervisor import Machine\n',
                          package='guestos') == []

    def test_class_body_import_counts_as_module_level(self, tmp_path):
        violations = self._lint(tmp_path, (
            'class C:\n'
            '    from repro.core import install_irs\n'))
        assert len(violations) == 1

    def test_unranked_package_flagged(self, tmp_path):
        violations = self._lint(tmp_path, 'x = 1\n', package='newpkg')
        assert len(violations) == 1
        assert 'no layering rank' in violations[0]
