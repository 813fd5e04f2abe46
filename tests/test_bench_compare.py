"""The paired benchmark gate's verdict and base-commit rules.

``tools/bench_compare.py`` compares the parent's and the change's
benchmark records metric by metric (docs/ARCHITECTURE.md, "Profiling
and the benchmark gate").  These tests feed it synthetic records and
run no benchmark.
"""

import importlib.util
import pathlib
import subprocess

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _runs(direction, *values, key="rec.metric"):
    """One synthetic run per value, each recording ``key``."""
    return [{key: {"value": v, "direction": direction, "unit": "s"}}
            for v in values]


def _row(parent, change, key="rec.metric"):
    return {r["key"]: r for r in bench_compare.compare(parent, change)}[key]


class TestVerdict:
    def test_doubled_lower_metric_regresses(self):
        row = _row(_runs("lower", 1.0, 1.02, 0.98), _runs("lower", 2.0, 2.04, 1.96))
        assert row["verdict"] == "REGRESS"
        assert row["parent"] == 1.0 and row["change"] == 2.0

    def test_lower_metric_within_tolerance_passes(self):
        row = _row(_runs("lower", 1.0, 1.0, 1.0), _runs("lower", 1.15, 1.15, 1.15))
        assert row["verdict"] == "ok"
        assert row["tolerance"] == bench_compare.TOLERANCE

    def test_higher_metric_dropping_30_percent_regresses(self):
        row = _row(_runs("higher", 100.0, 100.0, 100.0), _runs("higher", 70.0, 70.0, 70.0))
        assert row["verdict"] == "REGRESS"

    def test_higher_metric_rising_passes(self):
        row = _row(_runs("higher", 100.0, 100.0, 100.0), _runs("higher", 300.0, 300.0, 300.0))
        assert row["verdict"] == "ok"

    def test_wide_parent_spread_widens_the_tolerance(self):
        change = _runs("lower", 1.6, 1.6, 1.6)  # 1.33x the parent median
        tight = _row(_runs("lower", 1.2, 1.2, 1.2), change)
        wide = _row(_runs("lower", 1.0, 1.5, 1.2), change)
        assert tight["verdict"] == "REGRESS"
        assert wide["parent_spread"] == pytest.approx(0.5 / 1.2)
        assert wide["tolerance"] == pytest.approx(0.5 / 1.2)
        assert wide["verdict"] == "ok"

    def test_wide_change_spread_widens_the_tolerance(self):
        row = _row(_runs("lower", 1.0, 1.0, 1.0), _runs("lower", 0.9, 1.3, 1.6))
        assert row["tolerance"] == pytest.approx(0.7 / 1.3)
        assert row["verdict"] == "ok"

    def test_metric_missing_on_the_change_side_fails(self):
        parent = [{**a, **b} for a, b in zip(_runs("lower", 1.0, 1.0),
                                             _runs("lower", 2.0, 2.0, key="rec.gone"))]
        rows = {r["key"]: r for r in bench_compare.compare(parent, _runs("lower", 1.0, 1.0))}
        assert rows["rec.gone"]["verdict"] == "MISSING"
        assert rows["rec.metric"]["verdict"] == "ok"

    def test_new_change_side_metric_is_reported_not_gated(self):
        row = _row([{}, {}], _runs("lower", 5.0, 5.0))
        assert row["verdict"] == "new"
        assert row["parent"] is None and row["change"] == 5.0

    def test_info_metrics_never_fail(self):
        row = _row(_runs("info", 1.0, 1.0), _runs("info", 100.0, 100.0))
        assert row["verdict"] == "info"

    def test_the_change_side_direction_decides(self):
        # A change that demotes a metric to info is not gated on it.
        row = _row(_runs("higher", 16.0, 16.0), _runs("info", 1.0, 1.0))
        assert row["verdict"] == "info"

    def test_spread_is_range_over_median(self):
        assert bench_compare.spread([2.0, 3.0, 4.0]) == pytest.approx(2.0 / 3.0)
        assert bench_compare.spread([5.0]) == 0.0
        assert bench_compare.spread([0.0, 0.0, 0.0]) == 0.0


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True, text=True).stdout


@pytest.fixture
def two_commit_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for text in ("first\n", "second\n"):
        (repo / "f.txt").write_text(text)
        _git(repo, "add", "f.txt")
        _git(repo, "commit", "-q", "-m", text.strip())
    return repo


class TestBaseCommit:
    def test_clean_tree_compares_against_head_parent(self, two_commit_repo):
        assert bench_compare.base_ref(two_commit_repo) == "HEAD^"

    def test_modified_tree_compares_against_head(self, two_commit_repo):
        (two_commit_repo / "f.txt").write_text("edited\n")
        assert bench_compare.base_ref(two_commit_repo) == "HEAD"

    def test_untracked_file_counts_as_a_change(self, two_commit_repo):
        (two_commit_repo / "new.py").write_text("")
        assert bench_compare.base_ref(two_commit_repo) == "HEAD"

    def test_export_writes_the_base_commit_tree(self, two_commit_repo, tmp_path):
        dest = tmp_path / "parent"
        dest.mkdir()
        (dest / "stale.txt").write_text("")
        bench_compare.export_tree("HEAD^", dest, two_commit_repo)
        assert (dest / "f.txt").read_text() == "first\n"
        assert not (dest / "stale.txt").exists()
