"""Top-level package surface tests."""

import importlib
import pkgutil

import pytest

import repro


class TestLazyExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_lazy_system_config(self):
        config = repro.SystemConfig.scaled(total_bytes=4 << 20,
                                           rows_per_ar=32)
        assert config.geometry.total_bytes == 4 << 20

    def test_lazy_zero_refresh_system(self):
        assert repro.ZeroRefreshSystem.__name__ == "ZeroRefreshSystem"

    def test_lazy_refresh_stats(self):
        stats = repro.RefreshStats(groups_refreshed=1, groups_skipped=1)
        assert stats.normalized_refresh() == 0.5

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_all_subpackages_import(self):
        import repro.analysis
        import repro.baselines
        import repro.cache
        import repro.controller
        import repro.core
        import repro.cpu
        import repro.dram
        import repro.energy
        import repro.experiments
        import repro.osmodel
        import repro.transform
        import repro.workloads


class TestPublicExports:
    def test_every_export_resolves_once(self):
        """A stale ``__all__`` entry breaks ``from <module> import *``."""
        checked = 0
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            checked += 1
            missing = [name for name in names if not hasattr(module, name)]
            assert not missing, f"{info.name}.__all__ lists {missing}"
            assert len(set(names)) == len(names), (
                f"{info.name}.__all__ lists a name twice")
        assert checked >= 30
