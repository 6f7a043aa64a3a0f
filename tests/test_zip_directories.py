"""`paa._keep_zip_directories`: an unchanged zip archive on ``sys.path`` is not
re-read by ``importlib.invalidate_caches()``; a changed or missing one takes
CPython's own path. The last test checks that the guard is active inside the
Spark tasks of every executor kernel; the others need no Spark."""
from __future__ import annotations

import importlib
import importlib.util
import sys
import zipfile
import zipimport

import pytest

from repro.baselines.dss import dss_knn
from repro.baselines.tardis import build_tardis
from repro.core import index, paa, query
from tests.conftest import BASELINE_KW, K_SMALL, SMALL_PARAMS


def write_zip(path, *names):
    """A zip archive at ``path`` holding one module per name."""
    with zipfile.ZipFile(path, "w") as z:
        for name in names:
            z.writestr(f"{name}.py", f"NAME = {name!r}\n")


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """An archive of two modules on ``sys.path``, imported through a
    ``zipimporter`` once and invalidated once (so its stamp is taken); yields
    ``(path, prefix)``, then forgets its importer and every module named
    ``prefix*``."""
    prefix = f"zipguard_{tmp_path.name}_"
    path = tmp_path / "mods.zip"
    write_zip(path, prefix + "a", prefix + "b")
    monkeypatch.syspath_prepend(str(path))
    assert importlib.import_module(prefix + "a").NAME == prefix + "a"
    assert isinstance(sys.path_importer_cache[str(path)], zipimport.zipimporter)
    importlib.invalidate_caches()
    yield path, prefix
    sys.path_importer_cache.pop(str(path), None)
    for name in [m for m in sys.modules if m.startswith(prefix)]:
        del sys.modules[name]


@pytest.fixture
def reads(monkeypatch):
    """Counts the archive directories ``zipimport`` reads."""
    seen = []
    stock = zipimport._read_directory

    def counting(path):
        seen.append(path)
        return stock(path)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    return seen


def test_unchanged_archive_is_not_reread(archive, reads):
    path, prefix = archive
    importlib.invalidate_caches()
    importlib.invalidate_caches()
    assert str(path) not in reads
    assert importlib.import_module(prefix + "b").NAME == prefix + "b"


def test_added_member_imports_after_invalidation(archive, reads):
    path, prefix = archive
    write_zip(path, prefix + "a", prefix + "b", prefix + "c")
    importlib.invalidate_caches()
    assert reads.count(str(path)) == 1
    assert importlib.import_module(prefix + "c").NAME == prefix + "c"


def test_deleted_archive_falls_back_to_stock(archive):
    path, prefix = archive
    path.unlink()
    importlib.invalidate_caches()  # does not raise
    assert str(path) not in zipimport._zip_directory_cache
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(prefix + "b")


def test_second_import_does_not_wrap_again():
    guard = zipimport.zipimporter.invalidate_caches
    assert hasattr(guard, "__wrapped__")
    spec = importlib.util.spec_from_file_location("paa_again", paa.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert zipimport.zipimporter.invalidate_caches is guard
    assert not hasattr(guard.__wrapped__, "__wrapped__")


def test_nothing_installed_without_the_directory_cache(monkeypatch):
    stock = zipimport.zipimporter.invalidate_caches.__wrapped__
    monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches", stock)
    monkeypatch.delattr(zipimport, "_zip_directory_cache")
    paa._keep_zip_directories()
    assert zipimport.zipimporter.invalidate_caches is stock


KERNELS = {
    "climber build": lambda spark, df, out, Q, idx: index.build_index(spark, df, out, SMALL_PARAMS),
    "baseline build": lambda spark, df, out, Q, idx: build_tardis(df, out, **BASELINE_KW),
    "knn_scan": lambda spark, df, out, Q, idx: idx.knn_batch(spark, Q, K_SMALL),
    "dss_knn": lambda spark, df, out, Q, idx: dss_knn(df, Q, K_SMALL),
}
# The task bodies each kernel's jobs run: `paa.map_batch` (both builds'
# sample and Step 4's spill), `index.write_pid` (Step 4's gather and write)
# and `query.scan_batch`.
PROBED = {
    "climber build": ("map_batch", "write_pid"),
    "baseline build": ("map_batch", "write_pid"),
    "knn_scan": ("scan_batch",),
    "dss_knn": ("scan_batch",),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_active_in_executor_tasks(spark, small_df, queries, climber_index, tmp_path, monkeypatch, kernel):
    """Each call of a task body of the kernel's Spark jobs finds the guard
    installed in its worker, and every body the kernel runs is called."""
    sc = spark.sparkContext
    calls = {name: sc.accumulator(0) for name in PROBED[kernel]}
    guarded = sc.accumulator(0)

    def probed(name, fn):
        def call(*args):
            import zipimport

            calls[name].add(1)
            guarded.add(int(hasattr(zipimport.zipimporter.invalidate_caches, "__wrapped__")))
            return fn(*args)
        return call

    map_batch = probed("map_batch", paa.map_batch)
    for module in (paa, index):
        monkeypatch.setattr(module, "map_batch", map_batch)
    monkeypatch.setattr(index, "write_pid", probed("write_pid", index.write_pid))
    monkeypatch.setattr(query, "scan_batch", probed("scan_batch", query.scan_batch))
    KERNELS[kernel](spark, small_df, str(tmp_path / "idx"), queries[1], climber_index)
    assert all(c.value > 0 for c in calls.values())
    assert guarded.value == sum(c.value for c in calls.values())
