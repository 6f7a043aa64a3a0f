"""Build-level properties shared by the iSAX baselines (TARDIS, DPiSAX)."""
import pytest
from pyspark.sql import functions as F

from repro.baselines.dpisax import build_dpisax
from repro.baselines.tardis import build_tardis
from tests.conftest import BASELINE_KW

BUILDERS = {"tardis": build_tardis, "dpisax": build_dpisax}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_rows_any_split_same_index(name, small_df, queries, tmp_path):
    """The α-sample is drawn by id, so the input's partitioning does not
    change the partition sizes or any query's plan."""
    _, Q = queries
    built = [
        BUILDERS[name](small_df.repartition(ways), str(tmp_path / str(ways)), **BASELINE_KW)
        for ways in (3, 7)
    ]
    a, b = built
    assert a.pid_counts == b.pid_counts
    assert sum(a.pid_counts.values()) == small_df.count()
    assert a.plans(Q) == b.plans(Q)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_affine_copy_same_index(name, request, small_df, queries, tmp_path):
    """The sample, the stored rows and the queries all take their iSAX words
    of the z-normalised series, so the router is built from the words the
    data gets, and ``3·x + 5`` builds the index ``x`` does."""
    _, Q = queries
    affine = small_df.select("id", F.transform("series", lambda v: v * 3 + 5).alias("series"))
    a = request.getfixturevalue(f"{name}_index")
    b = BUILDERS[name](affine, str(tmp_path / "affine"), **BASELINE_KW)
    assert b.pid_counts == a.pid_counts
    assert b.plans(Q) == a.plans(Q)
