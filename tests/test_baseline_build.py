"""Build-level properties shared by the iSAX baselines (TARDIS, DPiSAX)."""
import pytest

from repro.baselines.dpisax import build_dpisax
from repro.baselines.tardis import build_tardis
from tests.conftest import SMALL_PARAMS

BUILDERS = {"tardis": build_tardis, "dpisax": build_dpisax}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_same_rows_any_split_same_index(name, spark, small_df, queries, tmp_path):
    """The α-sample is drawn by id, so the input's partitioning does not
    change the partition sizes or any query's plan."""
    _, Q = queries
    built = [
        BUILDERS[name](spark, small_df.repartition(ways), str(tmp_path / str(ways)),
                       w=SMALL_PARAMS.w, capacity=SMALL_PARAMS.capacity,
                       alpha=SMALL_PARAMS.alpha, seed=SMALL_PARAMS.seed)
        for ways in (3, 7)
    ]
    a, b = built
    assert a.pid_counts == b.pid_counts
    assert sum(a.pid_counts.values()) == small_df.count()
    assert a.plans(Q) == b.plans(Q)
