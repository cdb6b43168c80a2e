"""The dense limit is one attribute: ``repro.sources.base.DENSE_LIMIT_BITS``.

Every guard reads it at call time, so patching that one attribute moves the
backend policy, the record backends' width checks, the cost model's root
guard and the dataset's table build together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.domain import Dataset, Schema
from repro.exceptions import DomainSizeError
from repro.plan.cost import cost_marginal_batches
from repro.plan.lattice import MarginalBatch
from repro.shards import ShardedRecordSource
from repro.sources import RecordSource, base, select_backend
from repro.store import open_source, write_source

LIMIT = 4
D = 8


def test_one_patch_moves_every_guard(monkeypatch, tmp_path):
    codes = np.arange(200, dtype=np.int64)
    write_source(tmp_path / "source", codes, dimension=D, shards=2)
    monkeypatch.setattr(base, "DENSE_LIMIT_BITS", LIMIT)

    assert select_backend(LIMIT, "auto") == "dense"
    assert select_backend(LIMIT + 1, "auto") == "record"

    sources = {
        "record": RecordSource(codes, dimension=D),
        "sharded": ShardedRecordSource(codes, dimension=D, shards=2, workers=1),
        "mapped": open_source(tmp_path / "source", workers=1),
    }
    at_limit, over_limit = (1 << LIMIT) - 1, (1 << (LIMIT + 1)) - 1
    # The root is cheaper than its two direct passes, so only the width
    # guard keeps the cost model from choosing it.
    batch = MarginalBatch(root=over_limit, members=(0b11, 0b11100))
    for kind, source in sources.items():
        assert source.marginal(at_limit).shape == (1 << LIMIT,), kind
        with pytest.raises(DomainSizeError):
            source.marginal(over_limit)
        (cost,) = cost_marginal_batches(source, [batch])
        assert cost.root_cost < cost.direct_cost, kind
        assert not cost.use_root, kind

    narrow = Schema.binary([f"a{i}" for i in range(LIMIT)])
    table = Dataset(narrow, np.zeros((2, LIMIT), dtype=np.int64)).contingency_table()
    assert table.counts.shape == (1 << LIMIT,)
    wide = Schema.binary([f"a{i}" for i in range(LIMIT + 1)])
    with pytest.raises(DomainSizeError):
        Dataset(wide, np.zeros((2, LIMIT + 1), dtype=np.int64)).contingency_table()
