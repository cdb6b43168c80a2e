"""Pins on what a release writes and prints, captured before the group
table refactor.

Three artefacts must not move when the plan and release internals change:

* ``plan_fingerprint`` — a checkpoint taken by one version must resume
  under the next, and the fingerprint is what binds it;
* the bytes of a stored release's ``meta.json`` (minus the wall-clock
  ``created_at`` and ``elapsed_seconds``) — stores written by one version
  are read by the next, and every float in them (group weights, budgets,
  the expected variance) must be the same to the last bit;
* the ``release --explain`` text.
"""

from __future__ import annotations

import csv
import hashlib
import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.engine import release_marginals
from repro.domain import Dataset, Schema
from repro.mechanisms import PrivacyBudget
from repro.plan import Planner
from repro.queries import all_k_way
from repro.resilience.checkpoint import plan_fingerprint
from repro.serving.store import ReleaseStore
from repro.strategies import make_strategy

FINGERPRINT_PINS = {
    "Q-pure": "54bfb2bb3512a2c6851ff5dbb7b48bbc33e1c0bcecdd5cc254fd1c391644f61e",
    "Q-gaussian-weighted": "923df95e6b779da24e90bc568d78afc17fb577995895278e2c821eae475665f4",
}

META_PINS = {
    "Q-pure": "110beca5d54a0566548c24d22eddc5613c78976d789430859436dd22411b4255",
    "F-gaussian": "127859de55a4bb26fab7da1403ac8f6169a32d81e57dc776a8f498be0ad586f3",
    "C-weighted": "b9890375a076747d41ed7d59984475cf783071c495f961029648d61567af9da3",
}

EXPLAIN_TEXT = """\
workload          : Q2 (15 queries, 104 cells, d = 8)
strategy          : Q (marginal kernel)
privacy           : epsilon = 1 (optimal budgeting, laplace noise)
expected variance : 4.411e+04
seed policy       : single-stream: one vectorized draw over all measured cells in group order (bitwise-identical to sequential per-group draws from the same generator)

stage 1 — plan    : 15 groups, 104 strategy cells (104 measured)
stage 2 — execute : 3 batched subset-sum passes over 2**8 cells, 15 marginals derived from batch roots, one vectorized laplace draw over 104 cells
  batch   0      : root 0x3f (64 cells) -> 6 marginal(s) [root: est 640 cells (root 640 vs direct 1.54e+03)]
  batch   1      : root 0xde (64 cells) -> 5 marginal(s) [root: est 576 cells (root 576 vs direct 1.28e+03)]
  batch   2      : root 0xe1 (16 cells) -> 4 marginal(s) [root: est 320 cells (root 320 vs direct 1.02e+03)]
stage 3 — finalize: reconstruct per query + consistency projection (unless disabled)

per-group expected variance (weight x row variance):
  marginal-0x7             cells = 8        eta = 0.07132      variance = 3146
  marginal-0x19            cells = 8        eta = 0.07132      variance = 3146
  marginal-0x21            cells = 4        eta = 0.0566       variance = 2497
  marginal-0x41            cells = 4        eta = 0.0566       variance = 2497
  marginal-0x81            cells = 4        eta = 0.0566       variance = 2497
  marginal-0x1e            cells = 16       eta = 0.08985      variance = 3964
  marginal-0x26            cells = 8        eta = 0.07132      variance = 3146
  marginal-0x46            cells = 8        eta = 0.07132      variance = 3146
  marginal-0x86            cells = 8        eta = 0.07132      variance = 3146
  marginal-0x38            cells = 8        eta = 0.07132      variance = 3146
  marginal-0x58            cells = 8        eta = 0.07132      variance = 3146
  marginal-0x98            cells = 8        eta = 0.07132      variance = 3146
  ... 3 more groups (variance 7491)
data backend      : dense (auto: dense up to 2**26 cells, record-native above)
source layout     : one dense 2**8-cell count vector
"""


def _dataset() -> Dataset:
    schema = Schema.binary([f"b{i}" for i in range(7)])
    rng = np.random.default_rng(2022)
    records = (rng.random((600, 7)) < rng.random(7)).astype(np.int64)
    return Dataset(schema, records, name="pins")


def _weights(workload, *, zero: bool):
    weights = np.linspace(0.25, 3.0, len(workload))
    if zero:
        # A zero-weight query whose cluster gets no budget.  (A release
        # cannot answer it after consistency, so only plans use this.)
        weights[3] = 0.0
    return weights


CASES = {
    "Q-pure": ("Q", PrivacyBudget.pure(1.0), False),
    "Q-gaussian-weighted": ("Q", PrivacyBudget.approximate(0.8, 1e-6), True),
    "F-gaussian": ("F", PrivacyBudget.approximate(1.5, 1e-5), False),
    "C-weighted": ("C", PrivacyBudget.pure(0.7), True),
}


@pytest.mark.parametrize("case", sorted(FINGERPRINT_PINS))
def test_plan_fingerprint_pin(case):
    name, budget, weighted = CASES[case]
    dataset = _dataset()
    workload = all_k_way(dataset.schema, 2)
    strategy = make_strategy(name, workload)
    weights = _weights(workload, zero=True) if weighted else None
    planner = Planner(workload, strategy, query_weights=weights)
    source = dataset.as_source(backend="record")
    plan = planner.plan(budget, source=source)
    assert plan_fingerprint(plan, source) == FINGERPRINT_PINS[case]


def _stable_meta_bytes(text: str) -> bytes:
    """``meta.json`` with the two wall-clock fields cut out of the bytes."""
    text, created = re.subn(r'"created_at":[^,}]+,?', "", text)
    text, elapsed = re.subn(r'"elapsed_seconds":\{[^}]*\},?', "", text)
    assert created == 1 and elapsed == 1
    return text.encode("utf-8")


@pytest.mark.parametrize("case", sorted(META_PINS))
def test_stored_meta_json_pin(tmp_path, case):
    name, budget, weighted = CASES[case]
    dataset = _dataset()
    workload = all_k_way(dataset.schema, 2)
    release = release_marginals(
        dataset,
        workload,
        budget,
        strategy=name,
        query_weights=_weights(workload, zero=False) if weighted else None,
        rng=11,
    )
    store = ReleaseStore(tmp_path / "store")
    release_id = store.put(release)
    text = (store.root / release_id / "meta.json").read_text()
    digest = hashlib.sha256(_stable_meta_bytes(text)).hexdigest()
    assert digest == META_PINS[case]


def test_explain_text_pin(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = tmp_path / "survey.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smoker", "region", "income", "age", "sex", "urban"])
        for _ in range(200):
            writer.writerow(
                [
                    rng.choice(["yes", "no"]),
                    rng.choice(["north", "south", "east", "west"]),
                    rng.choice(["low", "mid", "high"]),
                    rng.choice(["young", "old"]),
                    rng.choice(["f", "m"]),
                    rng.choice(["y", "n"]),
                ]
            )
    argv = ["release", "--input", str(path), "--k", "2", "--strategy", "Q", "--explain"]
    assert main(argv) == 0
    assert capsys.readouterr().out == EXPLAIN_TEXT
