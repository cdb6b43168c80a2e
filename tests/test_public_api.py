"""Public API surface tests.

These guard the names exported from ``repro`` (the ones README and the
examples rely on) so refactors cannot silently break downstream users.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import repro


EXPECTED_EXPORTS = [
    "Attribute",
    "Schema",
    "Dataset",
    "ContingencyTable",
    "CountSource",
    "DenseCubeSource",
    "RecordSource",
    "as_count_source",
    "MarginalQuery",
    "MarginalWorkload",
    "all_k_way",
    "star_workload",
    "anchored_workload",
    "datacube_workload",
    "PrivacyBudget",
    "GroupSpec",
    "NoiseAllocation",
    "optimal_allocation",
    "uniform_allocation",
    "Strategy",
    "IdentityStrategy",
    "MarginalSetStrategy",
    "FourierStrategy",
    "ClusteringStrategy",
    "ExplicitMatrixStrategy",
    "query_strategy",
    "make_strategy",
    "fourier_consistency",
    "make_consistent",
    "MarginalReleaseEngine",
    "ReleaseResult",
    "release_marginals",
    "table1_bounds",
]


class TestTopLevelExports:
    @pytest.mark.parametrize("name", EXPECTED_EXPORTS)
    def test_name_is_exported(self, name):
        assert hasattr(repro, name), f"repro.{name} missing from the public API"
        assert name in repro.__all__

    def test_all_matches_attributes(self):
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_version_is_defined_once(self):
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = tomllib.loads(text)
        assert "version" not in project["project"]
        assert "version" in project["project"]["dynamic"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert repro.__version__ not in text


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.domain",
            "repro.queries",
            "repro.transforms",
            "repro.mechanisms",
            "repro.budget",
            "repro.strategies",
            "repro.recovery",
            "repro.core",
            "repro.analysis",
            "repro.data",
            "repro.cli",
            "repro.exceptions",
            "repro.utils",
        ],
    )
    def test_module_imports_cleanly(self, module):
        importlib.import_module(module)

    def test_exceptions_share_base_class(self):
        from repro import exceptions

        subclasses = [
            exceptions.SchemaError,
            exceptions.DomainSizeError,
            exceptions.WorkloadError,
            exceptions.PrivacyError,
            exceptions.BudgetError,
            exceptions.GroupingError,
            exceptions.RecoveryError,
            exceptions.ConsistencyError,
            exceptions.DataError,
        ]
        for subclass in subclasses:
            assert issubclass(subclass, exceptions.ReproError)

    def test_data_namespace(self):
        from repro import data

        for name in (
            "synthetic_adult",
            "synthetic_nltcs",
            "load_adult_csv",
            "load_nltcs_csv",
            "load_csv",
            "ADULT_SCHEMA",
            "NLTCS_SCHEMA",
        ):
            assert hasattr(data, name)

    def test_docstrings_on_public_entry_points(self):
        """Every public callable re-exported at the top level is documented."""
        for name in EXPECTED_EXPORTS:
            attr = getattr(repro, name)
            if callable(attr):
                assert attr.__doc__, f"repro.{name} has no docstring"
