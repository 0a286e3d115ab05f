"""The package's public names."""

from dataclasses import fields

import diffdag as dd


def test_all_is_sorted_unique_and_resolves():
    assert dd.__all__ == sorted(set(dd.__all__))
    for name in dd.__all__:
        assert getattr(dd, name) is not None, name


def test_deleted_names_stay_gone():
    assert "IncoherenceReport" not in dd.__all__
    assert not hasattr(dd.estimators, "IncoherenceReport")
    # used only inside sem, by CovariancePair.from_data
    assert "empirical_covariance" not in dd.__all__
    assert not hasattr(dd, "empirical_covariance")


def test_unneeded_members_stay_gone():
    assert not hasattr(dd.DagEdgeSet, "children")
    assert not hasattr(dd.CovariancePair, "is_population")
    assert not hasattr(dd.SemPairGenConfig, "to_json")
    assert not hasattr(dd.sem, "sem_to_json")
    assert not hasattr(dd.sem, "sem_from_json")


def test_config_fields_are_pinned():
    # the trace, the prune cap and the HiGHS limits are not settings
    assert [f.name for f in fields(dd.PipelineConfig)] == ["estimator", "est_cfg"]
    assert [f.name for f in fields(dd.EstimatorConfig)] == [
        "lambda_n", "epsilon", "lambda_auto", "lambda_scale"
    ]
