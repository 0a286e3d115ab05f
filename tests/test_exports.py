"""The package's public names."""

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
