"""Outcome statistics: proportions test and vector RMSE."""

import math

import numpy as np
import pytest

from driftplan.errors import DegenerateInputError, ParameterError
from driftplan.stats import (
    normal_sf,
    rates,
    vector_rmse,
    z_prop_test,
)


def _tally(n_total, n_success, n_stranded, n_timeout, n_left_region):
    return dict(n_total=n_total, n_success=n_success, n_stranded=n_stranded,
                n_timeout=n_timeout, n_left_region=n_left_region)


def test_tally_requires_consistent_counts():
    assert rates(_tally(10, 5, 2, 2, 1)) == {
        "stranding_rate": 0.2, "success_rate": 0.5, "timeout_rate": 0.2, "left_rate": 0.1}
    with pytest.raises(ParameterError):
        rates(_tally(10, 5, 2, 2, 2))
    with pytest.raises(ParameterError):
        rates(_tally(0, 0, 1, 0, 0))


def test_rates_reference_values():
    # 11/1146 and 54/1146 are the fleet stranding rates 0.96% and 4.71%
    t = _tally(1146, 1135, 11, 0, 0)
    assert rates(t)["stranding_rate"] * 100 == pytest.approx(0.96, abs=0.005)
    t = _tally(1146, 1092, 54, 0, 0)
    assert rates(t)["stranding_rate"] * 100 == pytest.approx(4.71, abs=0.005)


def test_rates_empty_tally():
    # no missions, or every one aborted: the counts other than the four are ignored
    assert rates({**_tally(0, 0, 0, 0, 0), "n_aborted": 3}) == {
        "stranding_rate": None, "success_rate": None, "timeout_rate": None, "left_rate": None}


def test_normal_sf_tail_accuracy():
    assert normal_sf(0.0) == pytest.approx(0.5, rel=1e-12)
    assert normal_sf(1.959963984540054) == pytest.approx(0.025, rel=1e-9)
    # deep tail stays accurate (no 1 - cdf cancellation)
    assert normal_sf(8.0) == pytest.approx(6.22096057427178e-16, rel=1e-6)


@pytest.mark.parametrize("k_alt,p_expect", [
    (11, 3.1e-8),
    (15, 9.3e-7),
    (22, 9.5e-5),
    (29, 2.6e-3),
])
def test_z_prop_test_reference_values(k_alt, p_expect):
    r = z_prop_test(54, 1146, k_alt, 1146)
    # match to 2 significant figures
    assert float(f"{r.p:.1e}") == pytest.approx(p_expect, rel=1e-9)


def test_z_prop_test_identical_proportions():
    r = z_prop_test(7, 100, 7, 100)
    assert r.z == 0.0
    assert r.p == 0.5


def test_z_prop_test_antisymmetry():
    a = z_prop_test(30, 200, 12, 150)
    b = z_prop_test(12, 150, 30, 200)
    assert a.z == pytest.approx(-b.z)
    assert a.p == pytest.approx(1.0 - b.p)


def test_z_prop_test_degenerate_pool():
    with pytest.raises(DegenerateInputError):
        z_prop_test(0, 10, 0, 20)
    with pytest.raises(DegenerateInputError):
        z_prop_test(10, 10, 20, 20)


def test_z_prop_test_validates_counts():
    with pytest.raises(ParameterError):
        z_prop_test(11, 10, 0, 10)
    with pytest.raises(ParameterError):
        z_prop_test(1, 0, 0, 10)


def test_vector_rmse_constant_offset():
    true = np.zeros((50, 2))
    fc = true + np.array([0.2, 0.0])
    assert vector_rmse(true, fc) == pytest.approx(0.2)


def test_vector_rmse_empty():
    with pytest.raises(DegenerateInputError):
        vector_rmse(np.empty((0, 2)), np.empty((0, 2)))


def test_p_value_line_is_monotone_in_separation():
    ps = [z_prop_test(54, 1146, k, 1146).p for k in (11, 15, 22, 29)]
    assert ps == sorted(ps)
    assert math.isclose(ps[0], 3.14e-8, rel_tol=0.05)
