"""Outcome rates, forecast-error metrics, and the one-sided two-sample
z proportion test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class TestResult:
    z: float
    p: float


def rates(tally: dict) -> dict:
    """Outcome rates of a dict of ``n_total`` and its four outcome counts
    (other keys are ignored); each rate is None when the tally is empty."""
    n = tally["n_total"]
    counts = {"stranding_rate": tally["n_stranded"], "success_rate": tally["n_success"],
              "timeout_rate": tally["n_timeout"], "left_rate": tally["n_left_region"]}
    parts = sum(counts.values())
    if parts != n:
        raise ParameterError(f"outcome counts sum to {parts}, expected n_total={n}")
    return {name: k / n if n else None for name, k in counts.items()}


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal, accurate deep into the tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def z_prop_test(k_base: int, n_base: int, k_alt: int, n_alt: int) -> TestResult:
    """One-sided two-sample z proportion test.

    Tests whether the base proportion exceeds the alternative's; small p
    means the base rate is significantly larger.
    """
    if n_base < 1 or n_alt < 1:
        raise ParameterError("sample sizes must be >= 1")
    if not (0 <= k_base <= n_base and 0 <= k_alt <= n_alt):
        raise ParameterError("counts must satisfy 0 <= k <= n")
    pooled = (k_base + k_alt) / (n_base + n_alt)
    if pooled in (0.0, 1.0):
        raise DegenerateInputError("pooled proportion is degenerate (0 or 1)")
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_base + 1.0 / n_alt))
    z = (k_base / n_base - k_alt / n_alt) / se
    return TestResult(z=z, p=normal_sf(z))


def vector_rmse(true_vels, forecast_vels) -> float:
    """Root mean squared magnitude of the vector difference, in m/s."""
    tv = np.asarray(true_vels, dtype=float)
    fv = np.asarray(forecast_vels, dtype=float)
    if tv.size == 0:
        raise DegenerateInputError("vector_rmse requires at least one sample")
    if tv.shape != fv.shape or tv.shape[-1] != 2:
        raise ParameterError("inputs must be matching (..., 2) arrays")
    d = (tv - fv).reshape(-1, 2)
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))
