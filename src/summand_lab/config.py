"""Centralized numeric tolerances shared by every module."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance knobs for the whole package.

    structural: identities expected to hold in exact arithmetic up to
        double rounding (characteristic-function algebra, parameter maps).
    exact_stat: verdict threshold for statistics computed in exact
        arithmetic (Lindeberg sums on discrete rows, drift sums).
    coarse_stat: verdict threshold for pre-weak-distance or mass-gap
        statistics.
    """

    structural: float = 1e-12
    exact_stat: float = 1e-3
    coarse_stat: float = 1e-2


DEFAULT_TOLERANCES = ToleranceConfig()
