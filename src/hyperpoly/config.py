"""Run-wide tunables read by the window heuristics and the sampling oracle.

``Config`` holds the sampling horizon and the numeric-tier thresholds; the
horizon can be overridden by ``HYPERPOLY_HORIZON`` and then by ``--horizon``.
Command-only options (``--order``, ``--radius``, ``--samples``, ``--seed``,
``zeros --tol``) keep their single default in the argument parser, and the
root finder keeps its own iteration defaults.  Nothing in the package reads
ambient entropy: randomized procedures take an explicit seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # sampling window for eventual-truth verdicts
    horizon: int = 64
    # numeric-tier magnitude heuristics (window = [1, horizon])
    infinitesimal_tol: float = 1e-9      # |value| below this on the last quarter
    growth_ratio: float = 2.0            # sustained |v[i+1]/v[i]| above this => infinite
    bounded_cap: float = 1e9             # window max below this => bounded evidence
    # convergence tolerance of numeric standard parts
    tol: float = 1e-9


def default_config() -> Config:
    """Config with the stock horizon, honouring HYPERPOLY_HORIZON if set."""
    env = os.environ.get("HYPERPOLY_HORIZON")
    if env is not None:
        try:
            h = int(env)
        except ValueError:
            raise ValueError(f"HYPERPOLY_HORIZON must be an integer, got {env!r}")
        if h < 1:
            raise ValueError("HYPERPOLY_HORIZON must be >= 1")
        return Config(horizon=h)
    return Config()


DEFAULT = Config()
