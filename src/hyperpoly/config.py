"""The sampling horizon: the one run-wide setting.

A statement about a sequence holds when it holds at every sufficiently late
index; the horizon is how late the window heuristics and the sampling oracle
look.  It defaults to ``HORIZON``, ``HYPERPOLY_HORIZON`` overrides that, and
the command line's ``--horizon`` overrides both.  The window thresholds
are constants next to the code that reads them (``hypernum``), command-only
options keep their single default in the argument parser, and nothing in the
package reads ambient entropy: randomized procedures take an explicit seed.
"""

from __future__ import annotations

import os

# sampling window for eventual-truth verdicts
HORIZON = 64


def default_horizon() -> int:
    """``HORIZON``, or ``HYPERPOLY_HORIZON`` when it is set."""
    env = os.environ.get("HYPERPOLY_HORIZON")
    if env is None:
        return HORIZON
    try:
        h = int(env)
    except ValueError:
        raise ValueError(f"HYPERPOLY_HORIZON must be an integer, got {env!r}")
    if h < 1:
        raise ValueError("HYPERPOLY_HORIZON must be >= 1")
    return h
