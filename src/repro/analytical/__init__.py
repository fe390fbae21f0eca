"""Pure-analytical contention estimation (the paper's baseline).

The baseline applies the *same* contention models as the hybrid kernel,
but once over the whole runtime with average rates instead of piecewise
over timeslices with observed demands — the comparison the paper is
built around.
"""

from .characterize import ThreadProfile, characterize
from .whole_run import WholeRunEstimate, estimate_queueing

__all__ = ["ThreadProfile", "WholeRunEstimate", "characterize",
           "estimate_queueing"]
