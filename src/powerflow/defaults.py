"""Model names and default tolerances shared by the library and the CLI.

A leaf module: the CLI builds its argument parser from these values
without loading the dynamics and equilibrium modules.
"""

SINGLE_TIMESCALE = "st"
ORIGINAL_DF = "df"
MODELS = (SINGLE_TIMESCALE, ORIGINAL_DF)

#: Default step-delta convergence threshold.
EPS_CONV = 1e-12
DEFAULT_MAX_STEPS = 10**6

#: Step tolerance of the interior-equilibrium solver.
EPS_EQUILIBRIUM = 1e-13
#: Two centrality scores closer than this are treated as tied.
EPS_TIE = 1e-9
