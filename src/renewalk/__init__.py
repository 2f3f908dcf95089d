"""renewalk: exact and Monte Carlo laws of stopped discrete-time renewal
processes and the lattice random walks they generate."""

from . import errors, laws, montecarlo, ness, renewal, series, stopped, walks
from .laws import (
    INFINITY,
    DefectiveGeometric,
    DefectiveSibuya,
    Geometric,
    PowerLawBernstein,
    ShiftedPoisson,
    Sibuya,
    Tabulated,
    WaitingLaw,
    dcm_verify,
    parse_law,
)
from .montecarlo import SimConfig
from .ness import (
    NessCurve,
    laplace_curve,
    lattice_ness,
    ness_scale,
    one_sided_exp_curve,
    stable_density,
    stable_mixture_curve,
)
from .renewal import StateTable, count_moments, limit_state_law, state_table, survival_series
from .stopped import (
    AsymptoticSummary,
    StoppedSpec,
    bernoulli_stops_bernoulli,
    bernoulli_stops_sibuya,
    dbp_stops_bernoulli,
    geometric_stop_asymptotics,
    never_stop_prob,
    poisson_stop,
    stopped_moments,
    stopped_state_table,
)
from .walks import (
    PropagatorGrid,
    StepLaw,
    char_fn,
    hypercubic_walk,
    line_walk,
    propagator,
    triangular_msd,
    triangular_walk,
    walk_moments,
)

__version__ = "0.1.0"
