"""Gonality bounds for graphs via chip-firing, edge expansion and spectral gaps.

The library computes:

* exact gonality certificates on small graphs (exhaustive divisor search
  backed by Dhar's burning algorithm),
* lower bounds from edge expansion (separator/Cheeger grids) and from the
  algebraic connectivity,
* the genus and independence upper bounds,
* configuration-model experiments on random regular multigraphs.

All exact quantities (Cheeger ratios, grid bounds) are kept as
`fractions.Fraction`; spectral quantities carry certified error intervals.
"""

from gonlab.graph import Multigraph, load_graph, named_graph, laplacian, genus, components
from gonlab.divisor import Divisor, fire_vertex, fire_set, is_equivalent, canonical_divisor
from gonlab.reduction import BurnResult, dhar_burn, v_reduce, has_positive_rank, rank_at_least
from gonlab.gonality import (
    GonalityCertificate,
    GonalityBracket,
    exact_gonality,
    genus_upper_bound,
    independence_upper_bound,
)
from gonlab.expansion import (
    CheegerProfile,
    SeparatorCertificate,
    edge_boundary,
    cheeger_profile,
    b_u,
)
from gonlab.spectral import SpectralSummary, algebraic_connectivity, spectral_gonality_bound
from gonlab.bounds import BoundReport, grid_rows, separator_grid_bound, cheeger_grid_bound, full_report
from gonlab.randgraph import ConfigModelParams, ExperimentRecord, sample_configuration, run_experiment
from gonlab.budget import SearchBudget, BudgetExceededError

__version__ = "0.1.0"
