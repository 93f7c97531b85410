"""Dynamics of deleted covering correspondences on the Riemann sphere.

Core surfaces:

* sphere / roots / rational: numeric substrate (two-chart sphere points,
  chordal metric, root clustering, critical points); a polynomial in one
  variable is an ascending complex coefficient array;
* correspondence: graph polynomials, multivalued fibers, composition,
  ramification;
* families: the one-parameter involution-covering family, compositions of
  two coverings, the involution/quadratic dictionary, Klein pair checking;
* measures: Dirac pullback clouds, energy distance, partition entropy;
* entropy: orbit level trees, separated-orbit counting (both conventions
  from one pair propagation) and entropy estimation;
* cli: the `corrdyn` command.
"""

from .correspondence import (
    Correspondence,
    compose,
    compose_graph_poly,
    cov_graph,
    critical_values,
    deleted_covering,
    identity_correspondence,
    is_on_graph,
    map_graph,
    mobius_correspondence,
    ramification_points,
)
from .entropy import EntropyProtocol, EntropyReport, entropy_estimate, enumerate_orbits, gromov_cap
from .errors import CorrdynError
from .families import (
    FamilyParameterA,
    RegionSpec,
    composed_covering_pair,
    exceptional_seeds,
    family_correspondence,
    family_involution,
    fixed_point_branch_coefficients,
    involution_to_quadratic,
    klein_pair_check,
    quadratic_to_involution,
)
from .graphpoly import GraphPolynomial
from .measures import (
    GridPartition,
    WeightedCloud,
    brolin_cloud,
    energy_distance,
    metric_entropy_estimate,
    partition_entropy,
    pullback_dirac_mc,
    pullback_dirac_tree,
    pushforward_mobius,
)
from .rational import (
    MobiusMap,
    RationalMap,
    critical_points,
    mobius_apply,
    mobius_is_involution,
    polynomial_map,
    rational_eval,
)
from .roots import poly_roots
from .sphere import SpherePoint, chordal_distance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
