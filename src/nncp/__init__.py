"""Minimum-SWAP routing of quantum circuits on restricted couplings.

The pipeline: parse/decompose a circuit into two-qubit gates, build the
coupling graph and its automorphisms, quotient the layered search graph by
the combined qubit/location symmetry, solve the reduced model by one BFS
pass per gate on the quotient, and replay the path as a concrete SWAP
schedule, then verify it.
"""

from .baseline import reynolds_check, solve_spp
from .circuit import (Circuit, FixingPattern, RawGate, decompose, fixing_pattern,
                      gate_graph, parse_real)
from .coupling import (AutGroup, CouplingGraph, canonical_right,
                       coupling_from_descriptor, make)
from .dp import DpTable, solve_star_dp, star_solution
from .errors import (CapError, NncpError, ParseError, SolverError,
                     VerificationError)
from .generate import random_class_i, random_class_ii, to_real
from .lp import (GnfpModel, LinearProgram, LpSolution, ReducedPath,
                 build_gnfp, build_rspp_scaled, gnfp_lp, simplex_solve,
                 solve_reduced, write_lp)
from .perm import compose, inverse, one_line_str, pair, swap
from .reconstruct import NncpSolution, reconstruct, verify
from .symmetry import (BTau, OrbitNode, QuotientGraph, b_tau, canonical_form,
                       layer_orbits, quotient_graph, reduction_stats)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
