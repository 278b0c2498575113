"""Oriented triple-crossing diagrams in the disk: construction,
rewriting, domino duality and cluster exchange."""

from .diagram import TripleDiagram, Matching, Face, DiagramError, empty_diagram
from .standard import standard_diagram, minimal_crossing_count, STRATEGIES
from .moves import (TwoTwoSite, OneZeroSite, Move, MoveLog, MoveError,
                    Badgon, find_22_sites, find_10_sites,
                    apply_22, apply_10, apply_01, drop_loop, add_loop,
                    find_badgons, is_minimal, replay)
from .reduce import (straighten, to_standard, reduce_to_minimal,
                     connect_minimal, slide_macro, pattern_template,
                     inflate, ReductionError)
from .movegraph import (MoveGraph, enumerate_component, brute_force_minimal,
                        verify_theorem2, enumerate_connected_diagrams,
                        GuardExceeded)
from .domino import (Region, Tiling, enumerate_tilings, find_flips,
                     apply_flip, tiling_to_diagram, flips_commute_with_22)
from .cluster import (ClusterState, LaurentValue, init_cluster, exchange_22,
                      laurent_audit, random_walk, ExactDivisionError)

__version__ = "0.1.0"
