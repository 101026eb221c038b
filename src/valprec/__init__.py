"""Value-precedence symmetry breaking for finite-domain and set models.

The package is organized as: a small trailing propagation engine with its
one filter, the ternary table (engine), the first-occurrence ordering
encodings built on ternary chains (precedence), symmetry group descriptions
(symmetry), a brute-force referee (oracle), DFS search (search), equivalence
fuzzing (fuzz), witness checks (verify), and the Schur benchmark (schur, cli).
"""
from .engine import (IntVar, Model, PropagationStatus, Propagator, SetVar,
                     TernaryTable)
from .precedence import (TRANSITION_CAP, ChainEncoding, MatrixEncoding,
                         SurjectionEncoding,
                         encode_all_precedence, encode_increasing_seq,
                         encode_matrix_precedence, encode_pair_precedence,
                         encode_partial_precedence, encode_puget_surjection,
                         encode_reflection_lex, encode_rotation_lex,
                         encode_set_precedence, encode_wreath_precedence,
                         post_binary_relation, post_exactly_one,
                         post_lex_chain, post_lex_leq, post_state_chain)
from .symmetry import (FullInterchange, PairInterchange, PartitionInterchange,
                       SymmetrySpec, WreathInterchange, assignment_orbit,
                       value_permutations, variable_permutations)
from .oracle import (enumerate_orbits, enumerate_solutions, gac_by_definition,
                     iterated_gac)
from .search import Budget, Heuristic, SearchResult, SearchStats, solve
from .schur import (ReportRow, SchurInstance, build_schur_model, format_table,
                    run_one, sum_triples, write_csv)
from .verify import TheoremReport, verify_theorems
from .fuzz import FuzzReport, fuzz_equivalence

__version__ = "0.1.0"
