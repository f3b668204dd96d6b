"""Forward-time quantum control of bosonic modes at desk scale.

Symbolic Weyl-algebra closures, truncated Fock-space representations,
Trotter/group-commutator product formulas, and recurrence-based inversion of
forward-only evolutions, with certified plans and a batch CLI.
"""

from .weyl import (PolyOp, LieBasis, PropagationResult, q, p, const,
                   canonicalize, bracket, lie_closure, contains,
                   is_hermitian, is_skew_hermitian, as_hermitian, as_skew,
                   skew_generator, local_skew_generators,
                   skew_monomial_generators, algebraic_propagation_check,
                   enumerate_monomials)
from .fock import (TruncationSpec, TruncatedRep, represent, fock_state,
                   ground_state, normalize, random_interior_state, interior_mask)
from .propagate import (ControlSequence, Concat, Repeat, flatten, EvolutionTable,
                        expm_skew, expm_apply,
                        evolve, evolve_signed, trotter_sequence, realize_word,
                        trotter_errors, state_error, fidelity)
from .recurrence import (SpectralData, RecurrencePlan, InvertResult, RecurrenceInverter,
                         RecurrenceSearchError, SpectrumExhaustedError, GridReachError,
                         spectral, recurrence_distance, tail_cut,
                         tail_mass, tail_cut_energy, tail_cut_finite_net,
                         find_recurrence_time, plan_recurrence, invert,
                         polynomial_levels)
from .synth import (Gen, Sum, Bracket, Scale, SignedWord, CompileResult, ExactInverter,
                    CompileBudgetError, compile_sequence, verify,
                    reachability_report, build_word, expr_matrix,
                    expr_from_dict)
from .chains import (ChainSpec, ChainControllabilityReport,
                     coupling_hamiltonian, drift, control_system,
                     local_controls, chain_controllability, chain_demo)

__version__ = "0.1.0"
