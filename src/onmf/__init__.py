"""Streaming NMF for Markov-dependent data and network dictionary learning."""

__version__ = "0.1.0"

from .factorization import (AggregateStats, ConstraintPiece, ConstraintSpec,
                            Dictionary, OnlineNMF, StepResult, WeightSchedule,
                            ZeroDictionaryError, coding_objective,
                            dictionary_update, ellipsoid_gap, empirical_loss,
                            empirical_weights, growth_check, init_dictionary,
                            init_engine, kkt_residual, learn, load_aggregates,
                            load_dictionary, save_aggregates, save_dictionary,
                            sparse_code, surrogate_loss, update_aggregates)
from .ndl import (CORRUPTION_MODES, CorruptionError, CorruptionResult,
                  DegenerateAggregatesError, NDLParams, NetworkDictionary,
                  ReconstructionState, RocError, RocResult, candidate_pairs,
                  corrupt_network, denoise_classify, dominance_scores,
                  folds_chain_entries, lower_tail_is_positive, ndl_learn,
                  nr_reconstruct, roc_auc)
from .networks import (EdgeListError, MotifChain, Network, OracleSizeError,
                       SamplingError, chain_update, glauber_conditional,
                       hom_distribution_bruteforce, hom_weights,
                       initial_homomorphism, mesoscale_patch,
                       sample_homomorphisms, tv_distance)
from .pgm import (PgmError, read_pgm, read_spins_pgm, spins_to_levels,
                  write_pgm, write_spins_pgm)
from .sources import (IsingConfig, conditional_plus_probability,
                      image_patch_stream, ising_gibbs_run, ising_gibbs_step,
                      ising_patch_stream, reconstruct_grid,
                      spin_patch_minibatch)
