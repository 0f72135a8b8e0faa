"""Shot-frugal QAOA for MaxCut at exact-simulation scale.

The optimization target is the cut value of the sampling mode rather than the
expectation, shots per point are allocated adaptively under a mode-stability
plus variance gate, and the search runs a tree-structured Parzen estimator.
Fixed-shot expectation baselines, an optional probability-amplification stage,
and a resource-accounting benchmark harness round out the package.
"""

from .baselines import (GdConfig, fixed_shot_expectation_eval, optimize_exp_bo,
                        optimize_exp_gd, parameter_shift_gradient)
from .bo import (RunResult, Trial, optimize_map_bo, search_bounds, should_stop,
                 split_good_bad, suggest)
from .estimators import (Counts, EvalStats, compute_stats, dual_gate,
                         expectation_estimate, mode_confidence, mode_of,
                         normalized_cut_variance)
from .graph import (MaxCutInstance, assign_weights, brute_force_optimum,
                    complete_graph, cut_values_table, index_to_bits,
                    random_regular, with_optimum)
from .resources import (ResourceLedger, aux_accuracies, build_report,
                        final_mode_accuracy, saving_ratios, shots_to_threshold)
from .shots import AdaptiveConfig, PointEvaluation, evaluate_point, next_batch
from .simulator import (GateShift, NoiseSpec, QaoaParams, TargetReader,
                        apply_depolarizing, distribution, evolve,
                        exact_expectation, outcome_distribution, sample)
from .stage2 import (AmplifyConfig, amplify, exact_gradient,
                     randomized_shift_gradient, target_probability)

__version__ = "0.1.0"
