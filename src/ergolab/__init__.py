"""ergolab: a numerical laboratory for admissible weight sequences,
weighted strong laws of large numbers, and one-sided ergodic Hilbert
transforms with modulated and random coefficients.
"""

__version__ = "0.1.0"

from .weights import (INDEX_CAP, GapSeq, Schedule, WeightExpr, WeightSeq,
                      WeightSyntaxError, asymptotic_class, parse_weight,
                      twisted_weight)
from .admissibility import (LADDER, AdmissibilityReport, bertrand_converges,
                            check_1RT1, check_admissible, check_full_W1,
                            check_rrr, check_T21, check_weak_admissible,
                            series_report)
from .operators import (Cocycle, LinearOperator, SampleSpace, Transformation,
                        VectorField, character_field, operator_from_json,
                        operator_norm, random_field, skew_operator)
from .transforms import (BoundReport, KMeasurement, ModulationSeq,
                         OpNormReport, RearrangementResult, TransformTrace,
                         I_majorant, circle_column_sups, circle_prefix_rows,
                         gamma_tail, hilbert_partial, hilbert_trace,
                         interpolation_bound, interpolation_bound_check,
                         measure_K, modulated_poly, opnorm_series,
                         rearrangement_and_I, sigma_grid, twisted_bound_check,
                         weighted_series)
from .stochastics import (AEDiagnosis, MCEstimate, RandomModulation,
                          ae_convergence_diag, canonical_hash, random_hilbert,
                          random_sup_stat, slln_chain, slln_diagnosis)
from .registry import (EXAMPLE_IDS, ExampleInstance, check_t8, check_t41,
                       check_t44, example_instance, random_hilbert_e5)

__all__ = [
    "__version__",
    "INDEX_CAP", "GapSeq", "Schedule", "WeightExpr", "WeightSeq",
    "WeightSyntaxError", "asymptotic_class", "parse_weight", "twisted_weight",
    "LADDER", "AdmissibilityReport", "bertrand_converges", "check_1RT1",
    "check_admissible", "check_full_W1", "check_rrr", "check_T21",
    "check_weak_admissible", "series_report",
    "Cocycle", "LinearOperator", "SampleSpace", "Transformation",
    "VectorField", "character_field", "operator_from_json", "operator_norm",
    "random_field", "skew_operator",
    "BoundReport", "KMeasurement", "ModulationSeq", "OpNormReport",
    "RearrangementResult", "TransformTrace", "I_majorant",
    "circle_column_sups", "circle_prefix_rows", "gamma_tail",
    "hilbert_partial", "hilbert_trace", "interpolation_bound",
    "interpolation_bound_check", "measure_K", "modulated_poly",
    "opnorm_series", "rearrangement_and_I", "sigma_grid",
    "twisted_bound_check", "weighted_series",
    "AEDiagnosis", "MCEstimate", "RandomModulation", "ae_convergence_diag",
    "canonical_hash", "random_hilbert", "random_sup_stat", "slln_chain",
    "slln_diagnosis",
    "EXAMPLE_IDS", "ExampleInstance", "check_t8", "check_t41", "check_t44",
    "example_instance", "random_hilbert_e5",
]
