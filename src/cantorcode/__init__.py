"""Exact finite-scale block coding into clopen classes, plus labelled-tree reduction."""

from .bits import BitString, Dyadic, EMPTY, ONE, ZERO, dyadic_sum
from .clopen import (
    ApproxSequence,
    ClopenClass,
    PruneResult,
    PropertyVerdict,
    load_class,
    prune,
    save_class,
    verify_density_property,
    verify_extension_property,
)
from .coder import (
    CodePath,
    DecodeResult,
    EndToEndResult,
    WordTable,
    decode,
    encode,
    end_to_end,
    settle_words,
)
from .errors import CantorcodeError, InputError, InternalError, PreconditionError
from .labeltree import (
    Labelling,
    MeasureCondition,
    ReduceResult,
    SpliceStep,
    UTree,
    is_fully_labelable_bruteforce,
    labelling_from_reduction,
    load_tree,
    measure_condition_check,
    save_tree,
    splice_reduce,
    validate_labelling,
)
from .schedules import (
    RedundancyReport,
    Schedule,
    convergence_margin,
    oracle_use_bound,
    parse_schedule_spec,
    preset,
    redundancy_report,
)
from .analysis import (
    DensityRow,
    VtResult,
    density_threshold_experiment,
    left_sets,
    vt_construction,
)

__version__ = "0.1.0"
