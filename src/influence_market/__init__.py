"""
influence_market: pricing crowdsourced regression data by its influence on
test loss, with batched payment mechanisms, closed-form batch corrections,
and agent-based incentive checks.
"""

__version__ = "0.1.0"

from .agents import (
    AgentProfile,
    SimulationResult,
    WorldModel,
    best_response_check,
    build_population,
    closed_form_mixture,
    generate_world,
    heuristic_report,
    independent_test_set,
    opt_out_followup,
    quadratic_peak,
    report_stream,
    simulate_population,
    truthful_report,
)
from .dataio import (
    DatasetSchema,
    Standardization,
    builtin_schema,
    builtin_schemas,
    load_csv,
    load_csv_with_stats,
    read_results,
    read_schema,
    write_results,
    write_schema,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyAfterFiltering,
    EmptyDataset,
    EmptyStream,
    IndexOutOfRange,
    InfluenceMarketError,
    InsufficientInitialization,
    InvalidValue,
    IoError,
    MissingColumn,
    NonNumericCell,
    SingularDesign,
)
from .influence import (
    ApproximationErrorReport,
    approximation_errors,
    crossover_dimension,
    exact_influences,
    first_order_influences,
    second_order_influences,
    timing_comparison,
)
from .mechanism import (
    LedgerEntry,
    MechanismConfig,
    PaymentLedger,
    budget_estimate,
    initialize_model,
    run_mechanism,
)
from .mixture import (
    MixtureParams,
    batch_influence_sum,
    correction_exclusive,
    correction_inclusive,
    expected_risk,
    heuristic_influences_independent,
    heuristic_influences_mixed,
    marginal_influence,
    tetragamma,
    total_risk_change,
    truthful_threshold,
)
from .regression import (
    DataPoint,
    Dataset,
    FittedModel,
    Parameters,
    fit,
    risk,
)
