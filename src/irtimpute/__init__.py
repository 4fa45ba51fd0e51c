"""Categorical missing-data imputation with unidimensional item response models.

Fit binary / graded / nominal item models to a mixed categorical dataset by
marginal maximum likelihood (EM over a fixed quadrature grid with a standard
normal latent trait), score each case's trait by its posterior mean, and fill
every missing cell with its most probable category.  Companion tools inject
controlled missingness (MCAR / MAR), test the MCAR hypothesis, and score
imputation accuracy on the held-out cells.
"""

from .data import (
    MISSING,
    CategoricalDataset,
    ColumnSchema,
    DiscretizationMap,
    apply_discretization,
    discretize,
    discretize_dataset,
    emit_csv,
    format_schema,
    load_csv,
    load_schema,
    parse_schema,
)
from .errors import (
    CodeOutOfRange,
    DataError,
    DegenerateColumn,
    EmptyCategory,
    InsufficientData,
    IrtImputeError,
    NewtonDiverged,
    NumericalFailure,
    SingularCovariance,
    UnknownLabel,
    UnobservedCategory,
    UsageError,
)
from .estimation import (
    EStepResult,
    FitConfig,
    FittedModel,
    QuadratureGrid,
    ThetaEstimate,
    build_grid,
    diagnostics_report,
    e_step,
    eap_score,
    eap_scores,
    fit,
    fit_many,
    load_model,
    m_step_item,
    save_model,
)
from .impute import ImputedDataset, impute_dataset
from .metrics import (
    CategoryScore,
    ImputationReport,
    report_text,
    score,
    score_cells,
)
from .missingness import (
    LittleTestResult,
    inject_mar,
    inject_mcar,
    littles_test,
)
from .models import (
    Binary2PL,
    GradedItem,
    ItemModel,
    NominalItem,
    PatternScore,
    category_probs,
    log_category_probs,
    pattern_loglik,
    pattern_score,
    prob_2pl,
)
from .simulate import simulate_dataset, simulate_items, simulate_responses

__version__ = "0.1.0"
