"""Pool-based active learning with gradient-discrepancy acquisition.

The library trains small MLP classifiers round by round, selects unlabeled
points with one of five strategies (gradient discrepancy, entropy, BADGE,
k-center, random), and compares methods with paired t-tests under
Benjamini-Hochberg FDR control aggregated into a pairwise penalty matrix.
A contraction monitor tracks the between-subset gradient discrepancy over
training epochs.
"""

__version__ = "0.1.0"

from .acquisition import (
    METHODS,
    AcquisitionBatch,
    df_score,
    df_scores,
    pseudo_label,
    pseudo_labels,
    select_badge,
    select_batch,
    select_entropy,
    select_grad,
    select_kcenter,
    select_random,
)
from .al_loop import (
    ExperimentConfig,
    ExperimentResult,
    RoundRecord,
    evaluate_accuracy,
    run_experiment,
    run_experiments,
    sweep_learning_rate,
)
from .contraction import (
    ContractionConfig,
    ContractionReport,
    cumulative_df_bound_check,
    run_contraction_trace,
)
from .data import (
    Dataset,
    PoolState,
    SplitSpec,
    init_pool,
    load_csv,
    make_blobs,
    make_shifted,
    split,
    standardized,
    write_csv,
)
from .evaluation import (
    ComparisonSlice,
    ExperimentCurves,
    PenaltyMatrix,
    bh_fdr,
    build_ppm,
    curves_from_results,
    loss_scores,
    paired_t_test,
)
from .model import (
    ArchSpec,
    ModelState,
    TrainConfig,
    grad_embedding,
    grad_embeddings,
    init_model,
    loss_mean,
    mean_grad_embedding,
    penultimate,
    predict_proba,
    train,
)
from .numerics import Rng, derive_seed, pca_project, student_t_sf
