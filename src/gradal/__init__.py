"""Pool-based active learning with gradient-discrepancy acquisition.

The library trains small MLP classifiers round by round, selects unlabeled
points with one of five strategies (gradient discrepancy, entropy, BADGE,
k-center, random), and compares methods with paired t-tests under
Benjamini-Hochberg FDR control aggregated into a pairwise penalty matrix.
A contraction monitor tracks the between-subset gradient discrepancy over
training epochs.
"""

__version__ = "0.1.0"

from .acquisition import METHODS, AcquisitionBatch, df_scores, select_batch
from .al_loop import (
    ExperimentConfig,
    ExperimentResult,
    RoundRecord,
    evaluate_accuracy,
    run_experiment,
    run_experiments,
)
from .contraction import ContractionConfig, ContractionReport, run_contraction_trace
from .data import Dataset, PoolState, SplitSpec, make_blobs, make_shifted, split
from .evaluation import ComparisonSlice, PenaltyMatrix, build_ppm, curves_from_results, loss_scores
from .model import (
    ArchSpec,
    TrainConfig,
    grad_embeddings,
    init_model,
    mean_grad_embedding,
    penultimate,
    predict_proba,
    train,
)
from .numerics import student_t_sf
