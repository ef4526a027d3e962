"""Prototype-guided adaptive distillation on synthetic two-modality data."""

from .ams import BatchPlan, build_batch, sampling_ratio, theta_gradient
from .errors import PgadError
from .evaluation import (
    ComparisonResult,
    MetricsRecord,
    TTestResult,
    auc,
    bonferroni,
    confusion,
    mcc,
    paired_ttest,
    sen_spe,
)
from .harness import ArmSpec, RunSummary, ScenarioConfig, compare_arms, run_scenario
from .losses import LossReport, LossWeights, ce_loss, kd_loss, pair_loss, proto_loss
from .nets import MlpSpec, StudentNet, TeacherNet, load_checkpoint, save_checkpoint
from .prototypes import (
    PrototypeSet,
    compute_batch_prototypes,
    update_running_prototypes,
)
from .synthdata import (
    Dataset,
    DatasetConfig,
    FoldSplit,
    Sample,
    apply_missingness,
    draw_datasets,
    export_dataset_csv,
    generate_dataset,
    import_dataset_csv,
    stratified_kfold,
)
from .trainer import TrainConfig, adam_update, cosine_lr, fit, train_step

__version__ = "0.1.0"

__all__ = [
    "ArmSpec", "BatchPlan", "ComparisonResult", "Dataset", "DatasetConfig",
    "FoldSplit", "LossReport", "LossWeights", "MetricsRecord", "MlpSpec",
    "PgadError", "PrototypeSet", "RunSummary", "Sample", "ScenarioConfig",
    "StudentNet", "TTestResult", "TeacherNet", "TrainConfig", "adam_update",
    "apply_missingness", "auc", "bonferroni", "build_batch", "ce_loss",
    "compare_arms", "compute_batch_prototypes", "confusion", "cosine_lr",
    "draw_datasets", "export_dataset_csv", "fit", "generate_dataset",
    "import_dataset_csv", "kd_loss", "load_checkpoint", "mcc",
    "pair_loss", "paired_ttest", "proto_loss",
    "run_scenario", "sampling_ratio", "save_checkpoint", "sen_spe",
    "stratified_kfold", "theta_gradient", "train_step",
    "update_running_prototypes",
]
