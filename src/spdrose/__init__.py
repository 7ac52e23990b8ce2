"""Stein-kernel random projections for SPD matrices.

Turns symmetric positive definite matrices (for example region
covariance descriptors of images) into short Euclidean vectors by
random projection in the reproducing space of the Stein kernel, with
optional synthetic augmentation of the reference pool along geodesics
of the affine-invariant metric.  Ships with descriptor extraction, a
linear one-vs-all classifier, a nearest-neighbour baseline, and an
experiment pipeline with a command line.
"""

from .errors import (
    AsymmetryExceedsTolerance,
    ConfigError,
    DegenerateDirection,
    DimensionMismatch,
    EmptyData,
    EmptyInput,
    ExclusionExceedsClasses,
    GridTooFine,
    ImageTooSmall,
    IndefiniteKernel,
    NonConvergence,
    NonFiniteEntry,
    NotPositiveDefinite,
    NotSquare,
    ParseError,
    SingleClass,
    SpdRoseError,
    StageFailure,
    TSampleTooLarge,
)
from .manifold import (
    SpdMatrix,
    TangentVector,
    symmetrize,
    airm_exp_map,
    airm_log_map,
    geodesic_distance,
    spd_log,
    spd_power,
    spd_stack,
)
from .stein import (
    GramMatrix,
    KernelParams,
    divergence_matrix,
    gram_matrix,
    gram_power,
    sigma_guarantees_psd,
    stein_divergence,
)
from .seeding import derive_seed, keyed_generator
from .synthesis import (
    ConvergenceRecord,
    SynthesisConfig,
    generate_synthetic,
    geodesic_rescale,
    karcher_mean_info,
    training_ball,
)
from .embedding import (
    JlReport,
    ProjectionModel,
    build_projection_model,
    embed_batch,
    expected_distance_sq,
    jl_distortion_report,
    load_projection_model,
    save_projection_model,
)
from .descriptors import (
    ColorImage,
    FeatureImage,
    GrayImage,
    box_downsample,
    color_feature_map,
    gabor_feature_map,
    grid_covariances,
    intensity_feature_map,
)
from .io import (
    read_matrix,
    read_pgm,
    read_ppm,
    write_matrix,
    write_pgm,
    write_ppm,
)
from .classify import (
    EvalResult,
    SolverRecord,
    TrainedClassifier,
    decision_scores,
    evaluate_accuracy,
    knn_stein,
    load_classifier,
    predict,
    save_classifier,
    train_ova_svm,
)
from .clusters import Benchmark, make_benchmark, make_cluster_centers, sample_cluster
from .pipeline import (
    DatasetManifest,
    ExperimentConfig,
    ManifestEntry,
    Report,
    RepRecord,
    config_from_mapping,
    degradation_study,
    fit_model,
    image_descriptors,
    load_config,
    load_dataset,
    load_manifest,
    resolve_synthetic,
    run_experiment,
    save_dataset,
    save_manifest,
    save_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
