"""Latent-space video frame prediction.

Three-stage workflow: a convolutional autoencoder extracts per-frame
feature maps, a spatiotemporal model predicts the next feature map from a
window of previous ones, and the decoder reconstructs the predicted frame.
Ships with the metric suite (MAE / MSE / SSIM / Gaussian KL), preprocessing,
grid-search and K-fold harness, pixel-space baseline, and inference
benchmarking, all behind the ``latentcast`` CLI.
"""

from . import dataio, experiment, metrics, nn, preprocess, seqmodels, synthetic, training
from .autoencoder import (
    Autoencoder,
    AutoencoderConfig,
    build_autoencoder,
    decode,
    encode,
    encode_dataset,
    train_autoencoder,
)
from .dataio import (
    DatasetSplit,
    FrameSequence,
    VideoDataset,
    load_frame_directory,
    parse_array_file,
    split_sequences,
    write_array_file,
)
from .experiment import (
    BenchReport,
    PipelineResult,
    benchmark_inference,
    emit_report,
    grid_enumerate,
    kfold_validate,
    run_baseline,
    run_pipeline,
)
from .metrics import (
    IntervalReport,
    LatentStats,
    MetricReport,
    SSIMParams,
    bucketize_intervals,
    kl_gauss,
    mae,
    mse,
    ssim,
)
from .preprocess import (
    ContinuityReport,
    PreprocessSpec,
    crop_black_borders,
    otsu_binarize,
    preprocess_dataset,
    resize_lanczos,
    standardize_length,
    stratified_subset,
    verify_continuity,
)
from .seqmodels import (
    SeqModelConfig,
    SeqModelKind,
    build_seq_model,
    make_windows,
    predict_next,
    train_seq_model,
)
from .training import TrainRun, TrainSchedule

__version__ = "0.1.0"
