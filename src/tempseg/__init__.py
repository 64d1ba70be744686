"""Temporal action segmentation with sparse sliding-window attention,
multi-stage TCN refinement and boundary-aware training."""

from .seqcore import Adam, Tensor, conv1d_dilated, layer_norm, softmax
from .attention import (
    AttentionMask,
    ScaleSet,
    WindowSpec,
    attended_pairs_count,
    build_sparse_mask,
    build_window_schedule,
    dswa_forward,
    hta_forward,
)
from .network import (
    ModelConfig,
    ModelOutput,
    SegmentationModel,
    StagePrediction,
    count_params_flops,
    upsample_to_original,
)
from .losses import (
    combined_temporal_loss,
    dice_loss,
    focal_loss,
    gaussian_cosine_similarity_loss,
    gaussian_truncated_boundary_loss,
)
from .segments import (
    Segment,
    SegmentList,
    detect_boundaries,
    frames_to_segments,
    make_boundary_target,
    refine_prediction,
    segments_to_frames,
)
from .metrics import EvalReport, edit_score, evaluate_all, frame_accuracy, segmental_f1
from .pipeline import RunConfig, SynthSpec, infer, synth_dataset, train

__version__ = "0.1.0"
