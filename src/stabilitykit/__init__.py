"""stabilitykit: no-reference video stability assessment.

Classical baselines (ITF, frequency-domain Stability Score), a three-branch
feature model with a trainable regression head, the SROCC/PLCC/KRCC/RMSE
evaluation protocol, subjective-study MOS tooling, and a synthetic shaky
video generator that makes all of it verifiable end to end.

``ClipSpec`` says how a clip is sampled and featurized, and
``clip_features`` returns one float64 vector per clip, the flow, semantic and
blur branches in that order; ``train`` fits the head to a matrix of such
vectors and their target scores, and ``mlp_forward`` scores one vector.
``reject_outlier_subjects`` turns a ratings table into MOS, and
``iter_dataset`` yields seeded labeled videos one at a time.
"""

from .classic import ItfResult, StabilityResult, freq_energy_ratio, itf, psnr, stability_score
from .errors import StabilityKitError
from .evaluation import MetricReport, evaluate, krcc, logistic_fit, rmse, srocc
from .features import ClipSpec, clip_features
from .media import Clip, FrameSequence, load_frame_dir, load_y4m, sample_clip, save_y4m, to_luma
from .model import ModelParams, TrainConfig, load_checkpoint, mlp_forward, predict_video, save_checkpoint, train
from .mos import MosResult, RatingsTable, compute_mos, reject_outlier_subjects
from .motion import (
    FlowField,
    MotionParams,
    Trajectory,
    accumulate_trajectory,
    detect_corners,
    estimate_motion,
    track_lk,
    video_trajectory,
)
from .synth import LabeledVideo, ShakeComponent, ShakeSpec, gen_trajectory, iter_dataset, render_shaky

__version__ = "0.1.0"
