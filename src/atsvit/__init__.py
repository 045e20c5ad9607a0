"""Adaptive token sampling inside a small trainable vision transformer."""

from .attention import AttentionState, attend, attention_matrix, project_qkv
from .dataset import DatasetManifest, ShapeSample, generate
from .flops import FlopsReport, block_macs, model_macs, static_macs
from .model import (ForwardTrace, ModelConfig, forward, init_weights,
                    load_weights, save_weights)
from .numerics import Rng
from .sampling import (InverseRule, Policy, SampleResult, SamplerConfig,
                       ScoreVector, Scoring, build_cdf, compute_scores,
                       sample_indices, sampled_attend)
from .trainer import Schedule, evaluate, lr_at, optim_step, train

__version__ = "0.1.0"
