"""Analytic multiply-accumulate accounting driven by the per-stage token
trace, so adaptive savings are measured exactly rather than timed.

Counts are MACs (1 MAC = 2 FLOPs). The attention-score matrix is charged at
full t_in x t_in because scores are computed before sampling; savings come
from the downsampled value mix, the output projection, and every later
stage. Softmax, layernorm, GELU, and the sampler's own linear-cost work are
excluded, as is conventional.

The counts are those of one image computed alone, not of the program's
schedule: a sampling stage is charged K'+1 output rows, although
forward_prefix computes the first sampling block over all T rows, once per
image and shared by every config that samples from it (a sweep's rows, say).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ForwardTrace, ModelConfig


@dataclass(frozen=True)
class FlopsReport:
    total_macs: int


def block_macs(t_in: int, t_out: int, d: int, mlp_ratio: int) -> tuple[int, int]:
    """MACs of one transformer block processing t_in tokens and emitting
    t_out. The head count does not enter: per-head widths cancel.

    attn: QKV projection 3*t_in*d^2, score matrix t_in^2*d (computed for all
    rows pre-sampling), value mix t_out*t_in*d, output projection t_out*d^2.
    mlp: 2*mlp_ratio*t_out*d^2.
    """
    if not 1 <= t_out <= t_in:
        raise ValueError(f"need 1 <= t_out <= t_in, got {t_out} > {t_in}")
    attn = 3 * t_in * d * d + t_in * t_in * d + t_out * t_in * d + t_out * d * d
    mlp = 2 * mlp_ratio * t_out * d * d
    return attn, mlp


def model_macs(trace: ForwardTrace, cfg: ModelConfig) -> FlopsReport:
    """Sum block costs over the traced token counts, plus patch-embedding
    and classifier-head terms."""
    counts = trace.stage_counts
    if len(counts) != cfg.depth:
        raise ValueError(f"trace has {len(counts)} stages, config {cfg.depth}")
    if counts[0][0] != cfg.num_tokens:
        raise ValueError("trace starts at the wrong token count")
    for (a_in, a_out), (b_in, _) in zip(counts, counts[1:]):
        if a_out != b_in:
            raise ValueError("trace token counts are not chained")

    return FlopsReport(total_macs=_total_macs(counts, cfg))


def static_macs(cfg: ModelConfig) -> int:
    """Cost of the architecture with no token sampling (constant per image)."""
    return _total_macs([(cfg.num_tokens, cfg.num_tokens)] * cfg.depth, cfg)


def _total_macs(counts: list[tuple[int, int]], cfg: ModelConfig) -> int:
    """Patch embedding, every block over its (t_in, t_out) counts, and the
    classifier head."""
    embed = cfg.num_patches * cfg.patch_size ** 2 * cfg.channels * cfg.dim
    head = cfg.dim * cfg.num_classes
    blocks = sum(sum(block_macs(t_in, t_out, cfg.dim, cfg.mlp_ratio))
                 for t_in, t_out in counts)
    return embed + head + blocks
