"""Adaptive token sampling: significance scores, inverse-transform selection
over the score CDF, and soft attention downsampling.

Token index 0 is the classification token and is always retained; scores are
defined over the N non-CLS tokens only. Scoring and index selection are pure
functions of detached arrays, so no gradient flows through the selection; the
downsampled attention product stays differentiable through the retained rows
and the full value set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autograd as ag
from .attention import AttentionState, attend
from .autograd import Node
from .numerics import Rng


class Scoring(enum.Enum):
    """Score assignment variants. CLS_VNORM is the default: CLS attention
    weights times value-row norms. The others exist for ablations."""
    CLS_VNORM = "cls-vnorm"
    CLS = "cls"
    ROWSUM = "rowsum"
    RANDOM_TOKEN = "random-token"


class Policy(enum.Enum):
    INVERSE = "inverse"
    TOPK = "topk"
    RANDOM = "random"


class InverseRule(enum.Enum):
    CEIL = "ceil"          # generalized inverse: smallest index with cdf >= k
    NEAREST = "nearest"    # piecewise-linear inverse, rounded to nearest index


@dataclass(frozen=True)
class SamplerConfig:
    k: int                                   # token budget, K' <= k
    inverse_rule: InverseRule = InverseRule.CEIL
    policy: Policy = Policy.INVERSE

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("budget must be at least 1")

    @cached_property
    def grid(self) -> np.ndarray:
        """Fixed evaluation points {1/K, ..., K/K}; last is exactly 1."""
        return np.arange(1, self.k + 1, dtype=np.float64) / self.k


@dataclass
class ScoreVector:
    """Normalized significance scores over non-CLS tokens plus their CDF."""
    scores: np.ndarray
    cdf: np.ndarray
    uniform_fallback: bool = False


@dataclass(frozen=True)
class SampleResult:
    """Retained token indices (sorted, always containing the CLS index 0)
    and the raw per-grid-point evaluations."""
    kept: tuple[int, ...]
    psi: tuple[int, ...]

    @property
    def k_prime(self) -> int:
        """The realized non-CLS count."""
        return len(self.kept) - 1


def build_cdf(scores: np.ndarray, uniform_fallback: bool = False) -> ScoreVector:
    """Prefix sums of normalized scores; the final entry is re-clamped to
    exactly 1 so the grid point k=1 always resolves."""
    scores = np.asarray(scores, dtype=np.float64)
    cdf = np.minimum(np.cumsum(scores), 1.0)
    cdf[-1] = 1.0
    return ScoreVector(scores=scores, cdf=cdf, uniform_fallback=uniform_fallback)


def compute_scores(attn: np.ndarray, values: np.ndarray,
                   method: Scoring = Scoring.CLS_VNORM,
                   rng: Rng | None = None) -> ScoreVector:
    """Significance scores from stacked attention matrices (heads, T, T) and
    value rows (heads, T, head_dim).

    Per-head unnormalized scores are summed over heads in head order, then
    normalized once. If every unnormalized score is zero (e.g. all-zero
    values early in training) the result falls back to uniform and is
    flagged.
    """
    n = attn.shape[-1] - 1
    if n < 1:
        raise ValueError("need at least one non-CLS token to score")
    if method is Scoring.CLS_VNORM:
        raw = attn[:, 0, 1:] * np.linalg.norm(values[:, 1:], axis=-1)
    elif method is Scoring.CLS:
        raw = attn[:, 0, 1:]
    elif method is Scoring.ROWSUM:
        raw = attn[:, :, 1:].sum(axis=-2)
    elif method is Scoring.RANDOM_TOKEN:
        if rng is None:
            raise ValueError("random-token scoring requires an rng")
        raw = attn[:, 1 + rng.integers(0, n), 1:]
    else:
        raise ValueError(f"unknown scoring method {method}")
    total = raw.astype(np.float64).sum(axis=0)
    mass = total.sum()
    if mass == 0.0:
        return build_cdf(np.full(n, 1.0 / n), uniform_fallback=True)
    return build_cdf(total / mass)


def _inverse_ceil(cdf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Generalized inverse: smallest 1-based token index i with cdf[i] >= k."""
    return np.searchsorted(cdf, grid, side="left").astype(np.int64) + 1


def _inverse_nearest(cdf: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Piecewise-linear inverse through (0, 0) and (i, cdf[i]), rounded
    half-away-from-zero and clamped to [1, N]."""
    n = len(cdf)
    i = np.searchsorted(cdf, grid, side="left")  # 0-based segment ends
    lo = np.where(i > 0, cdf[np.maximum(i - 1, 0)], 0.0)
    hi = cdf[np.minimum(i, n - 1)]
    rising = hi > lo
    x = np.where(rising, i + (grid - lo) / np.where(rising, hi - lo, 1.0),
                 i + 1.0)
    return np.clip(np.floor(x + 0.5).astype(np.int64), 1, n)


def sample_indices(sv: ScoreVector, cfg: SamplerConfig,
                   rng: Rng | None = None) -> SampleResult:
    """Select retained token indices under the configured policy.

    The inverse-transform policy evaluates the CDF inverse on the fixed grid,
    collapses duplicates, and prepends the CLS index. topk keeps the highest
    scores (ties to the lower index); random draws without replacement.
    """
    n = len(sv.scores)
    if n == 0:
        raise ValueError("empty score vector")

    if cfg.policy is Policy.INVERSE:
        grid = cfg.grid
        if cfg.inverse_rule is InverseRule.CEIL:
            psi = _inverse_ceil(sv.cdf, grid)
        else:
            psi = _inverse_nearest(sv.cdf, grid)
    elif cfg.policy is Policy.TOPK:
        take = min(cfg.k, n)
        order = np.argsort(-sv.scores, kind="stable")[:take]
        psi = order.astype(np.int64) + 1
    elif cfg.policy is Policy.RANDOM:
        if rng is None:
            raise ValueError("random policy requires an rng")
        psi = rng.choice(n, min(cfg.k, n)).astype(np.int64) + 1
    else:
        raise ValueError(f"unknown policy {cfg.policy}")

    psi = psi.tolist()
    return SampleResult(kept=(0,) + tuple(sorted(set(psi))), psi=tuple(psi))


def sampled_attend(state: AttentionState, result: SampleResult,
                   out_w: Node, out_b: Node) -> Node:
    """Soft downsampling: attend with every head's attention rows at the
    retained indices (columns untouched, so each row still sums to 1) over
    the full value set. Output row 0 is CLS; keeping every row is attend."""
    return attend(AttentionState(ag.gather_rows(state.attn, result.kept),
                                 state.v), out_w, out_b)
