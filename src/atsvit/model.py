"""Small ViT with token sampling insertable at configurable stages.

Pre-norm blocks: x <- x + Attn(LN(x)); x <- x + MLP(LN(x)). At a sampling
stage the attention output is downsampled to the retained tokens and the
residual branch is row-gathered with the same indices, which preserves the
no-drop identity exactly. Positional embeddings are added once at input;
sampling only ever filters rows, so tokens keep their identity.

Weight files are architecture plus parameters only. Sampling settings are
runtime configuration and never enter the file: the module is parameter-free,
so enabling it on a trained model cannot change the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import autograd as ag
from . import container
from .attention import AttentionState, attend, attention_matrix, project_qkv
from .autograd import Node
from .numerics import FAST_DTYPE, Rng
from .sampling import (InverseRule, Policy, SampleResult, SamplerConfig,
                       Scoring, compute_scores, sample_indices, sampled_attend)

ARCH_FIELDS = ("image_size", "patch_size", "dim", "heads", "depth",
               "mlp_ratio", "num_classes", "channels")


class ShapeMismatchError(container.ContainerError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    patch_size: int = 8
    dim: int = 64
    heads: int = 4
    depth: int = 6
    mlp_ratio: int = 4
    num_classes: int = 4
    channels: int = 1
    # runtime sampling settings (not persisted in weight files)
    ats_stages: tuple[int, ...] = ()
    sampler: SamplerConfig = field(default_factory=lambda: SamplerConfig(k=16))
    scoring: Scoring = Scoring.CLS_VNORM

    def __post_init__(self):
        for name in ARCH_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.image_size % self.patch_size != 0:
            raise ValueError("image_size must be divisible by patch_size")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        for s in self.ats_stages:
            if not 0 <= s < self.depth:
                raise ValueError(f"sampling stage {s} outside [0, {self.depth})")
        if self.ats_stages and self.sampler.k > self.num_patches:
            raise ValueError(
                f"budget {self.sampler.k} exceeds patch count {self.num_patches}")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_size ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1

    def arch_dict(self) -> dict:
        return {k: getattr(self, k) for k in ARCH_FIELDS}

    def runtime_dict(self) -> dict:
        return {
            "ats_stages": list(self.ats_stages),
            "k": self.sampler.k,
            "inverse_rule": self.sampler.inverse_rule.value,
            "policy": self.sampler.policy.value,
            "scoring": self.scoring.value,
        }

    def with_sampling(self, ats_stages: Iterable[int], k: int | None = None,
                      inverse_rule: InverseRule | None = None,
                      policy: Policy | None = None,
                      scoring: Scoring | None = None) -> "ModelConfig":
        sampler = SamplerConfig(
            k=self.sampler.k if k is None else k,
            inverse_rule=inverse_rule or self.sampler.inverse_rule,
            policy=policy or self.sampler.policy,
        )
        return replace(self, ats_stages=tuple(sorted(set(ats_stages))),
                       sampler=sampler, scoring=scoring or self.scoring)


@dataclass
class ForwardTrace:
    """Per-stage token counts, per-sampling-stage results with the surviving
    original token ids, and the classifier logits."""
    stage_counts: list[tuple[int, int]]
    samples: dict[int, SampleResult]
    alive: dict[int, tuple[int, ...]]    # original token ids after each sampling stage
    logits: np.ndarray
    logits_node: Node | None = field(default=None, repr=False)


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, r = cfg.dim, cfg.mlp_ratio
    pdim = cfg.patch_size * cfg.patch_size * cfg.channels
    shapes: dict[str, tuple[int, ...]] = {
        "patch.w": (pdim, d),
        "patch.b": (d,),
        "cls": (1, d),
        "pos": (cfg.num_tokens, d),
    }
    for i in range(cfg.depth):
        p = f"block{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        shapes[p + "qkv.w"] = (d, 3 * d)
        shapes[p + "qkv.b"] = (3 * d,)
        shapes[p + "out.w"] = (d, d)
        shapes[p + "out.b"] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "mlp1.w"] = (d, r * d)
        shapes[p + "mlp1.b"] = (r * d,)
        shapes[p + "mlp2.w"] = (r * d, d)
        shapes[p + "mlp2.b"] = (d,)
    shapes["norm.g"] = (d,)
    shapes["norm.b"] = (d,)
    shapes["head.w"] = (d, cfg.num_classes)
    shapes["head.b"] = (cfg.num_classes,)
    return shapes


def init_weights(cfg: ModelConfig, rng: Rng, dtype=FAST_DTYPE) -> dict[str, Node]:
    """Fresh parameters: normal(0, 0.02) projections, unit gammas, zero biases."""
    weights: dict[str, Node] = {}
    for name, shape in _param_shapes(cfg).items():
        if name.endswith(".g"):
            arr = np.ones(shape)
        elif name.endswith(".b"):
            arr = np.zeros(shape)
        else:
            arr = rng.normal(shape, std=0.02)
        weights[name] = ag.leaf(arr.astype(dtype))
    return weights


def as_nodes(arrays: dict[str, np.ndarray], dtype=FAST_DTYPE) -> dict[str, Node]:
    return {name: ag.leaf(a.astype(dtype)) for name, a in arrays.items()}


def extract_patches(image: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Flatten non-overlapping patches in raster order (rows of patches,
    then columns); each row is one patch, row-major within the patch."""
    img = np.asarray(image)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.shape != (cfg.image_size, cfg.image_size, cfg.channels):
        raise ValueError(f"image shape {img.shape}, expected "
                         f"{(cfg.image_size, cfg.image_size, cfg.channels)}")
    g, p = cfg.grid_size, cfg.patch_size
    return (img.reshape(g, p, g, p, cfg.channels)
               .transpose(0, 2, 1, 3, 4)
               .reshape(cfg.num_patches, p * p * cfg.channels))


def patch_embed(images: Sequence[np.ndarray], weights: dict[str, Node],
                cfg: ModelConfig) -> Node:
    """Linear projection of flattened patches, CLS prepended at row 0,
    learned positional embeddings added: (T, d) tokens for one image, and a
    (images, T, d) stack for several, in which each image gets its own copy
    of the CLS and positional rows, so their leaves take one gradient per
    image. The pixel patches are a constant operand: nothing reads their
    gradient."""
    n = len(images)
    dtype = weights["patch.w"].value.dtype
    patches = np.stack([extract_patches(im, cfg)
                        for im in images]).astype(dtype, copy=False)
    projected = ag.add_row(ag.matmul(patches[0] if n == 1 else patches,
                                     weights["patch.w"]), weights["patch.b"])
    cls, pos = weights["cls"], weights["pos"]
    if n > 1:
        cls, pos = ag.tile_rows(cls, n), ag.tile_rows(pos, n)
    return ag.add(ag.concat_rows([cls, projected]), pos)


@dataclass
class Prefix:
    """One image's work that no sampling setting changes: the tokens leaving
    block `stage`, the first sampling stage (or the final tokens, stage =
    depth, without one), and at a sampling stage that block's attention
    matrices `attn` and values `v`, plain arrays that only the sampler reads.
    Soft downsampling keeps each retained row's whole attention row, so a
    sampled block's output rows are the unsampled block's rows at the kept
    indices, whatever else is kept: the prefix runs that block whole. Nothing
    in it depends on k, policy, scoring or the Rng, so every sampled config
    with the same first stage can branch from it.

    Image b of a stacked pass gets a leaf over the view tokens.value[b] of
    the pass's (images, T, d) tokens and views of its attention and values,
    and `stacked` holds the pass's own prefix; backward_prefix carries the
    gradients the token views receive on into it."""
    stage: int
    tokens: Node
    attn: np.ndarray | None = None
    v: np.ndarray | None = None
    stacked: Prefix | None = field(default=None, repr=False)


def first_stage(cfg: ModelConfig) -> int:
    return min(cfg.ats_stages, default=cfg.depth)


def _attention_state(tokens: Node, weights: dict[str, Node], p: str,
                     heads: int) -> AttentionState:
    normed = ag.layer_norm(tokens, weights[p + "ln1.g"], weights[p + "ln1.b"])
    q, k, v = project_qkv(normed, weights[p + "qkv.w"], weights[p + "qkv.b"],
                          heads)
    return AttentionState(attention_matrix(q, k), v)


def _mlp_residual(tokens: Node, weights: dict[str, Node], p: str) -> Node:
    normed = ag.layer_norm(tokens, weights[p + "ln2.g"], weights[p + "ln2.b"])
    hidden = ag.gelu(ag.add_row(ag.matmul(normed, weights[p + "mlp1.w"]),
                                weights[p + "mlp1.b"]))
    mlp_out = ag.add_row(ag.matmul(hidden, weights[p + "mlp2.w"]),
                         weights[p + "mlp2.b"])
    return ag.add(tokens, mlp_out)


def forward_prefix(images: Sequence[np.ndarray], cfg: ModelConfig,
                   weights: dict[str, Node]) -> list[Prefix]:
    """Patch embedding and every block up to and including the first
    sampling stage, each over all T rows, for all images in one stacked
    pass. Draws no random words.

    One image gets the pass's own nodes, so its backward walks the whole
    pass. Several run as (images, ...) arrays, and image b gets a leaf over
    the view tokens.value[b]; recorded, its gradient reaches the weights
    through backward_prefix, once every image's own backward has run."""
    n = len(images)
    stage = first_stage(cfg)
    tokens = patch_embed(images, weights, cfg)
    for i in range(min(stage + 1, cfg.depth)):
        p = f"block{i}."
        state = _attention_state(tokens, weights, p, cfg.heads)
        tokens = ag.add(tokens, attend(state, weights[p + "out.w"],
                                       weights[p + "out.b"]))
        tokens = _mlp_residual(tokens, weights, p)
    attn, v = ((state.attn.value, state.v.value) if stage < cfg.depth
               else (None, None))
    whole = Prefix(stage=stage, tokens=tokens, attn=attn, v=v)
    if n == 1:
        return [whole]
    return [Prefix(stage=stage, tokens=Node(tokens.value[b]),
                   attn=None if attn is None else attn[b],
                   v=None if v is None else v[b], stacked=whole)
            for b in range(n)]


def backward_prefix(prefixes: Sequence[Prefix]) -> None:
    """Finish the backward walk of one recorded forward_prefix call, after
    each image's own backward has reached its prefix: one walk from the
    stacked tokens, seeded with the stack of what the per-image views
    received. A prefix of one image is its pass's own nodes, which the
    image's backward has walked already."""
    whole = prefixes[0].stacked
    if whole is None:
        return
    ag.backward({whole.tokens: np.stack([p.tokens.grad for p in prefixes])})


def forward(image: np.ndarray, cfg: ModelConfig, weights: dict[str, Node],
            rng: Rng | None = None, prefix: Prefix | None = None) -> ForwardTrace:
    """Run the transformer, sampling tokens at the configured stages.

    rng is only consumed by the random-token scoring variant and the random
    sampling policy; the default configuration is fully deterministic.
    prefix, from forward_prefix on the same image, weights and first sampling
    stage, skips that work; without it the pass builds its own. The first
    sampling stage keeps its rows of the prefix's tokens; every later one
    attends with the kept rows of its attention (sampled_attend).
    """
    if prefix is None:
        prefix, = forward_prefix([image], cfg, weights)
    elif prefix.stage != first_stage(cfg):
        raise ValueError(f"prefix ends at block {prefix.stage}, but the first "
                         f"sampling stage is {first_stage(cfg)}")
    tokens = prefix.tokens
    stage_counts = [(cfg.num_tokens, cfg.num_tokens)] * prefix.stage
    samples: dict[int, SampleResult] = {}
    alive: dict[int, tuple[int, ...]] = {}
    ids = tuple(range(cfg.num_tokens))

    def sample(i: int, attn: np.ndarray, v: np.ndarray) -> SampleResult:
        nonlocal ids
        sv = compute_scores(attn, v, cfg.scoring, rng)
        result = sample_indices(sv, cfg.sampler, rng)
        ids = tuple(ids[j] for j in result.kept)
        samples[i], alive[i] = result, ids
        return result

    if prefix.attn is not None:
        tokens = ag.gather_rows(tokens, sample(prefix.stage, prefix.attn,
                                               prefix.v).kept)
        stage_counts.append((cfg.num_tokens, tokens.shape[0]))
    for i in range(prefix.stage + 1, cfg.depth):
        p = f"block{i}."
        t_in = tokens.shape[0]
        state = _attention_state(tokens, weights, p, cfg.heads)
        if i in cfg.ats_stages:
            result = sample(i, state.attn.value, state.v.value)
            attn_out = sampled_attend(state, result,
                                      weights[p + "out.w"], weights[p + "out.b"])
            tokens = ag.add(ag.gather_rows(tokens, result.kept), attn_out)
        else:
            tokens = ag.add(tokens, attend(state, weights[p + "out.w"],
                                           weights[p + "out.b"]))
        stage_counts.append((t_in, tokens.shape[0]))
        tokens = _mlp_residual(tokens, weights, p)

    final = ag.layer_norm(tokens, weights["norm.g"], weights["norm.b"])
    cls = ag.gather_rows(final, (0,))
    logits = ag.add_row(ag.matmul(cls, weights["head.w"]), weights["head.b"])
    return ForwardTrace(stage_counts=stage_counts, samples=samples, alive=alive,
                        logits=logits.value.reshape(-1).copy(),
                        logits_node=logits)


def save_weights(path: str, cfg: ModelConfig, weights: dict[str, Node]) -> None:
    """Persist architecture config and parameters; bit-exact round trip."""
    tensors = {name: w.value for name, w in weights.items()}
    container.write(path, {"schema": 1, "config": cfg.arch_dict()}, tensors)


def load_weights(path: str) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Load and validate a weight file. Every tensor shape is checked against
    what the header config implies."""
    meta, tensors = container.read(path)
    arch = meta.get("config")
    if not isinstance(arch, dict) or set(arch) != set(ARCH_FIELDS):
        raise container.ContainerError(
            f"{path}: header config must hold exactly the fields {list(ARCH_FIELDS)}")
    cfg = ModelConfig(**arch)
    expected = _param_shapes(cfg)
    if set(tensors) != set(expected):
        missing = set(expected) ^ set(tensors)
        raise ShapeMismatchError(f"{path}: tensor set mismatch: {sorted(missing)}")
    for name, arr in tensors.items():
        if tuple(arr.shape) != expected[name]:
            raise ShapeMismatchError(
                f"{path}: {name} has shape {tuple(arr.shape)}, "
                f"expected {expected[name]}")
    return cfg, tensors
