"""Deterministic synthetic shape-classification data plus minimal PGM io.

Four grayscale classes on a 32x32 canvas: horizontal bar, vertical bar,
cross, blob. A per-image clutter level drawn from a Beta distribution
controls how much background texture (a dim noise floor plus bright
shape-like fragments) is added, producing a spectrum from near-empty "easy"
images to busy "hard" ones. Generation is a pure function of (seed, index),
so datasets are identical across platforms and regardless of generation
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .numerics import Rng

IMAGE_SIZE = 32
NUM_CLASSES = 4

_SHAPE_MIN = 0.75    # shape pixel intensity floor
_CLUTTER_FRAGS = 14  # distractor count at clutter level 1
_NOISE_FLOOR = 0.18  # background noise amplitude at clutter level 1


@dataclass(frozen=True)
class ShapeSample:
    image: np.ndarray        # (32, 32, 1) float in [0, 1]
    label: int
    clutter: float


@dataclass(frozen=True)
class DatasetManifest:
    seed: int
    n_train: int
    n_val: int
    clutter_alpha: float = 1.2
    clutter_beta: float = 2.4
    clutter_scale: float = 1.0

    def __post_init__(self):
        if self.n_train < 1 or self.n_val < 1:
            raise ValueError("need at least one sample per split")
        for name in ("clutter_alpha", "clutter_beta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)}")
        # At most one fragment per canvas pixel; this also refuses NaN.
        if not 0 <= self.clutter_scale * _CLUTTER_FRAGS <= IMAGE_SIZE ** 2:
            raise ValueError(f"clutter_scale must be in [0, "
                             f"{IMAGE_SIZE ** 2 / _CLUTTER_FRAGS:.2f}], "
                             f"got {self.clutter_scale}")


def _draw_hbar(img: np.ndarray, rng: Rng, value: float) -> None:
    t = 4 + rng.integers(0, 2)
    r0 = rng.integers(2, IMAGE_SIZE - t - 2)
    img[r0:r0 + t, :] = value


def _draw_vbar(img: np.ndarray, rng: Rng, value: float) -> None:
    t = 4 + rng.integers(0, 2)
    c0 = rng.integers(2, IMAGE_SIZE - t - 2)
    img[:, c0:c0 + t] = value


def _draw_cross(img: np.ndarray, rng: Rng, value: float) -> None:
    _draw_hbar(img, rng, value)
    _draw_vbar(img, rng, value)


def _draw_blob(img: np.ndarray, rng: Rng, value: float) -> None:
    r = 5 + rng.integers(0, 4)
    cy = rng.integers(r + 1, IMAGE_SIZE - r - 1)
    cx = rng.integers(r + 1, IMAGE_SIZE - r - 1)
    yy, xx = np.ogrid[:IMAGE_SIZE, :IMAGE_SIZE]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = value


_DRAWERS = (_draw_hbar, _draw_vbar, _draw_cross, _draw_blob)


def render_sample(rng: Rng, label: int, clutter: float) -> ShapeSample:
    """One image: background texture scaled by the clutter level, then the
    class shape on top.

    The texture has two parts, both clutter-proportional: a dim noise floor
    over the whole canvas, and bright short bar fragments that look like
    pieces of the true shapes. Cluttered images therefore contain many
    stroke candidates that must each be inspected, while clean images are a
    single bright shape on black."""
    noise = clutter * _NOISE_FLOOR * rng.uniform((IMAGE_SIZE, IMAGE_SIZE))
    img = np.asarray(noise, dtype=np.float64)
    n_frags = int(round(clutter * _CLUTTER_FRAGS))
    for _ in range(n_frags):
        length = 5 + rng.integers(0, 7)
        thick = 2 + rng.integers(0, 2)
        value = 0.55 + 0.35 * rng.uniform()
        y = rng.integers(0, IMAGE_SIZE - length)
        x = rng.integers(0, IMAGE_SIZE - thick)
        if rng.integers(0, 2) == 0:
            img[y:y + length, x:x + thick] = value  # vertical fragment
        else:
            img[x:x + thick, y:y + length] = value  # horizontal fragment
    value = _SHAPE_MIN + (1.0 - _SHAPE_MIN) * rng.uniform()
    _DRAWERS[label](img, rng, value)
    return ShapeSample(image=np.clip(img, 0.0, 1.0)[:, :, None],
                       label=label, clutter=float(clutter))


def _make_split(manifest: DatasetManifest, offset: int, count: int,
                stream: int) -> list[ShapeSample]:
    base = Rng(manifest.seed, stream=stream)
    samples = []
    for i in range(count):
        rng = base.spawn(offset + i)
        label = i % NUM_CLASSES
        u = rng.uniform()
        level = float(betaincinv(manifest.clutter_alpha, manifest.clutter_beta, u))
        if math.isnan(level):
            raise ValueError(f"no clutter level at quantile {u:.6g} of Beta("
                             f"clutter_alpha={manifest.clutter_alpha}, "
                             f"clutter_beta={manifest.clutter_beta})")
        samples.append(render_sample(rng, label, manifest.clutter_scale * level))
    return samples


def generate(manifest: DatasetManifest, train: bool = True
             ) -> tuple[list[ShapeSample], list[ShapeSample]]:
    """Deterministic (train, val) splits with disjoint per-sample streams and
    class balance within one sample per class. With train=False the train
    split comes back empty and is never rendered; the val split is the same,
    since its streams are indexed from n_train either way."""
    train_set = (_make_split(manifest, 0, manifest.n_train, stream=17)
                 if train else [])
    val = _make_split(manifest, manifest.n_train, manifest.n_val, stream=17)
    return train_set, val


# ---------------------------------------------------------------------------
# PGM (P5, binary, maxval 255)
# ---------------------------------------------------------------------------

def save_pgm(path: str, image: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as binary PGM."""
    img = np.asarray(image)
    if img.ndim == 3:
        img = img[:, :, 0]
    data = np.clip(np.round(img * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def load_pgm(path: str) -> np.ndarray:
    """Read a binary PGM into a (H, W) float array scaled to [0, 1]."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (bad magic {raw[:2]!r})")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255 or width < 1 or height < 1:
        raise ValueError(f"{path}: unsupported size {width}x{height} or maxval {maxval}")
    if len(raw) - pos < width * height:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).astype(np.float64) / 255.0
