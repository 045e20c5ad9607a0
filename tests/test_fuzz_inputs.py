"""Fuzzing of the inputs the CLI reads from outside: weight files, PGM
images, --config JSON, the clutter flags of the dataset manifest and the
optimizer flags --lr and --weight-decay. Every input must either load or
end in `error: ...` with exit code 1; an exception escaping main fails the
test."""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from atsvit.cli import main
from atsvit.dataset import save_pgm
from atsvit.model import ARCH_FIELDS, ModelConfig, init_weights, save_weights
from atsvit.numerics import Rng

TINY = ModelConfig(image_size=32, patch_size=16, dim=4, heads=1, depth=2,
                   mlp_ratio=1, num_classes=4)
DATA = ["--n-train", "1", "--n-val", "1", "--quiet"]
SAMPLING = ["--ats-stages", "1", "--k", "2"]
FUZZ = settings(max_examples=40, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def files():
    """A scratch directory holding a tiny valid weight file and PGM."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_weights(str(root / "tiny.atsw"), TINY,
                     init_weights(TINY, Rng(0), dtype=np.float32))
        save_pgm(str(root / "tiny.pgm"), Rng(1).uniform((32, 32)))
        yield root


def run_cli(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0 or (rc == 1 and err.getvalue().startswith("error: ")), \
        (rc, err.getvalue())


def mutate(draw, raw: bytes, head_len: int) -> bytes:
    """A truncation of raw, or raw with a few bits flipped (half of them
    inside its first head_len bytes, where the parser looks)."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, head_len - 1) | st.integers(0, len(raw) - 1))
        out[i] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


@st.composite
def weight_files(draw, raw: bytes) -> bytes:
    (hlen,) = struct.unpack("<Q", raw[6:14])
    if draw(st.booleans()):
        return mutate(draw, raw, 14 + hlen)
    header = json.loads(raw[14:14 + hlen])
    if draw(st.booleans()):
        header = draw(json_values)
    elif draw(st.booleans()):
        key = draw(st.sampled_from(ARCH_FIELDS) | st.text(max_size=6))
        header["config"][key] = draw(json_values)
    else:
        entry = draw(st.sampled_from(header["tensors"]))
        entry[draw(st.sampled_from(["name", "shape", "offset"]))] = draw(json_values)
    blob = json.dumps(header).encode()
    return raw[:6] + struct.pack("<Q", len(blob)) + blob + raw[14 + hlen:]


@st.composite
def pgm_files(draw, raw: bytes) -> bytes:
    if draw(st.booleans()):
        return mutate(draw, raw, 16)
    fields = [str(draw(st.integers(-3, 40) | st.just(32))) for _ in range(2)]
    fields.append(str(draw(st.integers(-3, 300) | st.just(255))))
    sep = draw(st.sampled_from([" ", "\n", "\n# note\n", "\t"]))
    return b"P5\n" + sep.join(fields).encode() + b"\n" + raw[-1024:]


def test_weight_file_bytes(files):
    raw = (files / "tiny.atsw").read_bytes()

    @FUZZ
    @given(weight_files(raw))
    def check(blob):
        (files / "fuzz.atsw").write_bytes(blob)
        run_cli(["eval", "--weights", str(files / "fuzz.atsw"),
                 "--out", str(files / "fuzz.json")] + SAMPLING + DATA)

    check()


def test_pgm_bytes(files):
    raw = (files / "tiny.pgm").read_bytes()

    @FUZZ
    @given(pgm_files(raw))
    def check(blob):
        (files / "fuzz.pgm").write_bytes(blob)
        run_cli(["masks", "--weights", str(files / "tiny.atsw"),
                 "--out-dir", str(files / "masks"),
                 "--images", str(files / "fuzz.pgm")] + SAMPLING + DATA)

    check()


manifest_floats = st.floats() | st.sampled_from(
    [0.0, -1.0, 1e-300, 1e300, 73.0, 74.0, float("inf"), float("nan")])
manifests = st.dictionaries(
    st.sampled_from(["--clutter-alpha", "--clutter-beta", "--clutter-scale"]),
    manifest_floats, min_size=1)


def test_manifest_floats(files):
    @FUZZ
    @given(manifests)
    @example({"--clutter-scale": 1e300})
    @example({"--clutter-scale": float("nan")})
    @example({"--clutter-alpha": -1.0})
    def check(flags):
        run_cli(["eval", "--weights", str(files / "tiny.atsw"),
                 "--out", str(files / "fuzz.json")]
                + [f"{flag}={value!r}" for flag, value in flags.items()]
                + SAMPLING + DATA)

    check()


optimizer_flags = st.dictionaries(
    st.sampled_from(["--lr", "--weight-decay"]), manifest_floats, min_size=1)


def test_optimizer_floats(files):
    @FUZZ
    @given(optimizer_flags)
    @example({"--lr": -1.0})
    @example({"--lr": 1e30})
    @example({"--weight-decay": float("nan")})
    def check(flags):
        with np.errstate(all="ignore"):
            run_cli(["finetune", "--weights", str(files / "tiny.atsw"),
                     "--out", str(files / "fuzz_ft.atsw"), "--epochs", "1"]
                    + [f"{flag}={value!r}" for flag, value in flags.items()]
                    + DATA)

    check()


configs = (st.dictionaries(st.sampled_from(ARCH_FIELDS) | st.text(max_size=6),
                           st.integers(-1, 12) | json_values, max_size=4)
           .map(json.dumps)
           | json_values.map(json.dumps)
           | st.text(max_size=12))


def test_config_json(files):
    @FUZZ
    @given(configs)
    @example("[" * 100000 + "]" * 100000)
    def check(body):
        (files / "fuzz.json").write_text(body)
        run_cli(["train", "--config", str(files / "fuzz.json"),
                 "--out", str(files / "fuzz_train.atsw"),
                 "--epochs", "0"] + DATA)

    check()
