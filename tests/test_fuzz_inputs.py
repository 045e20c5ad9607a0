"""Fuzzing of the inputs the CLI reads from outside: weight files, PGM
images, --config JSON and every float flag of the CLI's flag table (the
clutter flags, --lr, --weight-decay and --mac-fraction). Every input must
either load or end in `error: ...` with exit code 1; an exception escaping
main fails the test."""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from atsvit.cli import FLAG_BOUNDS, main
from atsvit.dataset import save_pgm
from atsvit.model import ARCH_FIELDS, ModelConfig, init_weights, save_weights
from atsvit.numerics import Rng
from helpers import commands_taking

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


flag_floats = st.floats() | st.sampled_from(
    [0.0, -1.0, 1e-300, 1e300, 73.0, 74.0, float("inf"), float("nan")])
# The float rows of the flag table, each fuzzed on the first of these
# commands that takes it; a list flag gets a list of floats.
COMMANDS = ("eval", "sweep", "finetune")
FLOAT_ROWS = {flag: parse for flag, least, _, parse, _ in FLAG_BOUNDS
              if isinstance(least, float)}
FUZZED_ON = {flag: next((c for c in COMMANDS if c in commands_taking(flag)), None)
             for flag in FLOAT_ROWS}
EXAMPLES = [{"--clutter-scale": 1e300}, {"--clutter-scale": float("nan")},
            {"--clutter-alpha": -1.0}, {"--lr": -1.0}, {"--lr": 1e30},
            {"--weight-decay": float("nan")}, {"--mac-fraction": 0.0},
            {"--mac-fraction": 1e300}]


def flag_text(flag: str):
    if FLOAT_ROWS[flag] is None:
        return flag_floats.map(repr)
    return st.lists(flag_floats, min_size=1, max_size=3).map(
        lambda values: ",".join(map(repr, values)))


def test_every_float_flag_is_fuzzed():
    assert FLOAT_ROWS and all(FUZZED_ON.values()), FUZZED_ON


@pytest.mark.parametrize("command", COMMANDS)
def test_float_flags(files, command):
    flags = sorted(f for f, c in FUZZED_ON.items() if c == command)
    argv = {"eval": ["--out", str(files / "fuzz.json")] + SAMPLING,
            "sweep": ["--out", str(files / "fuzz.csv"), "--ats-stages", "1"],
            "finetune": ["--out", str(files / "fuzz_ft.atsw"), "--epochs", "1"],
            }[command]

    def check(values):
        with np.errstate(all="ignore"):
            run_cli([command, "--weights", str(files / "tiny.atsw")] + argv
                    + [f"{flag}={text}" for flag, text in values.items()]
                    + DATA)

    for values in EXAMPLES:
        if set(values) <= set(flags):
            check = example({f: repr(v) for f, v in values.items()})(check)
    FUZZ(given(st.fixed_dictionaries(
        {}, optional={f: flag_text(f) for f in flags}).filter(bool))(check))()


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
