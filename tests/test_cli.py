import csv
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atsvit import autograd as ag
from atsvit import cli
from atsvit.cli import main, resolve_budget
from atsvit.dataset import DatasetManifest, generate, load_pgm
from atsvit.model import (ModelConfig, as_nodes, forward, init_weights,
                          load_weights, save_weights)
from atsvit.numerics import FAST_DTYPE, Rng
from atsvit.trainer import CHUNK, TRAIN_CHUNK, EvalResult, evaluate
from helpers import commands_taking


def read_csv_rows(path: str) -> list[dict]:
    """Rows of a metrics or sweep CSV; every row must carry schema 1."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        if row.get("schema") != "1":
            raise ValueError(f"{path}: unsupported schema {row.get('schema')!r}")
    return rows


def read_json(path: str) -> dict:
    with open(path) as f:
        obj = json.load(f)
    if obj.get("schema") != 1:
        raise ValueError(f"{path}: unsupported schema {obj.get('schema')!r}")
    return obj


TINY_ARCH = {"dim": 16, "heads": 2, "depth": 3, "mlp_ratio": 2}
DATA = ["--n-train", "16", "--n-val", "8", "--data-seed", "5"]
FAST = ["--epochs", "2", "--batch-size", "8", "--quiet"]


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "arch.json"
    path.write_text(json.dumps(TINY_ARCH))
    return str(path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_config):
    out = tmp_path_factory.mktemp("model") / "m.atsw"
    rc = main(["train", "--seed", "7", "--out", str(out),
               "--config", tiny_config] + DATA + FAST)
    assert rc == 0
    return str(out)


class TestTrain:
    def test_deterministic_weight_files(self, tmp_path, tiny_config):
        outs = []
        for name in ("a.atsw", "b.atsw"):
            out = tmp_path / name
            rc = main(["train", "--seed", "7", "--out", str(out),
                       "--config", tiny_config] + DATA + FAST)
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_metrics_csv_emitted_and_valid(self, trained):
        rows = read_csv_rows(trained + ".csv")
        assert len(rows) == 4
        assert {r["split"] for r in rows} == {"train", "val"}

    def test_missing_required_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # --out missing
        assert exc.value.code == 2

    def test_unknown_choice_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out", "x.atsw", "--policy", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["train", "finetune"])
    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_non_positive_batch_size_fails_cleanly(self, trained, tmp_path,
                                                   capsys, command, size):
        out = tmp_path / "m.atsw"
        source = ["--weights", trained] if command == "finetune" else []
        rc = main([command, "--out", str(out), "--epochs", "1", "--quiet",
                   "--batch-size", size] + source + DATA)
        assert rc == 1
        assert (capsys.readouterr().err
                == f"error: --batch-size must be at least 1, got {size}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "finetune"])
    def test_negative_epochs_fails_before_data(self, trained, tmp_path, capsys,
                                              monkeypatch, command):
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        monkeypatch.setattr("atsvit.cli.init_weights", no_weights)
        out = tmp_path / "m.atsw"
        source = ["--weights", trained] if command == "finetune" else []
        rc = main([command, "--out", str(out), "--epochs", "-1", "--quiet"]
                  + source + DATA)
        assert rc == 1
        assert (capsys.readouterr().err
                == "error: --epochs must be non-negative, got -1\n")
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("command", ["train", "finetune"])
    @pytest.mark.parametrize("flag, value", [
        ("--lr", "-1"), ("--lr", "nan"), ("--lr", "inf"),
        ("--weight-decay", "-1"), ("--weight-decay", "nan"),
        ("--weight-decay", "inf")])
    def test_bad_lr_or_weight_decay_fails_before_data(
            self, trained, tmp_path, capsys, monkeypatch, command, flag, value):
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        monkeypatch.setattr("atsvit.cli.init_weights", no_weights)
        out = tmp_path / "m.atsw"
        source = ["--weights", trained] if command == "finetune" else []
        rc = main([command, "--out", str(out), "--epochs", "1", "--quiet",
                   flag, value] + source + DATA)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {flag} must be finite and non-negative, "
            f"got {float(value)}\n")
        assert not any(tmp_path.iterdir())

    def test_zero_lr_and_weight_decay_are_allowed(self, trained, tmp_path):
        out = tmp_path / "ft.atsw"
        rc = main(["finetune", "--weights", trained, "--out", str(out),
                   "--lr", "0", "--weight-decay", "0"] + DATA + FAST)
        assert rc == 0
        _, before = load_weights(trained)
        _, after = load_weights(str(out))
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_divergence_in_the_validation_pass_is_diagnosed(
            self, tiny_config, tmp_path, capsys, recwarn):
        out = tmp_path / "m.atsw"
        rc = main(["train", "--out", str(out), "--config", tiny_config,
                   "--epochs", "1", "--batch-size", "16", "--lr", "1e30",
                   "--quiet"] + DATA)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: diverged at epoch 0, in the validation pass: ")
        assert err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


class TestEval:
    def test_json_schema_and_determinism(self, trained, tmp_path):
        payloads = []
        for name in ("e1.json", "e2.json"):
            out = tmp_path / name
            rc = main(["eval", "--weights", trained, "--out", str(out),
                       "--ats-stages", "1,2", "--k", "8", "--quiet"] + DATA)
            assert rc == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]
        obj = read_json(str(tmp_path / "e1.json"))
        assert obj["schema"] == 1
        assert 0.0 <= obj["top1"] <= 1.0
        assert set(obj["stages"]) == {"1", "2"}
        for stage in obj["stages"].values():
            assert sum(stage["hist"].values()) == obj["n_images"]

    def test_no_sampling_constant_macs(self, trained, tmp_path):
        out = tmp_path / "plain.json"
        main(["eval", "--weights", trained, "--out", str(out), "--quiet"] + DATA)
        obj = read_json(str(out))
        assert obj["mean_macs"] == obj["macs_p50"] == obj["macs_p90"]
        assert obj["mean_macs"] == obj["baseline_macs"]

    def test_missing_weight_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["eval", "--weights", str(tmp_path / "nope.atsw"),
                   "--out", str(tmp_path / "x.json"), "--quiet"] + DATA)
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_weight_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.atsw"
        bad.write_bytes(b"GARBAGE" * 10)
        rc = main(["eval", "--weights", str(bad),
                   "--out", str(tmp_path / "x.json"), "--quiet"] + DATA)
        assert rc == 1


def _rewrite_header(src: str, dst, edit) -> None:
    """Copy a weight file with its JSON header replaced by edit(header)."""
    raw = Path(src).read_bytes()
    (hlen,) = struct.unpack("<Q", raw[6:14])
    blob = json.dumps(edit(json.loads(raw[14:14 + hlen]))).encode()
    dst.write_bytes(raw[:6] + struct.pack("<Q", len(blob)) + blob
                    + raw[14 + hlen:])


def _with_patch_size(header, size):
    header["config"]["patch_size"] = size
    return header


class TestMalformedWeights:
    @pytest.mark.parametrize("edit", [
        lambda h: {k: v for k, v in h.items() if k != "tensors"},
        lambda h: [h],
        lambda h: _with_patch_size(h, 0),
        lambda h: {k: v for k, v in h.items() if k != "config"},
        lambda h: {**h, "config": {**h["config"], "heads": 3}},
        lambda h: {**h, "config": {**h["config"], "head": 3}},
    ], ids=["no-tensors-key", "list-header", "patch-size-0", "no-config-key",
            "heads-not-dividing-dim", "unknown-config-key"])
    def test_malformed_header_fails_cleanly(self, trained, tmp_path, capsys, edit):
        bad = tmp_path / "bad.atsw"
        _rewrite_header(trained, bad, edit)
        rc = main(["eval", "--weights", str(bad),
                   "--out", str(tmp_path / "x.json"), "--quiet"] + DATA)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_header_fails_cleanly(self, trained, tmp_path, capsys):
        raw = Path(trained).read_bytes()
        (hlen,) = struct.unpack("<Q", raw[6:14])
        blob = b"[" * 100000 + b"]" * 100000
        bad = tmp_path / "nested.atsw"
        bad.write_bytes(raw[:6] + struct.pack("<Q", len(blob)) + blob
                        + raw[14 + hlen:])
        rc = main(["eval", "--weights", str(bad),
                   "--out", str(tmp_path / "x.json"), "--quiet"] + DATA)
        assert rc == 1
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command,message", [("eval", "non-finite"),
                                                 ("finetune", "diverged")])
    def test_nan_weights_fail_cleanly(self, trained, tmp_path, capsys,
                                      command, message):
        cfg, tensors = load_weights(trained)
        tensors["patch.w"][0, 0] = np.nan
        bad = tmp_path / "nan.atsw"
        save_weights(str(bad), cfg, as_nodes(tensors))
        flags = FAST if command == "finetune" else ["--quiet"]
        rc = main([command, "--weights", str(bad),
                   "--out", str(tmp_path / "out")] + DATA + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_nan_cls_reported_by_the_add_after_the_copy(self, trained, tmp_path,
                                                          capsys):
        # concat_rows only copies cls into the token rows; the positional add
        # that follows is the first op to compute with it.
        cfg, tensors = load_weights(trained)
        tensors["cls"][0, 0] = np.nan
        bad = tmp_path / "nan.atsw"
        save_weights(str(bad), cfg, as_nodes(tensors))
        rc = main(["eval", "--weights", str(bad), "--out", str(tmp_path / "e.json"),
                   "--quiet"] + DATA)
        assert rc == 1
        assert capsys.readouterr().err == "error: non-finite values in add\n"


@pytest.mark.parametrize("body", ["[1, 2]", '"dim"', "null"],
                         ids=["list", "string", "null"])
def test_non_object_config_fails_cleanly(tmp_path, capsys, body):
    cfg = tmp_path / "arch.json"
    cfg.write_text(body)
    rc = main(["train", "--seed", "0", "--out", str(tmp_path / "m.atsw"),
               "--config", str(cfg)] + DATA + FAST)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_config_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "arch.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    rc = main(["train", "--seed", "0", "--out", str(tmp_path / "m.atsw"),
               "--config", str(cfg)] + DATA + FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def no_data(*args, **kwargs):
    raise AssertionError("images generated for invalid input")


def test_heads_not_dividing_dim_fails_before_data(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "arch.json"
    cfg.write_text(json.dumps({"heads": 3}))
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    rc = main(["train", "--config", str(cfg), "--epochs", "0", "--n-train", "1",
               "--n-val", "1", "--out", str(tmp_path / "w.atsw"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == "error: dim 64 not divisible by heads 3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arch.json"]


def test_unknown_config_key_fails_before_data(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "arch.json"
    cfg.write_text(json.dumps({"head": 3}))
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    rc = main(["train", "--config", str(cfg), "--epochs", "0", "--n-train", "1",
               "--n-val", "1", "--out", str(tmp_path / "w.atsw"), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown config keys ['head']" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arch.json"]


def no_weights(*args, **kwargs):
    raise AssertionError("weights made for invalid input")


# Architectures the generated 32x32, 1-channel, 4-class data does not fit.
MISFITS = {"num_classes": ({"num_classes": 2}, "has num_classes 2"),
           "image_size": ({"image_size": 64}, "image_size 64"),
           "channels": ({"channels": 3}, "with 3 channels")}


@pytest.mark.parametrize("misfit", list(MISFITS))
def test_config_that_does_not_fit_the_data_fails_before_weights(
        tmp_path, capsys, monkeypatch, misfit):
    fields, message = MISFITS[misfit]
    cfg = tmp_path / "arch.json"
    cfg.write_text(json.dumps(fields))
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    monkeypatch.setattr("atsvit.cli.init_weights", no_weights)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "w.atsw"),
               "--quiet"] + DATA + FAST)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arch.json"]


@pytest.mark.parametrize("misfit", list(MISFITS))
@pytest.mark.parametrize("command", ["eval", "finetune", "sweep"])
def test_weight_file_that_does_not_fit_the_data_fails_before_data(
        tmp_path, capsys, monkeypatch, command, misfit):
    fields, message = MISFITS[misfit]
    arch = ModelConfig(**TINY_ARCH, **fields)
    weights = tmp_path / "w.atsw"
    save_weights(str(weights), arch, init_weights(arch, Rng(0)))
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    flags = {"eval": ["--quiet"], "finetune": FAST, "sweep": ["--quiet"]}
    rc = main([command, "--weights", str(weights),
               "--out", str(tmp_path / "out")] + DATA + flags[command])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.atsw"]


CLUTTER_RULES = {"--clutter-scale": "in [0, 73.14]",
                 "--clutter-alpha": "finite and positive",
                 "--clutter-beta": "finite and positive"}


@pytest.mark.parametrize("flag,value", [
    ("--clutter-scale", "inf"), ("--clutter-scale", "1e300"),
    ("--clutter-scale", "nan"), ("--clutter-scale", "-1"),
    ("--clutter-scale", "74"), ("--clutter-alpha", "-1"),
    ("--clutter-alpha", "nan"), ("--clutter-beta", "0"),
    ("--clutter-beta", "inf")])
def test_bad_clutter_flag_fails_before_data(trained, tmp_path, capsys,
                                            monkeypatch, flag, value):
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    out = tmp_path / "e.json"
    rc = main(["eval", "--weights", trained, "--out", str(out),
               f"{flag}={value}", "--quiet"] + DATA)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {flag} must be {CLUTTER_RULES[flag]}, got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--n-train", "0"], "--n-train must be at least 1, got 0"),
    ("sweep", ["--n-val", "-1"], "--n-val must be at least 1, got -1"),
    ("finetune", ["--batch-size", "0"], "--batch-size must be at least 1, got 0"),
    ("eval", ["--k", "0"], "--k must be in [1, 16], got 0"),
    ("train", ["--ats-stages", "2", "--k", "17"],
     "--k must be in [1, 16], got 17"),
    ("eval", ["--ats-stages", "7"], "--ats-stages must be in [0, 2], got 7"),
    ("sweep", ["--ats-stages", "7"], "--ats-stages must be in [0, 2], got 7"),
    ("eval", ["--clutter-alpha", "0"],
     "--clutter-alpha must be finite and positive, got 0.0"),
    # Refused though no stage samples, so the budget would go unread.
    ("eval", ["--k", "17"], "--k must be in [1, 16], got 17"),
    # Refused though --mac-fraction, not --budgets, picks the rows.
    ("sweep", ["--mac-fraction", "0.5", "--budgets", "99"],
     "--budgets must be in [1, 16], got 99"),
    # Sweep's default stages 2,3,4,5, and an empty list, which takes them.
    ("sweep", [], "--ats-stages must be in [0, 2], got 3"),
    ("sweep", ["--ats-stages", ""], "--ats-stages must be in [0, 2], got 3")])
def test_out_of_bounds_flag_is_named_before_data(
        trained, tiny_config, tmp_path, capsys, monkeypatch, command, flags,
        message):
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    monkeypatch.setattr("atsvit.cli.init_weights", no_weights)
    monkeypatch.chdir(tmp_path)
    source = (["--config", tiny_config] if command == "train"
              else ["--weights", trained])
    out = ["--out", "x"]
    rc = main([command, "--quiet"] + source + out + DATA + flags)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def out_of_bounds(least, most) -> list:
    """Values just outside [least, most], and for a float flag nan and inf."""
    if isinstance(least, int):
        return [least - 1] + ([most + 1] if isinstance(most, int) else [])
    return ([math.nextafter(least, -math.inf)]
            + ([math.nextafter(most, math.inf)] if most < math.inf else [])
            + [math.nan, math.inf])


# The named most values for the tiny model trained on DATA.
TINY_MOSTS = {"patch count": 16, "depth - 1": 2, "--n-val": 8}
BOUND_CASES = [(command, flag, value, rule.format(most=TINY_MOSTS.get(most, most)))
               for flag, least, most, _, rule in cli.FLAG_BOUNDS
               for command in commands_taking(flag) or [None]
               for value in out_of_bounds(least, TINY_MOSTS.get(most, most))]


@pytest.mark.parametrize("command, flag, value, rule", BOUND_CASES)
def test_every_flag_bound_is_refused_before_data(
        trained, tiny_config, tmp_path, capsys, monkeypatch, command, flag,
        value, rule):
    assert command, f"no subcommand takes {flag}, a row of FLAG_BOUNDS"
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    monkeypatch.setattr("atsvit.cli.init_weights", no_weights)
    monkeypatch.chdir(tmp_path)
    source = (["--config", tiny_config] if command == "train"
              else ["--weights", trained])
    out = ["--out-dir" if command == "masks" else "--out", "x"]
    # Sweep's default stages 2-5 do not fit the tiny model's 3 blocks.
    stages = ["--ats-stages", "2"] if command == "sweep" else []
    rc = main([command, "--quiet"] + source + out + DATA + stages
              + [f"{flag}={value!r}"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag} must be {rule}, got {value}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--out", "nodir/w.atsw"],
     "--out must be a file in an existing directory, got nodir/w.atsw"),
    ("train", ["--out", "w.atsw", "--metrics", "nodir/m.csv"],
     "--metrics must be a file in an existing directory, got nodir/m.csv"),
    # train's default --metrics is --out with .csv appended.
    ("train", ["--out", "w.atsw"],
     "--metrics must be a file in an existing directory, got w.atsw.csv"),
    ("finetune", ["--out", "w.atsw", "--metrics", "nodir/m.csv"],
     "--metrics must be a file in an existing directory, got nodir/m.csv"),
    ("eval", ["--out", "d"],
     "--out must be a file in an existing directory, got d"),
    ("sweep", ["--out", "nodir/s.csv", "--ats-stages", "2"],
     "--out must be a file in an existing directory, got nodir/s.csv"),
    ("train", ["--out", "w.atsw", "--metrics", "./w.atsw"],
     "--metrics must not be the --out file, got ./w.atsw"),
    ("masks", ["--out-dir", "f"],
     "--out-dir must be a directory or a new path inside one, got f"),
    ("masks", ["--out-dir", "f/m"],
     "--out-dir must be a directory or a new path inside one, got f/m")])
def test_unwritable_output_path_is_named_before_work(
        trained, tiny_config, tmp_path, capsys, monkeypatch, command, flags,
        message):
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    monkeypatch.setattr("atsvit.cli.init_weights", no_weights)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "w.atsw.csv").mkdir()
    (tmp_path / "f").write_text("")
    source = (["--config", tiny_config] if command == "train"
              else ["--weights", trained])
    rc = main([command, "--quiet"] + source + DATA + flags)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "f", "w.atsw.csv"]
    assert not any((tmp_path / "d").iterdir())


def four_patch_weights(tmp_path) -> str:
    """A weight file of the tiny architecture with 16-pixel patches, so 4
    patches per generated image."""
    arch = ModelConfig(**TINY_ARCH, patch_size=16)
    path = tmp_path / "w4.atsw"
    save_weights(str(path), arch, init_weights(arch, Rng(0)))
    return str(path)


class TestResolveBudget:
    """resolve_budget over a hand-made scan whose cost is not monotone in k:
    k=4 costs more than k=5 and k=6."""
    BASELINE = 1000.0
    MACS = {k: 1000.0 * (0.4 + 0.03 * k) for k in range(1, 17)} | {4: 900.0}
    SCAN = [(k, EvalResult(top1=k / 100, mean_loss=0.0, mean_macs=m,
                           macs=np.zeros(0, dtype=np.int64), kprime={}))
            for k, m in MACS.items()]

    def test_largest_qualifying_budget_past_a_costly_one(self):
        # A bisection would probe k=8, then k=4 (0.9 > 0.6) and stop at 3.
        [(k, ev)] = resolve_budget(self.SCAN, [0.6], self.BASELINE)
        assert k == 6
        assert ev.top1 == 0.06

    def test_one_answer_per_fraction_in_any_scan_order(self):
        for scan in (self.SCAN, self.SCAN[::-1]):
            got = resolve_budget(scan, [0.5, 0.6, 0.8], self.BASELINE)
            assert [(k, ev.top1) for k, ev in got] == [(3, 0.03), (6, 0.06),
                                                       (13, 0.13)]

    def test_fraction_below_every_cost_gives_the_smallest_budget(self):
        for scan in (self.SCAN, self.SCAN[::-1]):
            [(k, ev)] = resolve_budget(scan, [0.1], self.BASELINE)
            assert k == 1
            assert ev.top1 == 0.01


class TestSweep:
    def test_row_count_and_schema(self, trained, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--weights", trained, "--out", str(out),
                   "--ats-stages", "1,2", "--budgets", "2,4,8",
                   "--policies", "inverse,topk",
                   "--scorings", "cls-vnorm,cls"] + DATA)
        assert rc == 0
        rows = read_csv_rows(str(out))
        assert len(rows) == 2 * 2 * 3
        assert {r["policy"] for r in rows} == {"inverse", "topk"}

    def test_mean_macs_nondecreasing_in_budget(self, trained, tmp_path):
        out = tmp_path / "sweep2.csv"
        main(["sweep", "--weights", trained, "--out", str(out),
              "--ats-stages", "1,2", "--budgets", "1,2,4,8,16",
              "--policies", "inverse", "--scorings", "cls-vnorm"] + DATA)
        macs = [float(r["mean_macs"]) for r in read_csv_rows(str(out))]
        assert all(a <= b + 1e-9 for a, b in zip(macs, macs[1:]))

    def test_deterministic(self, trained, tmp_path):
        blobs = []
        for name in ("s1.csv", "s2.csv"):
            out = tmp_path / name
            main(["sweep", "--weights", trained, "--out", str(out),
                  "--ats-stages", "1", "--budgets", "4,8"] + DATA)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_mac_fraction_targets(self, trained, tmp_path):
        out = tmp_path / "frac.csv"
        rc = main(["sweep", "--weights", trained, "--out", str(out),
                   "--ats-stages", "1,2", "--mac-fraction", "0.8",
                   "--policies", "inverse", "--scorings", "cls-vnorm"] + DATA)
        assert rc == 0
        rows = read_csv_rows(str(out))
        assert len(rows) == 1
        assert float(rows[0]["mac_fraction"]) <= 0.8 + 1e-6

    def test_mac_fraction_rows_match_budget_rows(self, trained, tmp_path):
        common = ["--weights", trained, "--ats-stages", "1,2",
                  "--policies", "inverse", "--scorings", "cls-vnorm"] + DATA
        frac, grid = tmp_path / "frac.csv", tmp_path / "grid.csv"
        assert main(["sweep", "--out", str(frac),
                     "--mac-fraction", "0.5,0.6,0.8"] + common) == 0
        budgets = ",".join(r["k"] for r in read_csv_rows(str(frac)))
        assert main(["sweep", "--out", str(grid),
                     "--budgets", budgets] + common) == 0
        assert frac.read_bytes() == grid.read_bytes()

    @pytest.mark.parametrize("rows", [["--budgets", "2,4,8"],
                                      ["--mac-fraction", "0.5,0.8"]])
    def test_one_evaluate_call_per_sweep(self, trained, tmp_path, monkeypatch,
                                         rows):
        calls = []
        monkeypatch.setattr(cli, "evaluate", lambda cfgs, *a, **kw:
                            calls.append(cfgs) or evaluate(cfgs, *a, **kw))
        assert main(["sweep", "--weights", trained, "--out",
                     str(tmp_path / "s.csv"), "--ats-stages", "1,2",
                     "--policies", "inverse,topk", "--scorings",
                     "cls-vnorm,cls"] + rows + DATA) == 0
        budgets = [2, 4, 8] if rows[0] == "--budgets" else range(1, 17)
        [cfgs] = calls
        assert [(c.sampler.policy.value, c.scoring.value, c.sampler.k)
                for c in cfgs] == [(p, s, k) for p in ("inverse", "topk")
                                   for s in ("cls-vnorm", "cls")
                                   for k in budgets]

    @pytest.mark.parametrize("fractions", ["nan,-1", "0", "inf", "0.5,nan"])
    def test_bad_mac_fraction_fails_before_data(self, trained, tmp_path, capsys,
                                                monkeypatch, fractions):
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        out = tmp_path / "frac.csv"
        rc = main(["sweep", "--weights", trained, "--out", str(out),
                   "--ats-stages", "1,2", f"--mac-fraction={fractions}"] + DATA)
        assert rc == 1
        first_bad = next(f for f in map(float, fractions.split(","))
                         if not 0 < f < math.inf)
        assert capsys.readouterr().err == (
            f"error: --mac-fraction must be finite and positive, "
            f"got {first_bad}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--budgets", "", " needs at least one value, got ''"),
        ("--budgets", "2,x", ": invalid literal for int() with base 10: 'x'"),
        ("--budgets", "0", " must be in [1, 16], got 0"),
        ("--budgets", "4,17", " must be in [1, 16], got 17"),
        ("--mac-fraction", "", " needs at least one value, got ''"),
        ("--mac-fraction", "0.5,x", ": could not convert string to float: 'x'"),
        ("--policies", "", " needs at least one value, got ''"),
        ("--policies", "inverse,bogus", ": 'bogus' is not a valid Policy"),
        ("--scorings", ",", " needs at least one value, got ','"),
        ("--scorings", "bogus", ": 'bogus' is not a valid Scoring"),
    ])
    def test_bad_row_flag_fails_before_data(self, trained, tmp_path, capsys,
                                            monkeypatch, flag, value, message):
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--weights", trained, "--out", str(out),
                   "--ats-stages", "1,2", f"{flag}={value}"] + DATA)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag}{message}\n"
        assert not out.exists()

    def test_default_budgets_are_unread_beside_mac_fraction(self, tmp_path):
        # 16-pixel patches give 4 patches, fewer than the default grid's 8, 16.
        weights = four_patch_weights(tmp_path)
        out = tmp_path / "frac.csv"
        assert main(["sweep", "--weights", weights, "--out", str(out),
                     "--ats-stages", "1", "--mac-fraction", "0.5"]
                    + DATA) == 0
        assert len(read_csv_rows(str(out))) == 1

    def test_default_budgets_must_fit_the_model(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        out = tmp_path / "grid.csv"
        rc = main(["sweep", "--weights", four_patch_weights(tmp_path),
                   "--out", str(out), "--ats-stages", "1"] + DATA)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --budgets must be in [1, 4], got 8\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--k", "4"), ("--policy", "topk"),
                                            ("--scoring", "cls")])
    def test_single_sampler_flag_is_a_usage_error(self, trained, tmp_path,
                                                  flag, value):
        # A sweep takes every row's sampler setting from its row flags.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--weights", trained, "--out",
                  str(tmp_path / "sweep.csv"), flag, value] + DATA)
        assert exc.value.code == 2


@pytest.mark.parametrize("command,extra", [
    ("train", ["--out", "w.atsw"]), ("eval", ["--out", "e.json"]),
    ("sweep", ["--out", "s.csv"]), ("masks", ["--out-dir", "masks"])])
@pytest.mark.parametrize("value,message", [
    ("a", "--ats-stages: invalid literal for int() with base 10: 'a'"),
    ("1,x", "--ats-stages: invalid literal for int() with base 10: 'x'"),
    (",", "--ats-stages needs at least one value, got ','")])
def test_bad_ats_stages_names_the_flag(trained, tmp_path, capsys, monkeypatch,
                                       command, extra, value, message):
    monkeypatch.setattr("atsvit.cli.generate", no_data)
    monkeypatch.chdir(tmp_path)
    weights = [] if command == "train" else ["--weights", trained]
    rc = main([command, f"--ats-stages={value}", "--quiet"]
              + weights + extra + DATA)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text,stages", [
    ("", ()), ("  ", ()), ("2,", (2,)), (" 3, 1,3 ", (1, 3)), ("0,,2", (0, 2))])
def test_ats_stages_parse_like_the_row_flags(text, stages):
    assert cli._parse_stages("--ats-stages", text) == stages


@pytest.mark.parametrize("command,extra", [
    ("finetune", ["--out", "ft.atsw"]), ("eval", ["--out", "e.json"]),
    ("sweep", ["--out", "s.csv"]), ("masks", ["--out-dir", "masks"])])
def test_config_on_weight_loading_command_is_a_usage_error(
        trained, tiny_config, tmp_path, monkeypatch, command, extra):
    # These commands take the architecture from the weight file.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--weights", trained, "--config", tiny_config]
             + extra + DATA)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


class TestMasks:
    def test_no_sampling_all_white(self, trained, tmp_path):
        out = tmp_path / "masks_plain"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--count", "2"] + DATA)
        assert rc == 0
        mask = load_pgm(str(out / "img000_final.pgm"))
        assert (mask == 1.0).all()

    def test_nesting_and_cls_exclusion(self, trained, tmp_path):
        out = tmp_path / "masks_ats"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--ats-stages", "1,2", "--k", "6", "--count", "3"] + DATA)
        assert rc == 0
        for i in range(3):
            obj = read_json(str(out / f"img{i:03d}.json"))
            stages = sorted(obj["stages"], key=int)
            previous = None
            for s in stages:
                entry = obj["stages"][s]
                kept = set(entry["kept_original"])
                assert 0 in kept  # CLS survives in the token set...
                sample = entry["sample"]
                assert sample["kept"][0] == 0
                if previous is not None:
                    assert kept <= previous
                previous = kept
                # ...but the spatial mask only ever shows patches
                mask = load_pgm(str(out / f"img{i:03d}_stage{s}.pgm"))
                lit_patches = int((mask[::8, ::8] == 1.0).sum())
                assert lit_patches == len(kept) - 1

    def test_json_records_each_stage_sample(self, trained, tmp_path):
        out = tmp_path / "masks_json"
        flags = ["--ats-stages", "0,2", "--k", "5", "--seed", "3"]
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--count", "2"] + flags + DATA)
        assert rc == 0
        arch, tensors = load_weights(trained)
        cfg = arch.with_sampling((0, 2), k=5)
        weights = as_nodes(tensors, dtype=FAST_DTYPE)
        _, val = generate(DatasetManifest(seed=5, n_train=16, n_val=8), train=False)
        for i in range(2):
            obj = json.loads((out / f"img{i:03d}.json").read_text())
            with ag.no_grad():
                trace = forward(val[i].image, cfg, weights, rng=Rng(3, stream=1000 + i))
            assert obj["stages"] == {
                str(s): {"sample": {"kept": list(r.kept), "k_prime": r.k_prime,
                                    "psi": list(r.psi)},
                         "kept_original": list(trace.alive[s])}
                for s, r in trace.samples.items()}
            assert obj["runtime"] == cfg.runtime_dict()

    def test_negative_count_fails_cleanly(self, trained, tmp_path, capsys):
        out = tmp_path / "masks_neg"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--count", "-1"] + DATA)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --count")
        assert not out.exists()

    def test_count_above_n_val_fails_before_any_image(self, trained, tmp_path,
                                                      capsys, monkeypatch):
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        monkeypatch.setattr("atsvit.cli.forward", no_data)
        out = tmp_path / "masks_short"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--ats-stages", "1", "--k", "4"] + DATA
                  + ["--count", "10", "--n-val", "3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --count must be in [0, 3] (at most --n-val), got 10\n")
        assert not out.exists()

    def test_count_with_images_fails_before_any_image(self, trained, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.setattr("atsvit.cli.load_pgm", no_data)
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        out = tmp_path / "masks_count"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--ats-stages", "1", "--k", "4", "--images", "a.pgm",
                   "--count", "5"] + DATA)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --count applies only to generated images, not to --images\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--count", "10", "--n-val", "3"],
         "--count must be in [0, 3] (at most --n-val), got 10"),
        (["--clutter-alpha", "0"],
         "--clutter-alpha must be finite and positive, got 0.0")])
    def test_bounds_come_first_with_images(self, trained, tmp_path, capsys,
                                           monkeypatch, flags, message):
        # The bounds are checked before the rule that --count does not go
        # with --images, and a data flag is checked though --images leaves
        # it unread.
        monkeypatch.setattr("atsvit.cli.load_pgm", no_data)
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        out = tmp_path / "masks_bounds"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--images", "a.pgm"] + DATA + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("misfit", ["image_size", "channels"])
    def test_generated_images_must_fit_the_model(self, tmp_path, capsys,
                                                 monkeypatch, misfit):
        fields, message = MISFITS[misfit]
        arch = ModelConfig(**TINY_ARCH, **fields)
        weights = tmp_path / "w.atsw"
        save_weights(str(weights), arch, init_weights(arch, Rng(0)))
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        rc = main(["masks", "--weights", str(weights), "--out-dir",
                   str(tmp_path / "m"), "--ats-stages", "1", "--k", "2"] + DATA)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the generated images are 32x32 ")
        assert message in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.atsw"]

    def test_any_class_count_masks_generated_images(self, tmp_path):
        # Masks computes no loss, so a 2-class model fits the generated data.
        arch = ModelConfig(**TINY_ARCH, num_classes=2)
        weights = tmp_path / "w.atsw"
        save_weights(str(weights), arch, init_weights(arch, Rng(0)))
        out = tmp_path / "m"
        assert main(["masks", "--weights", str(weights), "--out-dir", str(out),
                     "--count", "2"] + DATA) == 0
        assert sorted(p.name for p in out.glob("img*.json")) == [
            "img000.json", "img001.json"]

    def test_default_count_is_eight_generated_images(self, trained, tmp_path):
        out = tmp_path / "masks_default"
        assert main(["masks", "--weights", trained, "--out-dir", str(out)]
                    + DATA) == 0
        assert sorted(p.name for p in out.glob("img*.json")) == [
            f"img{i:03d}.json" for i in range(8)]

    def test_images_without_paths_fails_before_any_image(
            self, trained, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("atsvit.cli.load_pgm", no_data)
        monkeypatch.setattr("atsvit.cli.generate", no_data)
        out = tmp_path / "masks_empty"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--images"] + DATA)
        assert rc == 1
        assert (capsys.readouterr().err
                == "error: --images needs at least one PGM path\n")
        assert not out.exists()

    def test_default_count_is_at_most_n_val(self, trained, tmp_path):
        out = tmp_path / "masks_few"
        assert main(["masks", "--weights", trained, "--out-dir", str(out)]
                    + DATA + ["--n-val", "3"]) == 0
        assert sorted(p.name for p in out.glob("img*.json")) == [
            f"img{i:03d}.json" for i in range(3)]

    def test_n_val_below_one_names_no_count(self, trained, tmp_path, capsys):
        out = tmp_path / "masks_none"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out)]
                  + DATA + ["--n-val", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--count" not in err
        assert not out.exists()

    def test_external_pgm_input(self, trained, tmp_path):
        from atsvit.dataset import save_pgm
        img = tmp_path / "input.pgm"
        save_pgm(str(img), Rng(3).uniform((32, 32)))
        out = tmp_path / "masks_ext"
        rc = main(["masks", "--weights", trained, "--out-dir", str(out),
                   "--ats-stages", "1", "--k", "4",
                   "--images", str(img)] + DATA)
        assert rc == 0
        assert (out / "img000.json").exists()

    def test_any_image_size_masks_pgms_of_its_size(self, tmp_path):
        from atsvit.dataset import save_pgm
        arch = ModelConfig(**TINY_ARCH, image_size=64)
        weights = tmp_path / "w.atsw"
        save_weights(str(weights), arch, init_weights(arch, Rng(0)))
        img = tmp_path / "input.pgm"
        save_pgm(str(img), Rng(3).uniform((64, 64)))
        out = tmp_path / "masks_64"
        assert main(["masks", "--weights", str(weights), "--out-dir", str(out),
                     "--ats-stages", "1", "--k", "4", "--images", str(img)]
                    + DATA) == 0
        assert (out / "img000_final.pgm").exists()


class TestFinetuneCommand:
    def test_finetune_protocol(self, trained, tmp_path):
        out = tmp_path / "ft.atsw"
        rc = main(["finetune", "--weights", trained, "--out", str(out),
                   "--ats-stages", "1,2"] + DATA + FAST)
        assert rc == 0
        rows = read_csv_rows(str(out) + ".csv")
        # sampling was active during fine-tuning at the full budget
        val = [r for r in rows if r["split"] == "val"][-1]
        assert "1:" in val["mean_kprime_per_stage"]
        assert "2:" in val["mean_kprime_per_stage"]
        kprimes = [float(part.split(":")[1])
                   for part in val["mean_kprime_per_stage"].split(";")]
        assert all(k <= 16.0 for k in kprimes)

    def test_defaults_to_full_budget(self, trained, tmp_path, monkeypatch):
        seen = []

        def fake_train(cfg, weights, *args, **kwargs):
            seen.append(cfg)
            return []

        monkeypatch.setattr(cli, "train", fake_train)
        rc = main(["finetune", "--weights", trained, "--out",
                   str(tmp_path / "ft.atsw"), "--ats-stages", "1"] + DATA + FAST)
        assert rc == 0
        [cfg] = seen
        assert cfg.ats_stages == (1,)
        assert cfg.sampler.k == cfg.num_patches == 16

    def test_weight_count_preserved(self, trained, tmp_path):
        from atsvit.model import load_weights
        out = tmp_path / "ft2.atsw"
        main(["finetune", "--weights", trained, "--out", str(out),
              "--ats-stages", "1"] + DATA + FAST)
        _, before = load_weights(trained)
        _, after = load_weights(str(out))
        assert {k: v.shape for k, v in before.items()} == \
               {k: v.shape for k, v in after.items()}


REPO = Path(__file__).resolve().parent.parent


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """eval and sweep on the stored baseline weights, and one epoch of
    train, write the same bytes whether BLAS runs one thread or two, over
    one full chunk of stacked prefixes and one partial one (of evaluate's
    chunks, and of train's, whose weight gradients are per-image stacked
    products)."""
    stored = ["--weights", str(REPO / "perfbench" / "weights" / "baseline.atsw"),
              "--n-val", str(CHUNK + 3)]
    commands = {
        "eval.json": ["eval", "--ats-stages", "2,3,4,5", "--k", "8", *stored],
        "sweep.csv": ["sweep", "--budgets", "2,8", "--scorings", "cls-vnorm,rowsum",
                      *stored],
        "train.atsw": ["train", "--epochs", "1", "--n-train",
                       str(2 * TRAIN_CHUNK + 3), "--batch-size",
                       str(2 * TRAIN_CHUNK), "--n-val", "4"],
    }
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = {name: [] for name in commands}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        for name, argv in commands.items():
            out = tmp_path / f"threads{threads}_{name}"
            subprocess.run(
                [sys.executable, "-m", "atsvit", *argv, "--out", str(out),
                 "--quiet"],
                env=env, check=True, timeout=300)
            outputs[name].append(out.read_bytes())
    for name, (one, two) in outputs.items():
        assert one == two, f"{name} differs between 1 and 2 BLAS threads"
