"""The CLI's artifacts keep their bytes: the recipe of
scripts/artifact_hashes.py, run in process, must give the hash lines
recorded in scripts/artifact_hashes.txt. The bytes are only promised on the
build that the script's RECORDED_BUILD names; on another the test skips."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_hashes.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def by_path(lines: list[str]) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_cli_artifacts_keep_their_bytes(tmp_path):
    script = load_script()
    try:
        build = script.build()
    except (KeyError, TypeError) as exc:
        pytest.skip(f"hashes recorded on {script.RECORDED_BUILD}; this numpy "
                    f"reports no BLAS build ({exc!r})")
    if build != script.RECORDED_BUILD:
        pytest.skip(f"hashes recorded on {script.RECORDED_BUILD}, not on {build}")
    want = by_path(script.RECORD.read_text().splitlines())
    got = by_path(script.hash_lines(tmp_path))
    changed = sorted(p for p in want.keys() | got.keys()
                     if want.get(p) != got.get(p))
    assert not changed, (f"{len(changed)} of {len(want)} artifacts changed "
                         f"bytes, appeared or went missing: {changed}")
