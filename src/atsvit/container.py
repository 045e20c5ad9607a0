"""Binary tensor container: magic line, length-prefixed JSON header, then a
little-endian float32 payload. Used for model weights and cached datasets.

Layout: magic (6 bytes) | u64 LE header length | header JSON (UTF-8) |
payload. The header carries a named tensor manifest with shapes and byte
offsets relative to the payload start; offsets are contiguous and appear in
header order.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np


class ContainerError(Exception):
    """Base class for malformed container files."""


class BadMagicError(ContainerError):
    pass


class TruncatedPayloadError(ContainerError):
    pass


def write(path: str, magic: bytes, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write tensors (converted to little-endian float32) under a JSON header."""
    if len(magic) != 6 or not magic.endswith(b"\n"):
        raise ValueError("magic must be 6 bytes ending in newline")
    manifest = []
    payload = bytearray()
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        manifest.append({"name": name, "shape": list(data.shape),
                         "offset": len(payload)})
        payload += data.tobytes()
    header = dict(meta)
    header["tensors"] = manifest
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(payload)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _manifest(path: str, header) -> list[dict]:
    """The header's tensor entries, each checked to carry a string name, a
    list of non-negative int dims and a non-negative int offset."""
    entries = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(entries, list):
        raise ContainerError(f"{path}: header is not an object with a tensors list")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_count(entry.get("offset"))
                and isinstance(entry.get("shape"), list)
                and all(_is_count(d) for d in entry["shape"])):
            raise ContainerError(f"{path}: malformed manifest entry {i}")
    return entries


def read(path: str, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Read header metadata and float32 tensors; validates magic, header
    shape, manifest entries and contiguity, and payload length."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:6] != magic:
        raise BadMagicError(f"bad magic in {path}: {raw[:6]!r}")
    if len(raw) < 14:
        raise TruncatedPayloadError(f"{path}: missing header")
    (hlen,) = struct.unpack("<Q", raw[6:14])
    if len(raw) < 14 + hlen:
        raise TruncatedPayloadError(f"{path}: truncated header")
    header = json.loads(raw[14:14 + hlen].decode("utf-8"))
    payload = raw[14 + hlen:]

    tensors: dict[str, np.ndarray] = {}
    expected = 0
    for entry in _manifest(path, header):
        if entry["offset"] != expected:
            raise ContainerError(f"{path}: non-contiguous manifest at {entry['name']}")
        size = math.prod(entry["shape"])
        nbytes = size * 4
        if entry["offset"] + nbytes > len(payload):
            raise TruncatedPayloadError(
                f"{path}: truncated payload at tensor {entry['name']}")
        flat = np.frombuffer(payload, dtype="<f4", count=size, offset=entry["offset"])
        tensors[entry["name"]] = flat.reshape(entry["shape"]).copy()
        expected += nbytes
    if expected != len(payload):
        raise TruncatedPayloadError(
            f"{path}: payload length {len(payload)} != manifest total {expected}")
    meta = {k: v for k, v in header.items() if k != "tensors"}
    return meta, tensors
