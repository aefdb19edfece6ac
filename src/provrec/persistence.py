"""Versioned JSON checkpoints shared by every model kind.

A checkpoint wraps a model payload with a format version, a kind tag, and a
content hash; loading verifies all three. Every float array in a payload is
the base64 text of its little-endian float64 bytes (``numerics.encode_array``),
so a save/load cycle reproduces weights bit for bit, and loading refuses
arrays that are not base64, do not fill their shape or hold non-finite
values. Version-1 checkpoints, which stored arrays as JSON lists of shortest
round-trip floats, still load bit for bit; saving always writes version 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from .evaluation import PipelineModels
from .features import GnnEncoder
from .matching import ExemplarSet, SiameseModel

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)

_KINDS = {
    "gnn_encoder": GnnEncoder,
    "siamese_matcher": SiameseModel,
    "exemplar_set": ExemplarSet,
    "bundle": PipelineModels,
}


class ModelFormatError(ValueError):
    """Wrong version, wrong kind, corrupt payload, or hash mismatch."""


def _kind_of(model) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            return kind
    raise ModelFormatError(f"cannot checkpoint object of type {type(model).__name__}")


def _payload_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_model(model, path, *, force: bool = False) -> dict:
    """Write a checkpoint; refuses to overwrite unless ``force`` is set.

    The file is written beside ``path`` and renamed over it, so a save that
    fails part way leaves any earlier checkpoint there as it was.
    """
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True to overwrite")
    payload = model.to_dict()
    envelope = {
        "format_version": FORMAT_VERSION,
        "kind": _kind_of(model),
        "content_hash": _payload_hash(payload),
        "payload": payload,
    }
    text = json.dumps(envelope)
    path.parent.mkdir(parents=True, exist_ok=True)
    # unique per process and thread; open() gives it the umask's permissions
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return envelope


def load_model(path, expect_kind: str | None = None):
    """Read and verify a checkpoint; returns the reconstructed model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(envelope, dict):
        raise ModelFormatError(f"{path}: a checkpoint must hold a JSON object")
    for key in ("format_version", "kind", "content_hash", "payload"):
        if key not in envelope:
            raise ModelFormatError(f"{path}: missing checkpoint field {key!r}")
    if envelope["format_version"] not in _READABLE_VERSIONS:
        raise ModelFormatError(
            f"{path}: format_version {envelope['format_version']!r} "
            f"is not one of {_READABLE_VERSIONS}"
        )
    kind = envelope["kind"]
    if expect_kind is not None and kind != expect_kind:
        raise ModelFormatError(f"{path}: expected kind {expect_kind!r}, got {kind!r}")
    if _payload_hash(envelope["payload"]) != envelope["content_hash"]:
        raise ModelFormatError(f"{path}: content hash mismatch (corrupt checkpoint)")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ModelFormatError(f"{path}: unknown checkpoint kind {kind!r}")
    try:
        return cls.from_dict(envelope["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        # a payload that passes the hash check can still miss or add a key
        raise ModelFormatError(f"{path}: malformed {kind} payload: {exc!r}") from None
