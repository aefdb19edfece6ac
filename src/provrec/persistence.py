"""Versioned JSON checkpoints shared by every model kind.

A checkpoint wraps a model payload with a format version, a kind tag, and a
content hash; loading verifies all three. JSON float serialisation uses
shortest round-trip representations, so a save/load cycle reproduces
weights bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .evaluation import PipelineModels
from .features import GnnEncoder
from .matching import ExemplarSet, SiameseModel

FORMAT_VERSION = 1

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
    """Write a checkpoint; refuses to overwrite unless ``force`` is set."""
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    return envelope


def load_model(path, expect_kind: str | None = None):
    """Read and verify a checkpoint; returns the reconstructed model."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read checkpoint {path}: {exc}") from None
    for key in ("format_version", "kind", "content_hash", "payload"):
        if key not in envelope:
            raise ModelFormatError(f"{path}: missing checkpoint field {key!r}")
    if envelope["format_version"] != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {envelope['format_version']!r} "
            f"is not {FORMAT_VERSION}"
        )
    kind = envelope["kind"]
    if expect_kind is not None and kind != expect_kind:
        raise ModelFormatError(f"{path}: expected kind {expect_kind!r}, got {kind!r}")
    if _payload_hash(envelope["payload"]) != envelope["content_hash"]:
        raise ModelFormatError(f"{path}: content hash mismatch (corrupt checkpoint)")
    cls = _KINDS.get(kind)
    if cls is None:
        raise ModelFormatError(f"{path}: unknown checkpoint kind {kind!r}")
    return cls.from_dict(envelope["payload"])
