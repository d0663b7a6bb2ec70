"""Run configuration and binary checkpoints.

Config files are flat `key = value` lines with `#` comments. Unknown keys are
rejected so typos fail loudly. The checkpoint format is a single binary file:

    magic b"TBRP" | u32 version | u64 header_len | header json | tensor bytes
    | sha256 of everything before the digest

Tensors are stored little-endian in the dtype recorded by the header, in
manifest order. Loading verifies magic, version, and digest, and round-trips
arrays bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import _is_int, read_text, write_file
from .errors import ConfigError, CorruptCheckpoint, VersionMismatch

MAGIC = b"TBRP"
VERSION = 1


@dataclass
class Config:
    """Every knob a run can turn, with the published defaults."""

    seed: int = 13
    # encoder
    n_blocks: int = 4
    d_model: int = 312
    n_heads: int = 12
    d_intermediate: int = 1200
    max_len: int = 256
    # corpus
    min_token_count: int = 1
    min_entity_count: int = 2
    max_cols: int = 20
    # pre-training
    mlm_ratio: float = 0.2
    mer_ratio: float = 0.6
    lr0: float = 1e-4
    pretrain_epochs: int = 80
    batch_size: int = 8
    candidate_cap: int = 256
    use_visibility: bool = True
    # fine-tuning
    finetune_lr0: float = 1e-4
    finetune_epochs: int = 10
    sa_epochs: int = 50
    seed_cells: int = 1
    rp_retrieval_k: int = 100
    sa_min_header_tables: int = 10
    el_reweight_alpha: float = 0.8
    re_vote_threshold: float = 0.5

    def validate(self) -> None:
        for name in ("mlm_ratio", "mer_ratio"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        for name in ("lr0", "finetune_lr0", "el_reweight_alpha"):
            if not (0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in (
            "max_cols",
            "n_blocks",
            "d_model",
            "n_heads",
            "d_intermediate",
            "max_len",
            "pretrain_epochs",
            "batch_size",
            "candidate_cap",
            "finetune_epochs",
            "sa_epochs",
            "rp_retrieval_k",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not (0.0 <= self.re_vote_threshold <= 1.0):
            raise ConfigError("re_vote_threshold must lie in [0, 1]")
        for name in ("seed", "seed_cells"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")

    def as_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.as_text().encode("utf-8")).hexdigest()[:12]


def _coerce(name: str, raw: str, target_type) -> object:
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def parse_config(text: str, base: Config | None = None) -> Config:
    cfg = dataclasses.replace(base) if base is not None else Config()
    types = {f.name: f.type for f in dataclasses.fields(Config)}
    concrete = {f.name: type(getattr(cfg, f.name)) for f in dataclasses.fields(Config)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value, concrete[key]))
    cfg.validate()
    return cfg


def load_config(path, base: Config | None = None) -> Config:
    return parse_config(read_text(path), base)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, arrays: dict[str, np.ndarray], config_text: str, step: int = 0, extra: dict | None = None) -> None:
    """Write named arrays plus a config snapshot, atomically. Arrays keep dtype and shape."""
    manifest = []
    blobs = []
    offset = 0
    for name in arrays:
        arr = np.ascontiguousarray(arrays[name])
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        manifest.append(
            {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    header = {
        "config": config_text,
        "step": int(step),
        "tensors": manifest,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = MAGIC + struct.pack("<IQ", VERSION, len(header_bytes)) + header_bytes + b"".join(blobs)
    write_file(path, [payload, hashlib.sha256(payload).digest()])


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str, int, dict]:
    """Read arrays back bitwise. Returns (arrays, config_text, step, extra)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 + 32:
        raise CorruptCheckpoint(f"{path}: truncated")
    payload, digest = blob[:-32], blob[-32:]
    if payload[: len(MAGIC)] != MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic")
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptCheckpoint(f"{path}: digest mismatch")
    version, header_len = struct.unpack_from("<IQ", payload, len(MAGIC))
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    header_start = len(MAGIC) + 12
    try:
        header = json.loads(payload[header_start : header_start + header_len])
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptCheckpoint(f"{path}: unreadable header") from exc
    if not (
        isinstance(header, dict)
        and isinstance(header.get("tensors"), list)
        and isinstance(header.get("config"), str)
        and _is_int(header.get("step", 0))
        and isinstance(header.get("extra", {}), dict)
    ):
        raise CorruptCheckpoint(f"{path}: malformed header")
    body = payload[header_start + header_len :]
    arrays: dict[str, np.ndarray] = {}
    for i, t in enumerate(header["tensors"]):
        try:
            name, dtype, shape, start, nbytes = (t[k] for k in ("name", "dtype", "shape", "offset", "nbytes"))
            dt = np.dtype(dtype if isinstance(dtype, str) else object).newbyteorder("<")
        except (KeyError, TypeError, ValueError, SyntaxError) as exc:  # np.dtype("01") raises SyntaxError
            raise CorruptCheckpoint(f"{path}: malformed manifest entry {i}") from exc
        if not (
            isinstance(name, str)
            and dt.kind in "biufc"
            and isinstance(shape, list)
            and all(_is_int(v) and v >= 0 for v in (start, nbytes, *shape))
            and nbytes == math.prod(shape) * dt.itemsize
        ):
            raise CorruptCheckpoint(f"{path}: malformed manifest entry {i}")
        if start + nbytes > len(body):
            raise CorruptCheckpoint(f"{path}: tensor {name!r} overruns file")
        try:
            arr = np.frombuffer(body[start : start + nbytes], dtype=dt).reshape(shape)
        except ValueError as exc:  # a shape numpy cannot hold, such as [0, 2**70]
            raise CorruptCheckpoint(f"{path}: tensor {name!r} has an impossible shape") from exc
        arrays[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    return arrays, header["config"], header.get("step", 0), header.get("extra", {})
