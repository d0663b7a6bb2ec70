"""Config files and the binary checkpoint format."""

import dataclasses
import errno
import hashlib
import io
import json
import os
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabrep import corpus
from tabrep.errors import ConfigError, CorruptCheckpoint, TabrepError, VersionMismatch
from tabrep.store import MAGIC, Config, load_checkpoint, load_config, parse_config, save_checkpoint


def test_defaults_validate():
    Config().validate()


def test_config_text_round_trip():
    cfg = Config(seed=7, d_model=24, n_heads=4, mer_ratio=0.4, use_visibility=False)
    again = parse_config(cfg.as_text())
    assert again == cfg


def test_parse_config_comments_and_blanks():
    cfg = parse_config("# full line comment\n\nseed = 99  # trailing\n")
    assert cfg.seed == 99
    assert cfg.d_model == Config().d_model


def test_parse_config_base_overlay():
    base = Config(seed=3, n_blocks=2)
    cfg = parse_config("seed = 5\n", base=base)
    assert cfg.seed == 5 and cfg.n_blocks == 2
    assert base.seed == 3  # base untouched


@pytest.mark.parametrize(
    "text",
    [
        "mystery = 1\n",
        "seed\n",
        "seed = lots\n",
        "mer_ratio = 1.5\n",
        "d_model = 10\nn_heads = 3\n",
        "lr0 = 0\n",
        "lr0 = nan\n",
        "finetune_lr0 = inf\n",
        "max_cols = 0\n",
        "el_reweight_alpha = nan\n",
        "el_reweight_alpha = 0\n",
        "el_reweight_alpha = -0.5\n",
        "use_visibility = maybe\n",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_config(text)


@pytest.mark.parametrize("text, name", [("n_heads = 0", "n_heads"), ("n_heads = -4", "n_heads"), ("seed = -5", "seed")])
def test_parse_config_rejects_zero_heads_and_a_negative_seed(text, name):
    # checked before d_model % n_heads divides or numpy seeds a generator
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        parse_config(text)


def test_bool_spellings():
    assert parse_config("use_visibility = YES\n").use_visibility is True
    assert parse_config("use_visibility = 0\n").use_visibility is False


def test_config_hash_tracks_content():
    assert Config().hash() != Config(seed=14).hash()
    assert Config().hash() == Config().hash()


_CONFIG_VALUES = {
    int: st.integers(-3, 400).map(str),
    float: st.floats(-0.5, 1.5).map(repr) | st.sampled_from(["1e-4", "nan", "-inf", "1e400"]),
    bool: st.sampled_from(["true", "False", "yes", "0", "maybe"]),
    None: st.sampled_from(["", "0x10", "1_0", "9" * 30, "٣"]) | st.floats().map(repr) | st.text(max_size=6),
}


@st.composite
def _config_texts(draw):
    """Config text: lines of a key, a separator and a value of the key's type, or a value or key of any kind,
    some with a comment, among junk lines."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["typed", "typed", "typed", "any", "junk"]))
        f = draw(st.sampled_from(dataclasses.fields(Config)))
        key = f.name if kind == "typed" else draw(st.sampled_from([f.name, f.name.upper(), "", "x y"]))
        value = draw(_CONFIG_VALUES[type(f.default) if kind == "typed" else None])
        sep, tail = draw(st.sampled_from([" = ", "=", " == "])), draw(st.sampled_from(["", " # c"]))
        lines.append(draw(st.text(max_size=10)) if kind == "junk" else f"{key}{sep}{value}{tail}")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_config_text_gives_a_valid_config_or_a_typed_error(text):
    try:
        cfg = parse_config(text)
    except TabrepError:
        return
    cfg.validate()
    assert all(type(getattr(cfg, f.name)) is type(f.default) for f in dataclasses.fields(Config))


def test_load_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_blocks = 2\nd_model = 64\nn_heads = 8\n")
    cfg = load_config(p)
    assert (cfg.n_blocks, cfg.d_model, cfg.n_heads) == (2, 64, 8)


# -- checkpoints ----------------------------------------------------------------


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "embed": rng.normal(size=(7, 5)).astype(np.float32),
        "bias": rng.normal(size=(5,)),
        "steps": np.arange(6, dtype=np.int64).reshape(2, 3),
    }


def test_checkpoint_round_trip_bitwise(tmp_path):
    path = tmp_path / "model.bin"
    arrays = sample_arrays()
    save_checkpoint(path, arrays, "seed = 1\n", step=42, extra={"n_tokens": 9})
    out, cfg_text, step, extra = load_checkpoint(path)
    assert cfg_text == "seed = 1\n"
    assert step == 42
    assert extra == {"n_tokens": 9}
    assert set(out) == set(arrays)
    for name, arr in arrays.items():
        assert out[name].dtype == arr.dtype
        assert out[name].shape == arr.shape
        assert out[name].tobytes() == arr.tobytes()


def test_checkpoint_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    arrays = sample_arrays()
    save_checkpoint(a, arrays, "seed = 1\n", step=3)
    save_checkpoint(b, arrays, "seed = 1\n", step=3)
    assert a.read_bytes() == b.read_bytes()


def test_loaded_arrays_are_writable_copies(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, sample_arrays(), "")
    out, *_ = load_checkpoint(path)
    out["bias"][0] = 123.0  # must not raise


def test_flipped_byte_detected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, sample_arrays(), "seed = 1\n")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, sample_arrays(), "")
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_wrong_magic_detected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, sample_arrays(), "")
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_future_version_detected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, sample_arrays(), "")
    payload = bytearray(path.read_bytes()[:-32])
    # bump the version field, then re-sign so only the version check can fail
    struct.pack_into("<I", payload, len(MAGIC), 2)
    path.write_bytes(bytes(payload) + hashlib.sha256(bytes(payload)).digest())
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def _with_first(header, **fields):
    header["tensors"][0].update(fields)
    return header


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {k: v for k, v in h.items() if k != "tensors"},
        lambda h: _with_first(h, dtype="object"),
        lambda h: _with_first(h, dtype="01"),
        lambda h: _with_first(h, dtype="(-1,)f4"),
        lambda h: _with_first(h, shape=[7, 6]),
        lambda h: _with_first(h, offset=-8),
        lambda h: [h],
    ],
    ids=[
        "no-tensors", "object-dtype", "dtype-syntax-error", "dtype-value-error",
        "shape-vs-nbytes", "negative-offset", "list-header",
    ],
)
def test_malformed_header_with_valid_digest_detected(tmp_path, edit):
    path = tmp_path / "model.bin"
    save_checkpoint(path, sample_arrays(), "")
    payload = path.read_bytes()[:-32]
    (header_len,) = struct.unpack_from("<Q", payload, len(MAGIC) + 4)
    start = len(MAGIC) + 12
    raw = json.dumps(edit(json.loads(payload[start : start + header_len]))).encode("utf-8")
    # re-sign, so only the header checks can fail
    payload = payload[: start - 8] + struct.pack("<Q", len(raw)) + raw + payload[start + header_len :]
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=10,
)


@st.composite
def _headers(draw):
    """Header bytes: arbitrary bytes, arbitrary JSON, or a real header with one
    field, of the header or its first tensor, replaced by arbitrary JSON."""
    kind = draw(st.sampled_from(["bytes", "json", "field"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode("utf-8")
    header = {
        "config": "",
        "step": 0,
        "extra": {},
        "tensors": [{"name": "w", "dtype": "float32", "shape": [2, 3], "offset": 0, "nbytes": 24}],
    }
    owner = draw(st.sampled_from([header, header["tensors"][0]]))
    owner[draw(st.sampled_from(sorted(owner)))] = draw(_JSON)
    return json.dumps(header).encode("utf-8")


_OVERSIZED = {"name": "w", "dtype": "float32", "shape": [0, 2**70], "offset": 0, "nbytes": 0}


@settings(max_examples=300, deadline=None)
@given(_headers(), st.sampled_from([1, 2]))
@example(b"[" * 200_000, 1)
@example(json.dumps({"config": "", "tensors": [_OVERSIZED]}).encode("utf-8"), 1)
def test_signed_header_gives_arrays_or_a_typed_error(tmp_path_factory, header, version):
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    payload = MAGIC + struct.pack("<IQ", version, len(header)) + header + np.arange(6, dtype="<f4").tobytes()
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    try:
        arrays, _, _, _ = load_checkpoint(path)
    except (CorruptCheckpoint, VersionMismatch):
        return
    assert all(isinstance(a, np.ndarray) for a in arrays.values())


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.bin"
    save_checkpoint(path, {}, "seed = 2\n")
    out, cfg_text, step, extra = load_checkpoint(path)
    assert out == {} and step == 0 and extra == {}
    assert cfg_text == "seed = 2\n"


def test_failed_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    old = {"w": np.arange(6, dtype=np.float32)}
    save_checkpoint(path, old, "cfg", step=1)

    class FullDisk(io.FileIO):
        # writes a few bytes, then fails as a full disk does
        def write(self, b):
            super().write(bytes(b)[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(corpus, "open", lambda p, mode: FullDisk(p, mode.replace("b", "")), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, {"w": np.ones(6, dtype=np.float32)}, "cfg", step=2)
    arrays, _, step, _ = load_checkpoint(path)
    assert step == 1 and arrays["w"].tobytes() == old["w"].tobytes()
    assert os.listdir(tmp_path) == ["model.ckpt"]


class FullDiskText(io.FileIO):
    # writes a few bytes, then fails as a full disk does; takes text too
    def write(self, b):
        super().write((b.encode("utf-8") if isinstance(b, str) else bytes(b))[:10])
        raise OSError(errno.ENOSPC, "No space left on device")


# every writer of the package; each writes a different file for v = 1 and v = 2
WRITERS = {
    "save_processed": lambda path, v: corpus.save_processed(
        path, [corpus.ProcessedTable(f"t{v}", ["c"], ["h"], [["h"]], 0, [])]
    ),
    "Vocab.save": lambda path, v: corpus.build_vocab(Counter({f"w{v}": v}), corpus.TOKEN_RESERVED).save(path),
    "write_jsonl": lambda path, v: corpus.write_jsonl(path, [{"version": v}]),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    WRITERS[writer](path, 1)
    old = path.read_bytes()
    monkeypatch.setattr(corpus, "open", lambda p, mode, **kw: FullDiskText(p, mode.replace("b", "")), raising=False)
    with pytest.raises(OSError):
        WRITERS[writer](path, 2)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["out"]
