"""Mutated files reach every reader and only `ValueError` escapes.

`FormatError` is a `ValueError`, and so are the JSON and UTF-8 decode
errors. Each example applies up to four single-byte edits (truncate at,
flip or insert a byte) to one valid file. Structured edits then set every
MOSN header field to a value of each JSON kind, and MOSV dims and `.flo`
sizes to the extremes of their binary fields. `load_checkpoint` checks the
parameter table and payload size against the declared architecture before
it builds the net, so an edited size cannot make it allocate more than the
file holds.
"""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostream.formats import (
    FormatError,
    ManifestEntry,
    read_flo,
    read_manifest,
    read_pgm,
    read_ppm,
    read_scores_csv,
    read_tensor,
    write_flo,
    write_manifest,
    write_pgm,
    write_ppm,
    write_scores_csv,
    write_tensor,
)
from mostream.net import (
    ConvSpec,
    DropoutSpec,
    FcSpec,
    NetConfig,
    PoolSpec,
    ReluSpec,
    TinyNet,
    load_checkpoint,
    save_checkpoint,
)
from mostream.raster import FlowField, make_rng


def _valid_files(root):
    rng = make_rng(50)
    writers = {
        read_pgm: lambda p: write_pgm(p, rng.integers(0, 256, (3, 4), dtype=np.uint8)),
        read_ppm: lambda p: write_ppm(p, rng.integers(0, 256, (3, 4, 3), dtype=np.uint8)),
        read_flo: lambda p: write_flo(p, FlowField(*rng.normal(size=(2, 3, 4)))),
        read_tensor: lambda p: write_tensor(p, rng.normal(size=(2, 3, 4))),
        read_manifest: lambda p: write_manifest(
            p, [ManifestEntry("a/c0", "x", 0, "train"), ManifestEntry("a/c1", "y", 1, "test")]
        ),
        read_scores_csv: lambda p: write_scores_csv(p, ["a/c0", "a/c1"], rng.dirichlet((1.0, 1.0), 2)),
        load_checkpoint: lambda p: save_checkpoint(
            TinyNet(NetConfig(input_shape=(2, 4, 4), num_classes=2, layers=(FcSpec(2),)), rng), p
        ),
    }
    files = {}
    for reader, write in writers.items():
        path = root / reader.__name__
        write(path)
        reader(path)
        files[reader] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(tmp_path_factory.mktemp("valid"))


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


EDITS = st.lists(
    st.tuples(st.sampled_from(("truncate", "flip", "insert")), st.integers(min_value=0), st.integers(1, 255)),
    min_size=1,
    max_size=4,
)


def mutate(data, edits):
    out = bytearray(data)
    for kind, at, byte in edits:
        if kind == "truncate":
            del out[at % (len(out) + 1) :]
        elif kind == "flip" and out:
            out[at % len(out)] ^= byte
        elif kind == "insert":
            out.insert(at % (len(out) + 1), byte)
    return bytes(out)


@pytest.mark.parametrize(
    "reader",
    [read_pgm, read_ppm, read_flo, read_tensor, read_manifest, read_scores_csv, load_checkpoint],
    ids=lambda reader: reader.__name__,
)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_mutated_file_raises_only_value_error(reader, valid_files, mutant_dir, edits):
    path = mutant_dir / reader.__name__
    path.write_bytes(mutate(valid_files[reader], edits))
    try:
        reader(path)
    except ValueError:
        pass



# Structured edits: header fields set to values of every JSON kind, and
# binary sizes set to the extremes their fields can hold.
JSON_VALUES = [None, True, False, -1, 2.5, 1e300, float("nan"), "x", [1, 2], {"a": 1}]
U32_MAX = 2**32 - 1


def _escapes(reader, path, variants):
    """The variants (label, bytes) on which `reader` raises anything but
    `ValueError`, with what it raised."""
    escaped = []
    for label, data in variants:
        path.write_bytes(data)
        try:
            reader(path)
        except ValueError:
            pass
        except Exception as exc:  # anything else escaped: the finding
            escaped.append((label, repr(exc)))
    return escaped


@pytest.mark.parametrize("part", ["top", "layers", "params"])
def test_mosn_header_field_edits_raise_only_value_error(tmp_path, part):
    # One layer of every kind, so every layer field is present.
    config = NetConfig(
        input_shape=(2, 6, 6),
        num_classes=2,
        layers=(ConvSpec(3, kernel=3, stride=1, pad=1), ReluSpec(), PoolSpec(), DropoutSpec(0.5), FcSpec(2)),
    )
    path = tmp_path / "model.mosn"
    save_checkpoint(TinyNet(config, make_rng(51)), path)
    data = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 5)
    header, payload = json.loads(data[9 : 9 + blob_len]), data[9 + blob_len :]
    rows = [None] if part == "top" else range(len(header[part]))
    targets = [(i, key) for i in rows for key in (header if i is None else header[part][i])]
    assert len(targets) == {"top": 6, "layers": 11, "params": 12}[part]

    def variants():
        for i, key in targets:
            for value in JSON_VALUES:
                edited = copy.deepcopy(header)
                (edited if i is None else edited[part][i])[key] = value
                blob = json.dumps(edited).encode("utf-8")
                yield f"{key}={value!r}", data[:5] + struct.pack("<I", len(blob)) + blob + payload

    assert _escapes(load_checkpoint, path, variants()) == []


@pytest.mark.parametrize("value", [None, float("nan"), "x", [1], {"a": 1}, -1, True, 2.5, 0, 7], ids=repr)
def test_mosn_iterations_must_be_a_non_negative_int(tmp_path, value):
    path = tmp_path / "model.mosn"
    save_checkpoint(TinyNet(NetConfig(input_shape=(2, 4, 4), num_classes=2, layers=(FcSpec(2),)), make_rng(54)), path)
    data = path.read_bytes()
    (blob_len,) = struct.unpack_from("<I", data, 5)
    header = json.loads(data[9 : 9 + blob_len])
    header["iterations"] = value
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blob_len :])
    if value in (0, 7) and not isinstance(value, bool):
        assert load_checkpoint(path)[1]["iterations"] == value
    else:
        with pytest.raises(ValueError, match=f"{path}: iterations must be a non-negative integer"):
            load_checkpoint(path)


# Three u32 dims whose product, 6 * 2**64 + 24, wraps in int64 to the 24
# values of a (2, 3, 4) payload.
WRAPS_TO_24 = [1539092, 1484310, 48448661]


def test_mosv_dims_whose_product_wraps_are_rejected(tmp_path):
    path = tmp_path / "volume.mosv"
    write_tensor(path, make_rng(52).normal(size=(2, 3, 4)))
    data = path.read_bytes()
    path.write_bytes(data[:9] + struct.pack("<3I", *WRAPS_TO_24) + data[21:])
    need = 4 * (6 * 2**64 + 24)
    with pytest.raises(FormatError, match=f"{path.name}: header declares {need} payload bytes, found 96"):
        read_tensor(path)


def test_mosv_dim_edits_raise_only_value_error(tmp_path):
    path = tmp_path / "volume.mosv"
    write_tensor(path, make_rng(52).normal(size=(2, 3, 4)))
    data = path.read_bytes()
    payload = data[9 + 4 * 3 :]
    dim_lists = [
        [0],
        [U32_MAX],
        [2, 3, 0],
        [2, 3, U32_MAX],
        [U32_MAX] * 3,
        [2**16] * 4,  # the int64 product wraps to 0
        [2**32 - 1, 2**32 - 1, 2**31 + 1],
        WRAPS_TO_24,
    ]
    variants = []
    for dims in dim_lists:
        for count in {0, 1, len(dims), len(dims) + 1, U32_MAX}:
            for body in (payload, b""):
                head = data[:5] + struct.pack("<I", count) + struct.pack(f"<{len(dims)}I", *dims)
                variants.append((f"count={count} dims={dims} payload={len(body)}", head + body))
    assert _escapes(read_tensor, path, variants) == []


def test_flo_size_edits_raise_only_value_error(tmp_path):
    path = tmp_path / "flow.flo"
    write_flo(path, FlowField(*make_rng(53).normal(size=(2, 3, 4))))
    data = path.read_bytes()
    sizes = [0, 1, -1, 3, 4, 2**31 - 1, -(2**31)]
    variants = [
        (f"w={w} h={h}", data[:4] + struct.pack("<ii", w, h) + data[12:]) for w in sizes for h in sizes
    ]
    assert _escapes(read_flo, path, variants) == []
