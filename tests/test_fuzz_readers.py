"""Mutated files reach every reader and only `ValueError` escapes.

`FormatError` is a `ValueError`, and so are the JSON and UTF-8 decode
errors. Each example applies up to four single-byte edits (truncate at,
flip or insert a byte) to one valid file. `load_checkpoint` checks the
parameter table and payload size against the declared architecture before
it builds the net, so an edited size cannot make it allocate more than the
file holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mostream.formats import (
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
from mostream.net import FcSpec, NetConfig, TinyNet, load_checkpoint, save_checkpoint
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
