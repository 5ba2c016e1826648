"""Mutated field and model files fail only as format errors.

Each example truncates, bit-flips or token-mutates a small valid file,
including huge integers in the header fields.  The reader may accept the
result; otherwise it must raise FieldFormatError or ModelFormatError, and the
CLI must exit 3 on the same file.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import second_moment
from covnet.cli import main
from covnet.errors import FieldFormatError, ModelFormatError
from covnet.fields import FieldMatrix, make_grid, read_fields, write_fields
from covnet.model import (
    Architecture,
    FittedCovariance,
    init_params,
    load_model,
    save_model,
)
from covnet.rng import gaussian, make_rng

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HUGE = st.sampled_from([2**31, 2**32 - 1, 2**63 - 1, 2**64 - 1, 10**15, 10**30])


def unsigned(bits: int):
    """Header integers of the given width: small, uniform or huge."""
    top = 2**bits
    return st.one_of(
        st.integers(0, 8), st.integers(0, top - 1), HUGE.filter(lambda k: k < top)
    )


U32 = unsigned(32)
U64 = unsigned(64)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def field_blob(work) -> bytes:
    f = FieldMatrix(make_grid(2, [3, 2]), gaussian(make_rng(1), (2, 6)))
    path = work / "valid.cvnf"
    write_fields(path, f)
    return path.read_bytes()


@pytest.fixture(scope="module")
def model_text(work) -> str:
    arch = Architecture.deep(2, 2, 2)
    params, xi = init_params(arch, 5, seed=3)
    path = work / "valid.cvn"
    model = FittedCovariance(arch, params, second_moment(xi))
    save_model(path, model)
    return path.read_text()


def check_fields(work, blob: bytes) -> None:
    path = work / "mutated.cvnf"
    path.write_bytes(blob)
    try:
        read_fields(path)
    except FieldFormatError as err:
        assert err.offset >= 0
        cfg = work / "fit.cfg"
        cfg.write_text(f"fields = {path}\narch = shallow\nR = 2\nepochs = 1\n")
        assert main(["fit", "--config", str(cfg), "--out", str(work / "out")]) == 3


def check_model(work, blob: bytes) -> None:
    path = work / "mutated.cvn"
    path.write_bytes(blob)
    try:
        load_model(path)
    except ModelFormatError:
        cfg = work / "eigen.cfg"
        cfg.write_text(f"model = {path}\nM = 50\n")
        assert main(["eigen", "--config", str(cfg), "--out", str(work / "out")]) == 3


def flip(blob: bytes, bits: list[int]) -> bytes:
    out = bytearray(blob)
    for bit in bits:
        out[(bit // 8) % len(out)] ^= 1 << (bit % 8)
    return bytes(out)


@FUZZ
@given(data=st.data())
def test_truncated_field_file(work, field_blob, data):
    n = data.draw(st.integers(0, len(field_blob) - 1))
    check_fields(work, field_blob[:n])


@FUZZ
@given(bits=st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
def test_bit_flipped_field_file(work, field_blob, bits):
    check_fields(work, flip(field_blob, bits))


@FUZZ
@given(
    version=st.one_of(st.just(1), U32),
    sizes=st.lists(U32, min_size=0, max_size=4),
    d=st.one_of(st.none(), U32),
    n=U64,
    payload=st.integers(0, 12),
)
def test_header_mutated_field_file(work, version, sizes, d, n, payload):
    head = b"CVNF" + struct.pack("<II", version, len(sizes) if d is None else d)
    head += struct.pack(f"<{len(sizes)}I", *sizes) + struct.pack("<Q", n)
    check_fields(work, head + np.ones(payload).tobytes())


@FUZZ
@given(data=st.data())
def test_truncated_model_file(work, model_text, data):
    blob = model_text.encode()
    check_model(work, blob[: data.draw(st.integers(0, len(blob) - 1))])


@FUZZ
@given(bits=st.lists(st.integers(0, 40_000), min_size=1, max_size=4))
def test_bit_flipped_model_file(work, model_text, bits):
    check_model(work, flip(model_text.encode(), bits))


TOKENS = st.one_of(
    HUGE.map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["0", "-1", "", "nan", "inf", "1e999", "1e308", "x", "scalar", "end"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@FUZZ
@given(data=st.data())
def test_token_mutated_model_file(work, model_text, data):
    lines = [line.split(" ") for line in model_text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] = data.draw(TOKENS)
    check_model(work, ("\n".join(" ".join(line) for line in lines) + "\n").encode())


@FUZZ
@given(
    key=st.sampled_from(["R", "d", "widths"]),
    value=st.one_of(HUGE, st.integers(-(2**70), 2**70)),
)
def test_huge_model_header_integer(work, model_text, key, value):
    lines = model_text.splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(key + " ")]
    lines[i] = f"{key} {value}" if key != "widths" else f"widths {value} 2"
    check_model(work, ("\n".join(lines) + "\n").encode())
