"""Wire-protocol unit tests: frame codec, size limits, structured errors."""
import pickle

import numpy as np
import pytest

from repro.dist.proc import (DEFAULT_MAX_FRAME, FrameError, K_P2P,
                             decode_frame, encode_frame)
from repro.dist.transport import (RankFailure, TRANSPORT_KINDS,
                                  create_transport)
from repro.runtime.comm import SimComm


@pytest.mark.parametrize("payload", [
    np.arange(12, dtype=np.float64).reshape(3, 4),
    np.arange(5, dtype=np.int64),
    np.array(7, dtype=np.int64),              # 0-d must survive
    np.empty((0, 3), dtype=np.float64),       # empty must survive
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    np.array([True, False, True]),
    np.array(2.5),                            # 0-d float
    np.empty(0, dtype=np.int64),
    np.arange(6, dtype=">f8").reshape(3, 2),  # big-endian
    np.arange(24, dtype=">i8").reshape(2, 3, 4)[:, ::2, 1:],
    np.arange(20.0).reshape(4, 5)[::2, ::-2],     # non-contiguous
    np.array(["ab", "c"]),
    np.zeros((1,) * 32),
])
def test_ndarray_roundtrip(payload):
    blob = encode_frame(K_P2P, 1, 2, 9, payload)
    kind, src, dst, tag, out = decode_frame(blob)
    assert (kind, src, dst, tag) == (K_P2P, 1, 2, 9)
    assert out.dtype == payload.dtype
    assert out.shape == payload.shape
    np.testing.assert_array_equal(out, payload)


def test_control_object_roundtrip():
    obj = {"op": "allreduce", "reduce": "sum",
           "value": np.array([1.5, 2.5])}
    _k, _s, _d, _t, out = decode_frame(encode_frame(2, 0, -1, 0, obj))
    assert out["op"] == "allreduce" and out["reduce"] == "sum"
    np.testing.assert_array_equal(out["value"], obj["value"])


def test_zero_dim_int_survives_round_trip_as_scalar_convertible():
    # the in-flight count of mpi_particle_move is reduced as a 0-d array
    # and converted with int() — the codec must not promote its shape
    _k, _s, _d, _t, out = decode_frame(
        encode_frame(K_P2P, 0, 1, 0, np.array(3)))
    assert out.shape == ()
    assert int(out) == 3


def test_oversized_frame_raises_structured_failure():
    big = np.zeros(1024, dtype=np.float64)
    with pytest.raises(RankFailure) as exc_info:
        encode_frame(K_P2P, 3, 0, 0, big, max_frame_bytes=1024)
    exc = exc_info.value
    assert exc.kind == "oversized-frame"
    assert exc.rank == 3
    assert "limit" in exc.detail


def test_decode_rejects_bad_magic():
    blob = bytearray(encode_frame(K_P2P, 0, 1, 0, np.zeros(2)))
    blob[:4] = b"XXXX"
    with pytest.raises(FrameError, match="magic"):
        decode_frame(bytes(blob))


def test_decode_rejects_bad_version():
    blob = bytearray(encode_frame(K_P2P, 0, 1, 0, np.zeros(2)))
    blob[4] = 99
    with pytest.raises(FrameError, match="version"):
        decode_frame(bytes(blob))


def test_decode_rejects_truncation_and_length_mismatch():
    blob = encode_frame(K_P2P, 0, 1, 0, np.zeros(4))
    with pytest.raises(FrameError, match="short"):
        decode_frame(blob[:8])
    with pytest.raises(FrameError, match="length"):
        decode_frame(blob[:-3])


def test_rank_failure_pickle_preserves_fields():
    exc = RankFailure(2, "timeout", "no frame within 1.0s")
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, RankFailure)
    assert clone.rank == 2
    assert clone.kind == "timeout"
    assert clone.detail == "no frame within 1.0s"
    assert "rank 2" in str(clone)


def test_create_transport():
    assert TRANSPORT_KINDS == ("sim", "proc")
    comm = create_transport("sim", 3)
    assert isinstance(comm, SimComm) and comm.nranks == 3
    with pytest.raises(TypeError):
        create_transport("sim", 2, bogus=1)
    with pytest.raises(ValueError, match="ProcCluster|run_distributed"):
        create_transport("proc", 2)
    with pytest.raises(ValueError, match="unknown transport"):
        create_transport("tcp", 2)


def test_default_frame_limit_is_sane():
    assert DEFAULT_MAX_FRAME >= 16 * 1024 * 1024


# -- the array header ----------------------------------------------------------


def array_body(dtype: bytes, dims, data: bytes = b"", ndim=None) -> bytes:
    """A ``K_P2P`` frame whose ``N`` body is built by hand."""
    from repro.dist.proc import _HEADER
    import struct
    body = (b"N" + bytes((len(dtype),)) + dtype
            + bytes((len(dims) if ndim is None else ndim,))
            + struct.pack(f"!{len(dims)}q", *dims) + data)
    return _HEADER.pack(b"OPPC", 1, K_P2P, 0, 1, 0, len(body)) + body


def test_array_header_is_struct_data_not_pickle():
    blob = encode_frame(K_P2P, 0, 1, 0, np.arange(3, dtype="<i8"))
    assert blob == array_body(b"<i8", (3,), np.arange(3, dtype="<i8")
                              .tobytes())
    out = decode_frame(array_body(b"|b1", (2, 1), b"\x01\x00"))[4]
    assert out.dtype == np.bool_ and out.tolist() == [[True], [False]]


@pytest.mark.parametrize("blob, why", [
    (array_body(b"<q9", (1,), bytes(8)), "unknown array dtype"),
    (array_body(b"\xff\xfe", (1,), bytes(8)), "unknown array dtype"),
    (array_body(b"|O", (1,), bytes(8)), "object dtype"),
    (array_body(b"<f8", (1,) * 33, bytes(8)), "33 dims"),
    (array_body(b"<f8", (2, 3), bytes(8 * 5)), "needs 48 bytes"),
    (array_body(b"<f8", (2,), bytes(8 * 3)), "needs 16 bytes"),
    (array_body(b"<f8", (-1, -2), bytes(16)), "negative array dim"),
    (array_body(b"<f8", (2**40, 2**40), bytes(8)), "needs"),
    (array_body(b"<f8", (4,), ndim=3), "truncated array header"),
], ids=["bad-dtype", "non-ascii-dtype", "object", "ndim-33", "short-body",
        "long-body", "negative-dim", "overflowing-dims", "short-dims"])
def test_malformed_array_header_raises_frame_error(blob, why):
    with pytest.raises(FrameError, match=why):
        decode_frame(blob)


def test_short_array_bodies_raise_frame_error():
    from repro.dist.proc import _HEADER
    for body in (b"N", b"N\x03<f", b"N\x03<f8"):
        blob = _HEADER.pack(b"OPPC", 1, K_P2P, 0, 1, 0, len(body)) + body
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(blob)
