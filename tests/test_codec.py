import numpy as np
import pytest

from spreadrank import codec
from spreadrank.errors import EncodingOverflow, ParseError


def test_decode_identity_goldens():
    assert np.array_equal(codec.decode(33825, 2, 4), np.eye(4, dtype=np.uint8))
    assert np.array_equal(codec.decode(14408200, 3, 4), np.eye(4, dtype=np.uint8))


def test_decode_single_entry():
    M = codec.decode(1, 3, 4)
    expect = np.zeros((4, 4), dtype=np.uint8)
    expect[0, 0] = 1
    assert np.array_equal(M, expect)


def test_encode_goldens():
    assert codec.encode(np.eye(4, dtype=np.uint8), 2) == 33825
    assert codec.encode(np.zeros((4, 4), dtype=np.uint8), 2) == 0
    e44 = np.zeros((4, 4), dtype=np.uint8)
    e44[3, 3] = 1
    assert codec.encode(e44, 3) == 14348907


def test_round_trip_exhaustive_n2():
    for q in (2, 3):
        for v in range(q**4):
            assert codec.encode(codec.decode(v, q, 2), q) == v


def test_round_trip_random_n4():
    rng = np.random.default_rng(1)
    for q in (2, 3):
        top = q**16
        for v in rng.integers(0, top, 200, dtype=np.int64):
            assert codec.encode(codec.decode(int(v), q, 4), q) == int(v)
        M = rng.integers(0, q, (4, 4))
        assert np.array_equal(codec.decode(codec.encode(M, q), q, 4), M % q)


def test_encode_rows_matches_encode_along_the_last_axis():
    rng = np.random.default_rng(2)
    for q, n in ((2, 4), (3, 4), (5, 3)):
        mats = rng.integers(0, q, (3, 5, n, n))
        got = codec.encode_rows(mats.reshape(3, 5, n * n), q)
        assert got.dtype == np.int64 and got.shape == (3, 5)
        assert got.tolist() == [[codec.encode(M, q) for M in row] for row in mats]
    with pytest.raises(EncodingOverflow):
        codec.encode_rows(np.zeros((1, 64), dtype=np.uint8), 2)


def test_decode_overflow():
    with pytest.raises(EncodingOverflow):
        codec.decode(2**16, 2, 4)
    with pytest.raises(EncodingOverflow):
        codec.decode(-1, 2, 4)


def test_oversized_dimensions_rejected():
    with pytest.raises(EncodingOverflow):
        codec.decode(0, 7, 5)  # 7^25 does not fit 64 bits


def test_spreadset_file_round_trip(tmp_path):
    path = tmp_path / "f16.txt"
    path.write_text("2 4\n33825\n14402\n25476\n50744\n")
    q, n, mats = codec.read_spreadset_file(path)
    assert (q, n) == (2, 4)
    assert [codec.encode(m, q) for m in mats] == [33825, 14402, 25476, 50744]
    out = tmp_path / "copy.txt"
    codec.write_spreadset_file(out, q, n, mats)
    assert codec.read_spreadset_file(out)[2][1].tolist() == mats[1].tolist()


def test_gtf_basis_file(tmp_path):
    path = tmp_path / "gtf.txt"
    path.write_text("3 4\n14408200\n37463637\n34827984\n8282925\n")
    q, n, mats = codec.read_spreadset_file(path)
    assert q == 3 and len(mats) == 4


def test_parse_error_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 4\nbanana\n")
    with pytest.raises(ParseError) as err:
        codec.read_spreadset_file(path)
    assert err.value.line == 2


def test_decomposition_file_round_trip(tmp_path):
    path = tmp_path / "decomp.txt"
    mats = [codec.decode(v, 2, 4) for v in (85, 8738, 57582)]
    codec.write_decomposition_file(path, 2, 4, mats)
    q, n, r, back = codec.read_decomposition_file(path)
    assert (q, n, r) == (2, 4, 3)
    assert [codec.encode(m, 2) for m in back] == [85, 8738, 57582]
