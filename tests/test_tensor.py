import io

import numpy as np
import pytest

from perceptpool import tensor


class TestSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bit_stable(self, dtype):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        buf = io.BytesIO()
        tensor.write_tensor(buf, t)
        buf.seek(0)
        back = tensor.read_tensor(buf, dtype=dtype)
        assert back.shape == t.shape
        assert back.tobytes() == t.tobytes()

    def test_header_is_four_uint64(self):
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.full((1, 2, 3, 4), 0.0, dtype=np.float32))
        raw = buf.getvalue()
        dims = np.frombuffer(raw[:32], dtype="<u8")
        assert dims.tolist() == [1, 2, 3, 4]
        assert len(raw) == 32 + 24 * 4

    def test_zero_dim_in_header_rejected(self):
        header = np.array([1, 0, 2, 2], dtype="<u8").tobytes()
        with pytest.raises(ValueError, match=r"invalid dims \(1, 0, 2, 2\)"):
            tensor.read_tensor(io.BytesIO(header + bytes(16)))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        tensor.write_tensor(buf, np.full((1, 1, 2, 2), 1.0, dtype=np.float32))
        raw = buf.getvalue()[:-3]
        with pytest.raises(ValueError, match="truncated"):
            tensor.read_tensor(io.BytesIO(raw))

    @pytest.mark.parametrize("bad, error", [
        (np.zeros((2, 2, 2), dtype=np.float32), ValueError),
        (np.zeros((1, 0, 2, 2), dtype=np.float32), ValueError),
        (np.zeros((1, 1, 2, 2), dtype=np.int32), TypeError),
    ], ids=["rank3", "zero_dim", "int32"])
    def test_write_rejects_non_tensor(self, bad, error):
        with pytest.raises(error):
            tensor.write_tensor(io.BytesIO(), bad)
