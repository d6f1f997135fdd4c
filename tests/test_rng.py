import numpy as np
import pytest

from whitenoise_transport.rng import KIND_CLASSICAL, KIND_FIELD, KIND_FIELD_COLORED, normals, stream

BIG = 2**32


@pytest.mark.parametrize("shape", [(256,), (1024,), (8, 16)])
def test_normals_rows_equal_fresh_streams(shape):
    trajs = [9, 0, 3, BIG + 5, 2**64 - 1, 4]  # not contiguous, not sorted
    for kind in (KIND_FIELD, KIND_FIELD_COLORED, KIND_CLASSICAL):
        for step in (0, 17, BIG + 1, (1 << 31) - 3):
            out = normals(12345, kind, trajs, step, shape)
            assert out.shape == (len(trajs),) + shape
            for row, traj in zip(out, trajs):
                np.testing.assert_array_equal(row, stream(12345, kind, traj, step).standard_normal(shape))
    assert normals(12345, KIND_FIELD, [], 0, shape).shape == (0,) + shape
