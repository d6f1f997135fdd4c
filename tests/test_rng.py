import threading

import numpy as np
import pytest

from whitenoise_transport import rng
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


def _check_interleaved(seeds, calls):
    """Alternate seeds and kinds call by call on the calling thread."""
    for i in range(calls):
        seed = seeds[i % len(seeds)]
        kind = (KIND_FIELD, KIND_FIELD_COLORED, KIND_CLASSICAL)[i % 3]
        trajs, step = [i, BIG + i], 3 * i
        out = normals(seed, kind, trajs, step, (7,))
        for row, traj in zip(out, trajs):
            np.testing.assert_array_equal(row, stream(seed, kind, traj, step).standard_normal(7))


def test_interleaved_seeds_and_kinds_on_one_thread():
    _check_interleaved([12345, 7, 2**64 - 1], 30)


def test_concurrent_threads_equal_fresh_streams():
    barrier = threading.Barrier(2)
    errors = []

    def work(seeds):
        try:
            barrier.wait()
            _check_interleaved(seeds, 200)
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seeds,)) for seeds in ([1, 2], [3, 2**63])]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors


def test_one_generator_per_thread(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return stream(*args, **kwargs)

    monkeypatch.setattr(rng, "stream", counted)
    results = []

    def work():
        rows = [normals(seed, KIND_FIELD, [0, 1], step, (4,)) for seed in (5, 6) for step in range(3)]
        results.append(rows[-1][1])

    th = threading.Thread(target=work)
    th.start()
    th.join()
    assert len(built) == 1
    np.testing.assert_array_equal(results[0], stream(6, KIND_FIELD, 1, 2).standard_normal(4))
