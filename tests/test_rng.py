import threading

import numpy as np
import pytest

from whitenoise_transport import rng
from whitenoise_transport.rng import (KIND_CLASSICAL, KIND_FIELD, KIND_FIELD_COLORED, TRAJ_GROUP,
                                      normals, stream)

BIG = 2**32


def fresh_row(seed, kind, traj, step, shape):
    """Trajectory ``traj``'s draw: its row of a freshly built group stream."""
    block = stream(seed, kind, traj // TRAJ_GROUP, step).standard_normal((TRAJ_GROUP,) + tuple(shape))
    return block[traj % TRAJ_GROUP]


@pytest.mark.parametrize("shape", [(256,), (1024,), (8, 16)])
def test_normals_rows_equal_fresh_streams(shape):
    trajs = [9, 0, 3, BIG + 5, 2**64 - 1, 4]  # not contiguous, not sorted
    for kind in (KIND_FIELD, KIND_FIELD_COLORED, KIND_CLASSICAL):
        for step in (0, 17, BIG + 1, (1 << 31) - 3):
            out = normals(12345, kind, trajs, step, shape)
            assert out.shape == (len(trajs),) + shape
            for row, traj in zip(out, trajs):
                np.testing.assert_array_equal(row, fresh_row(12345, kind, traj, step, shape))
            last = stream(12345, kind, (2**64 - 1) // 10, step).standard_normal((10,) + shape)[5]
            np.testing.assert_array_equal(out[4], last)
    assert normals(12345, KIND_FIELD, [], 0, shape).shape == (0,) + shape


def _check_interleaved(seeds, calls):
    """Alternate seeds and kinds call by call on the calling thread."""
    for i in range(calls):
        seed = seeds[i % len(seeds)]
        kind = (KIND_FIELD, KIND_FIELD_COLORED, KIND_CLASSICAL)[i % 3]
        trajs, step = [i, BIG + i], 3 * i
        out = normals(seed, kind, trajs, step, (7,))
        for row, traj in zip(out, trajs):
            np.testing.assert_array_equal(row, fresh_row(seed, kind, traj, step, (7,)))


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
    np.testing.assert_array_equal(results[0], fresh_row(6, KIND_FIELD, 1, 2, (4,)))


class _CountingGenerator:
    """Stand-in for the thread's generator that counts ``standard_normal`` calls."""

    def __init__(self, gen):
        self._gen = gen
        self.calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return self._gen.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.mark.parametrize("trajs, calls", [(range(250), 25), (range(5, 27), 3)])
def test_one_draw_per_group(monkeypatch, trajs, calls):
    normals(1, KIND_FIELD, [0], 0, (4,))  # the calling thread's generator exists
    counting = _CountingGenerator(rng._local.gen)
    monkeypatch.setattr(rng._local, "gen", counting)
    out = normals(11, KIND_FIELD, trajs, 2, (256,))
    assert counting.calls == calls
    assert out.base is not None  # a contiguous batch is a view of the drawn groups
    np.testing.assert_array_equal(out[-1], fresh_row(11, KIND_FIELD, trajs[-1], 2, (256,)))
