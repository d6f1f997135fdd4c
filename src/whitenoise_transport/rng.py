"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
``(global seed, purpose)`` with the counter carrying ``(step, trajectory)``
lanes.  Streams are therefore pure functions of their coordinates: the same
coordinates give bit-identical draws regardless of thread scheduling,
batching, or call order.

Each thread keeps one generator for all its batch draws: Philox is
counter-based, so setting its key and counter to a draw's coordinates
gives exactly the draws of a freshly built generator, without the cost of
building one per trajectory or per call.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["stream", "normals", "SeedInfo", "KIND_FIELD", "KIND_FIELD_COLORED", "KIND_CLASSICAL",
           "STREAM_VERSION"]

#: version of the mapping from draw coordinates to numbers, recorded in every
#: manifest; it changes whenever a seed would give different draws.  Version 2
#: keys the classical kicks by 1024-step block instead of by step.
STREAM_VERSION = 2

# purpose lanes; distinct purposes never share a stream
KIND_FIELD = 0
KIND_FIELD_COLORED = 1
KIND_CLASSICAL = 2

_MASK = (1 << 64) - 1


def stream(seed: int, kind: int = KIND_FIELD, traj: int = 0, step: int = 0) -> Generator:
    """Generator for the (seed, kind, traj, step) coordinates.

    Draws advance only the low counter words, so distinct coordinates can
    never collide for any realistic draw size.
    """
    key = np.array([seed & _MASK, kind & _MASK], dtype=np.uint64)
    counter = np.array([0, 0, step & _MASK, traj & _MASK], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


# per thread: one generator and the state of a freshly built Philox (empty
# output buffer, no cached half word) that re-keys it
_local = threading.local()


def normals(seed: int, kind: int, trajs, step: int, shape) -> np.ndarray:
    """Standard normals of shape ``(len(trajs),) + shape`` at one step.

    Row ``i`` is bit-identical to
    ``stream(seed, kind, trajs[i], step).standard_normal(shape)``.  The
    calling thread's generator is reset to the fresh state at each
    trajectory's key and counter, so no generator is built per call and
    concurrent callers never share one.
    """
    trajs = list(trajs)
    out = np.empty((len(trajs),) + tuple(shape))
    if not trajs:
        return out
    try:
        gen, state = _local.gen, _local.state
    except AttributeError:
        gen = _local.gen = stream(0)
        state = _local.state = gen.bit_generator.state
    bitgen = gen.bit_generator
    state["state"]["key"][:] = (seed & _MASK, kind & _MASK)
    counter = state["state"]["counter"]
    counter[2] = step & _MASK
    for row, traj in zip(out.reshape(len(trajs), -1), trajs):
        counter[3] = traj & _MASK
        bitgen.state = state
        gen.standard_normal(out=row)
    return out


class SeedInfo:
    """Provenance of one random draw: (global seed, trajectory, step)."""

    __slots__ = ("seed", "traj", "step", "kind")

    def __init__(self, seed, traj=0, step=0, kind=KIND_FIELD):
        self.seed = int(seed)
        self.traj = int(traj)
        self.step = int(step)
        self.kind = int(kind)

    def generator(self) -> Generator:
        return stream(self.seed, self.kind, self.traj, self.step)

    def __repr__(self):
        return f"SeedInfo(seed={self.seed}, traj={self.traj}, step={self.step}, kind={self.kind})"

    def __eq__(self, other):
        return (
            isinstance(other, SeedInfo)
            and (self.seed, self.traj, self.step, self.kind) == (other.seed, other.traj, other.step, other.kind)
        )
