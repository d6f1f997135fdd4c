"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
``(global seed, purpose)`` with the counter carrying ``(step, trajectory)``
lanes.  Streams are therefore pure functions of their coordinates: the same
coordinates give bit-identical draws regardless of thread scheduling,
batching, or call order.

A batch of trajectories drawn at one step shares one generator: Philox is
counter-based, so re-keying its counter to each trajectory's coordinates
gives exactly the draws of a freshly built generator, without the cost of
building one per trajectory.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["stream", "normals", "SeedInfo", "KIND_FIELD", "KIND_FIELD_COLORED", "KIND_CLASSICAL"]

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


def normals(seed: int, kind: int, trajs, step: int, shape) -> np.ndarray:
    """Standard normals of shape ``(len(trajs),) + shape`` at one step.

    Row ``i`` is bit-identical to
    ``stream(seed, kind, trajs[i], step).standard_normal(shape)``.  One
    generator is built per call and its counter is reset for each
    trajectory; nothing is kept between calls, so concurrent callers never
    share a generator.
    """
    trajs = list(trajs)
    out = np.empty((len(trajs),) + tuple(shape))
    if not trajs:
        return out
    gen = stream(seed, kind, trajs[0], step)
    bitgen = gen.bit_generator
    # the fresh state: empty output buffer, no cached half word
    state = bitgen.state
    counter = state["state"]["counter"]
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
