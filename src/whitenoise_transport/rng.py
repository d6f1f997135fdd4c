"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by
``(global seed, purpose)`` with the counter carrying ``(step, group)``
lanes, where a group is ``TRAJ_GROUP`` consecutive trajectories.  Streams
are therefore pure functions of their coordinates: the same coordinates
give bit-identical draws regardless of thread scheduling, batching, or
call order.

Each thread keeps one generator for all its batch draws: Philox is
counter-based, so setting its key and counter to a draw's coordinates
gives exactly the draws of a freshly built generator, without the cost of
building one per group or per call.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["stream", "normals", "KIND_FIELD", "KIND_FIELD_COLORED", "KIND_CLASSICAL", "STREAM_VERSION",
           "TRAJ_GROUP"]

#: version of the mapping from draw coordinates to numbers, recorded in every
#: manifest; it changes whenever a seed would give different draws.  Version 2
#: keys the classical kicks by 1024-step block instead of by step; version 3
#: draws one stream per group of ``TRAJ_GROUP`` trajectories; version 4 draws
#: the field increments as the (re, im) pairs of their nonzero half-spectrum
#: modes (``noise_field.HalfSpectrum``), not as grid-point normals.
STREAM_VERSION = 4

#: trajectories per stream: trajectory t draws row ``t % TRAJ_GROUP`` of
#: group ``t // TRAJ_GROUP``'s stream.  Part of the stream definition.
TRAJ_GROUP = 10

# purpose lanes; distinct purposes never share a stream
KIND_FIELD = 0
KIND_FIELD_COLORED = 1
KIND_CLASSICAL = 2

_MASK = (1 << 64) - 1


def stream(seed: int, kind: int = KIND_FIELD, group: int = 0, step: int = 0) -> Generator:
    """Generator for the (seed, kind, group, step) coordinates.

    Draws advance only the low counter words, so distinct coordinates can
    never collide for any realistic draw size.
    """
    key = np.array([seed & _MASK, kind & _MASK], dtype=np.uint64)
    counter = np.array([0, 0, step & _MASK, group & _MASK], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


# per thread: one generator and the state of a freshly built Philox (empty
# output buffer, no cached half word) that re-keys it
_local = threading.local()


def normals(seed: int, kind: int, trajs, step: int, shape) -> np.ndarray:
    """Standard normals of shape ``(len(trajs),) + shape`` at one step.

    Row ``i`` is bit-identical to row ``trajs[i] % TRAJ_GROUP`` of
    ``stream(seed, kind, trajs[i] // TRAJ_GROUP, step).standard_normal((TRAJ_GROUP,) + shape)``.
    Every group the batch touches is drawn whole, with one call, and the
    rows the batch does not hold are discarded, so a trajectory's numbers
    do not depend on its batch.  For a contiguous ascending ``trajs`` the
    result is a view of the drawn groups.  The calling thread's generator
    is reset to the fresh state at each group's key and counter, so no
    generator is built per call and concurrent callers never share one.
    """
    trajs = [int(t) for t in trajs]
    shape = tuple(shape)
    if not trajs:
        return np.empty((0,) + shape)
    try:
        gen, state = _local.gen, _local.state
    except AttributeError:
        gen = _local.gen = stream(0)
        state = _local.state = gen.bit_generator.state
    bitgen = gen.bit_generator
    state["state"]["key"][:] = (seed & _MASK, kind & _MASK)
    counter = state["state"]["counter"]
    counter[2] = step & _MASK
    groups = sorted({t // TRAJ_GROUP for t in trajs})
    drawn = np.empty((len(groups), TRAJ_GROUP) + shape)
    for block, group in zip(drawn, groups):
        counter[3] = group & _MASK
        bitgen.state = state
        gen.standard_normal(out=block)
    drawn = drawn.reshape((-1,) + shape)
    if trajs == list(range(trajs[0], trajs[0] + len(trajs))):
        first = trajs[0] - groups[0] * TRAJ_GROUP
        return drawn[first:first + len(trajs)]
    slot = {group: i * TRAJ_GROUP for i, group in enumerate(groups)}
    return drawn[[slot[t // TRAJ_GROUP] + t % TRAJ_GROUP for t in trajs]]

