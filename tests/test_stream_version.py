"""Stream-version guard: pinned digests of the draws at fixed coordinates.

The field draws are pinned where the ensembles make them:
``noise_field.field_increments`` and the ``ColoredStream`` it runs.

A change that moves what a seed draws must bump ``rng.STREAM_VERSION`` (it
is recorded in every manifest) and re-pin the digests here.  The fields
are rounded to 10 decimals before hashing, so FFT rounding differences
between NumPy builds do not trip the guard while any change of the draws
does.
"""

import hashlib
import itertools

import numpy as np

from whitenoise_transport import (ColoredKernel, FieldGrid, GaussianCorrelation, ModelParams,
                                  field_increments, rng, spectral_amplitude)
from whitenoise_transport.noise_field import ColoredStream

# 64 points on a box of 12.8: 10 of the 33 half-spectrum modes are zero
GRID = FieldGrid.continuum(1, 64, 12.8)
CORR = GaussianCorrelation([[1.0]])
AMP = spectral_amplitude(GRID, CORR, ModelParams())


def digest(values, decimals=None):
    a = np.asarray(values, dtype="<f8")
    if decimals is not None:
        a = np.round(a, decimals) + 0.0   # + 0.0 turns -0.0 into 0.0
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_stream_version_is_4():
    assert rng.STREAM_VERSION == 4


def test_normals_digest():
    out = rng.normals(12345, rng.KIND_FIELD, [0, 1, 13], 7, (6,))
    assert digest(out) == "06358d4e823bd86c44c9958a897744fce97a15a8adec302d9d21fef0d55f3118"


def test_white_increment_digest():
    # trajectory 3 at step 7
    inc = next(itertools.islice(field_increments(AMP, 0.05, 12345, [3]), 7, None))[0]
    assert digest(inc, 10) == "d7cbe800c128fd0463597da76ee4a226846320f6b30eeecd08cfacd694870e20"


def test_colored_stream_digest():
    stream = ColoredStream(AMP, ColoredKernel(0.1), 0.05, 12345, [0, 11])
    stream.advance()
    assert digest(stream.current(), 10) == "33cd25aa664d7fd872dca288c6060224dff8bbc785b6287bb7289bbb04bfc2e3"
