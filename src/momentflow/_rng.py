"""Counter-based random streams.

Every Monte Carlo consumer derives its generator from (seed, stream ids)
through a Philox key, so trial k sees the same numbers no matter how trials
are batched, threaded, or reordered.
"""

import numpy as np

_MASK = (1 << 63) - 1


def _flatten(value, out):
    if isinstance(value, (tuple, list)):
        for v in value:
            _flatten(v, out)
    else:
        out.append(int(value) & _MASK)


def stream(seed, *ids):
    """Return a Generator keyed by (seed, *ids); identical inputs, identical stream.

    seed and ids may be integers or nested tuples of integers.

    Distinct keys can alias.  `SeedSequence` splits each integer into 32-bit
    words and zero-pads entropy shorter than 4 words, so trailing zero ids
    within the first 4 words change nothing: stream(731, 9) is
    stream((731, 9, 0)), and stream(9, 0, 0) is stream(9).  A word at or
    above 2**32 reads as two: stream(2**32) is stream(0, 1).  A key that must
    differ from every shorter one ends with a nonzero id.
    """
    entropy = []
    _flatten(seed, entropy)
    for i in ids:
        _flatten(i, entropy)
    key = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
