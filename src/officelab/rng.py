"""Named random substreams derived from one master seed.

Every stage draws from its own substream so stages (and agents within the
simulate stage) can be rerun independently without perturbing each other.
"""

from __future__ import annotations

import numpy as np

# Stream namespaces. First spawn-key element; keep values stable, they are
# part of the reproducibility contract.
SIMULATE = 0
OBSERVE = 1


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(key))))


class WordDraws:
    """The values ``Generator.random()`` and ``Generator.integers(0, k)`` draw from a PCG64 generator, decoded
    from its raw 64-bit words a block at a time.

    A double takes one word, ``(w >> 11) * 2**-53``. An integer takes 32-bit halves through the bit generator's
    uint32 buffer (the low half of a fresh word first, the high half held for the next integer) and maps each
    with Lemire's method, rejecting below ``(2**32 - k) % k``; ``k = 1`` draws nothing. The buffer is read from
    the generator's state once, here, so ``generator`` must not be drawn from elsewhere afterwards.
    ``test_word_draws_equal_the_generator_draws`` fails by name if numpy changes either algorithm.
    """

    __slots__ = ("_bits", "_block", "_words", "_doubles", "_pos", "_held")

    def __init__(self, generator: np.random.Generator, block: int = 256) -> None:
        self._bits = generator.bit_generator
        state = self._bits.state
        self._held = state["uinteger"] if state["has_uint32"] else None
        self._block = block
        self._words: list[int] = []
        self._doubles: list[float] = []
        self._pos = block  # the first draw fetches the first block

    def _fill(self) -> None:
        raw = self._bits.random_raw(self._block)
        self._words = raw.tolist()
        self._doubles = ((raw >> 11) * 2.0**-53).tolist()
        self._pos = 0

    def random(self) -> float:
        """``Generator.random()``."""
        if self._pos == self._block:
            self._fill()
        j = self._pos
        self._pos = j + 1
        return self._doubles[j]

    def integers(self, k: int) -> int:
        """``Generator.integers(0, k)`` for 1 <= k <= 2**32."""
        if k == 1:
            return 0
        threshold = (0x100000000 - k) % k
        while True:
            if self._held is None:
                if self._pos == self._block:
                    self._fill()
                word = self._words[self._pos]
                self._pos += 1
                self._held = word >> 32
                m = (word & 0xFFFFFFFF) * k
            else:
                m = self._held * k
                self._held = None
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
