"""Per-step traces of a simulated encoding, for tests that read each step.

codecert.empirical_acl reduces a run to its summary and keeps no step.
encoded_trace joins the chunks of the same engine, codes._encode_chunks, so
the streams and traces that tests pin are still those of the package.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import truediv

from codecert import codes


@dataclass(frozen=True)
class Trace:
    """Each step's symbol index, codeword index within its symbol's set, and digits."""

    symbol_indices: tuple[int, ...]
    codeword_indices: tuple[int, ...]
    lengths: tuple[int, ...]

    @cached_property
    def acl_values(self) -> tuple[float, ...]:
        """ACL_k = (digits of the first k steps) / k for k = 1..t."""
        return tuple(map(truediv, itertools.accumulate(self.lengths), range(1, len(self.lengths) + 1)))


def encoded_trace(src, code, policy, t, seed) -> Trace:
    """The steps that empirical_acl(src, code, policy, t, seed) reduces."""
    words_of = codes._covering(src, code)
    symbol_indices, ids = [], []
    for chunk_symbols, chunk_ids in codes._encode_chunks(src, words_of, policy, t, seed):
        symbol_indices += chunk_symbols
        ids += chunk_ids
    index_of = [u for words in words_of for u in range(len(words))]
    length_of = [len(w) for words in words_of for w in words]
    return Trace(tuple(symbol_indices), tuple(map(index_of.__getitem__, ids)), tuple(map(length_of.__getitem__, ids)))
