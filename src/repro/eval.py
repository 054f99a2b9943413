"""Batched evaluation facade.

One entry point for "evaluate many covers on many vectors", with two
implementations chosen by ``REPRO_KERNEL`` like everywhere else:

* **arena** (NumPy backend, the default) — the
  :mod:`repro.kernels.batcharena` path: all covers packed once, every
  (cover, vector) pair evaluated in one vectorized pass in this
  process;
* **scalar** (``REPRO_KERNEL=python``) — ``Cover.output_mask_for``
  loops, the oracle.

Both produce bit-identical masks — the differential tests assert it
against the scalar loops and against ``bitslice.eval_minterms`` cover
by cover — so the backend only changes speed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro import kernels
from repro.testgen.lfsr import GaloisLFSR


def evaluate_covers(covers: Sequence,
                    minterms: Sequence[int]) -> List[List[int]]:
    """Output bitmask of every (cover, minterm) pair.

    Returns ``result[c][t]`` = ``covers[c].output_mask_for(minterms[t])``
    for every cover and vector, computed by whichever path is active.
    """
    minterms = list(minterms)
    covers = list(covers)
    if not covers:
        return []
    if kernels.enabled():
        from repro.kernels import batcharena
        arena = batcharena.CoverArena.from_covers(covers)
        masks = arena.eval_minterms(minterms)
        return [[int(m) for m in row] for row in masks]
    return [[cover.output_mask_for(m) for m in minterms]
            for cover in covers]


def evaluate_stream(covers: Sequence, n_words: int, seed: int = 0,
                    width: Optional[int] = None) -> List[List[int]]:
    """Evaluate covers on a deterministic LFSR vector stream.

    The stream is ``64 * n_words`` vectors of a maximal-length Galois
    LFSR of ``width`` bits (default: the widest cover, floor 2); each
    cover reads its own low input bits of every vector, so one stream
    drives covers of mixed widths and the result depends only on
    ``(covers, n_words, seed, width)`` — never on the backend.
    """
    if width is None:
        width = max([c.n_inputs for c in covers] + [2])
    lfsr = GaloisLFSR(width, seed=seed)
    return evaluate_covers(covers, lfsr.states(n_words * 64))


__all__ = ["evaluate_covers", "evaluate_stream"]
