"""Batched evaluation facade.

One entry point for "evaluate many covers on many vectors", with two
implementations chosen by ``REPRO_KERNEL`` like everywhere else:

* **arena** (NumPy backend, the default) — the
  :mod:`repro.kernels.batcharena` path: all covers packed once, every
  (cover, vector) pair evaluated in one vectorized pass; optionally
  fanned across the resilient :mod:`repro.runner` pool with the arena
  in shared memory (workers map it zero-copy instead of unpickling
  covers per task);
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

#: Vectors handed to each worker task of a parallel batch evaluation.
BLOCK_VECTORS = 4096


# ----------------------------------------------------------------------
# evaluation entry points
# ----------------------------------------------------------------------
def evaluate_covers(covers: Sequence, minterms: Sequence[int],
                    jobs: int = 1, pool=None) -> List[List[int]]:
    """Output bitmask of every (cover, minterm) pair.

    Returns ``result[c][t]`` = ``covers[c].output_mask_for(minterms[t])``
    for every cover and vector, computed by whichever path is active.
    ``jobs > 1`` fans vector blocks across the resilient worker pool
    with the arena shared zero-copy (arena path only; the scalar path
    ignores it — its per-task state would dwarf the work).  ``pool``
    is an optional warm :class:`repro.runner.WarmPool`: callers that
    evaluate per request (the serve layer) reuse live workers instead
    of paying pool spin-up per call.
    """
    minterms = list(minterms)
    covers = list(covers)
    if not covers:
        return []
    if kernels.enabled():
        from repro.kernels import batcharena
        arena = batcharena.CoverArena.from_covers(covers)
        if (jobs > 1 or pool is not None) and len(minterms) > BLOCK_VECTORS:
            return _parallel_masks(arena, minterms, jobs, pool)
        masks = arena.eval_minterms(minterms)
        return [[int(m) for m in row] for row in masks]
    return [[cover.output_mask_for(m) for m in minterms]
            for cover in covers]


def evaluate_stream(covers: Sequence, n_words: int, seed: int = 0,
                    width: Optional[int] = None,
                    jobs: int = 1) -> List[List[int]]:
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
    return evaluate_covers(covers, lfsr.states(n_words * 64), jobs=jobs)


# ----------------------------------------------------------------------
# zero-copy parallel fan-out
# ----------------------------------------------------------------------
def _eval_block(payload: dict) -> List[List[int]]:
    """Worker entry: attach the shared arena, evaluate one block."""
    from repro.kernels import batcharena
    arena = batcharena.attach_arena(payload["arena"])
    try:
        masks = arena.eval_minterms(payload["minterms"])
        return [[int(m) for m in row] for row in masks]
    finally:
        arena.close()


def _parallel_masks(arena, minterms: List[int],
                    jobs: int, pool=None) -> List[List[int]]:
    from repro import runner as resilient
    from repro.kernels import batcharena

    with batcharena.share_arena(arena) as shared:
        tasks = []
        for lo in range(0, len(minterms), BLOCK_VECTORS):
            block = minterms[lo:lo + BLOCK_VECTORS]
            tasks.append(({"block": lo},
                          {"arena": shared.handle, "minterms": block}))
        report = resilient.run_tasks(_eval_block, tasks, jobs=jobs,
                                     pool=pool)
        report.raise_on_failure()
        blocks = report.values()
    result: List[List[int]] = [[] for _ in range(arena.n_covers)]
    for block in blocks:
        for c, row in enumerate(block):
            result[c].extend(row)
    return result


__all__ = ["BLOCK_VECTORS", "evaluate_covers", "evaluate_stream"]
