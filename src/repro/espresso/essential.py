"""Essential prime extraction.

A prime is *essential* when it covers a minterm no other prime (nor the
DC-set) covers; essential primes belong to every minimum cover, so the
Espresso loop sets them aside and minimizes only the remainder, treating
the essentials as additional don't-cares.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.espresso.coverage import coverage_table
from repro.logic.cover import Cover


def essential_primes(cover: Cover, dc_set: Optional[Cover] = None) \
        -> Tuple[Cover, Cover]:
    """Split a prime cover into ``(essentials, remainder)``.

    ``cover`` must consist of primes (run :func:`repro.espresso.expand`
    first); a prime is flagged essential when the rest of the cover plus
    the DC-set fails to cover it.  One
    :func:`~repro.espresso.coverage.coverage_table` answers that for
    every prime at once.
    """
    if dc_set is None:
        dc_set = Cover.empty(cover.n_inputs, cover.n_outputs)

    n, m, cubes = cover.n_inputs, cover.n_outputs, list(cover.cubes)
    covered = coverage_table(cubes, dc_set, n, m).covered_by_rest()
    return (Cover(n, m, [c for c, hit in zip(cubes, covered) if not hit]),
            Cover(n, m, [c for c, hit in zip(cubes, covered) if hit]))
