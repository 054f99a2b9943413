"""Unified combinational equivalence checking.

One API over the three oracles the library has:

* **truth table** — exhaustive, exact, up to ``exhaustive_limit`` inputs;
* **BDD** — exact at any size this repository reaches (used automatically
  above the truth-table limit);
* **sampling** — probabilistic spot check, kept for cross-validation.

``check_equivalence`` returns a :class:`EquivalenceResult` carrying the
verdict, the method used and a counterexample when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import kernels
from repro.logic.bdd import BDDManager, FALSE
from repro.logic.cover import Cover


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check.

    Attributes
    ----------
    equivalent:
        The verdict.
    method:
        ``"truth-table"`` or ``"bdd"``.
    counterexample:
        An input vector where the covers differ (with the differing
        output index), or ``None`` when equivalent.
    """

    equivalent: bool
    method: str
    counterexample: Optional[List[int]] = None
    output: Optional[int] = None


def check_equivalence(a: Cover, b: Cover, dc: Optional[Cover] = None,
                      exhaustive_limit: int = 12) -> EquivalenceResult:
    """Exact equivalence of two covers, modulo an optional DC-set.

    Picks the truth-table oracle for small input counts and the BDD
    engine beyond; both are exact.  A counterexample is produced on
    failure (from the BDD, via ``any_sat`` on the difference).
    """
    if (a.n_inputs, a.n_outputs) != (b.n_inputs, b.n_outputs):
        raise ValueError("cover dimensions do not match")

    if a.n_inputs <= exhaustive_limit:
        if kernels.enabled() and a.n_outputs <= kernels.bitslice.WORD:
            found = kernels.bitslice.exhaustive_difference(a, b, dc)
            if found is None:
                return EquivalenceResult(True, "truth-table")
            minterm, mask_a, mask_b = found
            dc_mask = dc.output_mask_for(minterm) if dc is not None else 0
            diff = (mask_a ^ mask_b) & ~dc_mask
            vector = [(minterm >> i) & 1 for i in range(a.n_inputs)]
            output = (diff & -diff).bit_length() - 1
            return EquivalenceResult(False, "truth-table", vector, output)
        for minterm in range(1 << a.n_inputs):
            mask_a = a.output_mask_for(minterm)
            mask_b = b.output_mask_for(minterm)
            dc_mask = dc.output_mask_for(minterm) if dc is not None else 0
            diff = (mask_a ^ mask_b) & ~dc_mask
            if diff:
                vector = [(minterm >> i) & 1 for i in range(a.n_inputs)]
                output = (diff & -diff).bit_length() - 1
                return EquivalenceResult(False, "truth-table", vector, output)
        return EquivalenceResult(True, "truth-table")

    manager = BDDManager(a.n_inputs)
    for output in range(a.n_outputs):
        fa = manager.from_cover_output(a, output)
        fb = manager.from_cover_output(b, output)
        diff = manager.apply_xor(fa, fb)
        if dc is not None:
            care = manager.apply_not(manager.from_cover_output(dc, output))
            diff = manager.apply_and(diff, care)
        if diff != FALSE:
            return EquivalenceResult(False, "bdd", manager.any_sat(diff),
                                     output)
    return EquivalenceResult(True, "bdd")


def assert_equivalent(a: Cover, b: Cover, dc: Optional[Cover] = None) -> None:
    """Raise ``AssertionError`` with the counterexample when not equivalent."""
    result = check_equivalence(a, b, dc)
    if not result.equivalent:
        raise AssertionError(
            f"covers differ at input {result.counterexample} "
            f"output {result.output} (method: {result.method})")
