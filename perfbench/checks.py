"""Output checks computed apart from the program under test.

Nothing here imports ``repro.kernels`` or ``repro.eval``: every check
recomputes its answer from first principles in plain Python and
compares it with what the program returned.

* Truth tables are Python integers with one bit per minterm (bit ``m``
  is the value on input vector ``m``; input ``i`` is bit ``i`` of
  ``m``), so a 17-input cover is a handful of 16 KiB big-integer ANDs.
* Covers come in as ``(n_inputs, n_outputs, rows)`` where a row is an
  ``(inputs, outputs)`` pair in positional notation (two bits per
  input: ``01`` = literal 0, ``10`` = literal 1, ``11`` = absent) or a
  Berkeley PLA row string such as ``"01-1 10"``.

Every ``check_*`` function raises :class:`CheckError` on a wrong output
and returns ``None`` otherwise.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Table 1 basic-cell areas in L^2 and whether the cell needs both
#: input polarities on separate columns (the paper's Section 3).
CELLS = {"flash": (40, True), "eeprom": (100, True), "cnfet": (60, False)}

#: The paper's published Table 1 areas (L^2): benchmark -> tech -> area.
PAPER_TABLE1 = {
    "max46": {"flash": 34960, "eeprom": 87400, "cnfet": 27600},
    "apla": {"flash": 32000, "eeprom": 80000, "cnfet": 33000},
    "t2": {"flash": 104000, "eeprom": 260000, "cnfet": 102960},
}


class CheckError(AssertionError):
    """A program output disagreed with the independent computation."""


Row = Tuple[int, int]


# ----------------------------------------------------------------------
# covers as truth tables
# ----------------------------------------------------------------------
_VAR_MASKS: Dict[int, List[int]] = {}


def var_masks(n: int) -> List[int]:
    """``masks[i]``: the minterms (as bits) where input ``i`` is 1."""
    masks = _VAR_MASKS.get(n)
    if masks is None:
        size = 1 << n
        masks = []
        for i in range(n):
            half = 1 << i
            pattern, width = ((1 << half) - 1) << half, 2 * half
            while width < size:
                pattern |= pattern << width
                width *= 2
            masks.append(pattern)
        _VAR_MASKS[n] = masks
    return masks


def full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def parse_rows(rows: Iterable[str], n_inputs: int,
               n_outputs: int) -> List[Row]:
    """Berkeley PLA rows (``"10-1 01"``) to positional-notation rows."""
    parsed = []
    for text in rows:
        parts = text.split()
        ins = parts[0]
        outs = parts[1] if len(parts) > 1 else "1"
        if len(ins) != n_inputs or len(outs) != n_outputs:
            raise CheckError(f"row {text!r} does not fit "
                             f"{n_inputs} inputs / {n_outputs} outputs")
        inputs = 0
        for i, ch in enumerate(ins):
            field = {"0": 1, "1": 2, "-": 3}.get(ch)
            if field is None:
                raise CheckError(f"bad input character {ch!r} in {text!r}")
            inputs |= field << (2 * i)
        outputs = sum(1 << k for k, ch in enumerate(outs) if ch == "1")
        parsed.append((inputs, outputs))
    return parsed


def cube_table(n: int, inputs: int) -> int:
    """Minterms (as bits) inside the input part of one cube."""
    masks = var_masks(n)
    full = full_mask(n)
    table = full
    for i in range(n):
        field = (inputs >> (2 * i)) & 3
        if field == 0:
            return 0
        if field == 2:
            table &= masks[i]
        elif field == 1:
            table &= full ^ masks[i]
    return table


def cover_tables(n_inputs: int, n_outputs: int,
                 rows: Sequence[Row]) -> List[int]:
    """One truth table per output: the OR of the cubes tagged with it."""
    tables = [0] * n_outputs
    for inputs, outputs in rows:
        if not outputs:
            continue
        cube = cube_table(n_inputs, inputs)
        for k in range(n_outputs):
            if (outputs >> k) & 1:
                tables[k] |= cube
    return tables


def eval_rows(n_inputs: int, rows: Sequence[Row], minterm: int) -> int:
    """Output bitmask of a cover on one input vector (scalar walk)."""
    result = 0
    for inputs, outputs in rows:
        if all((inputs >> (2 * i)) & (2 if (minterm >> i) & 1 else 1)
               for i in range(n_inputs)):
            result |= outputs
    return result


def check_equivalent(n_inputs: int, n_outputs: int, result: Sequence[Row],
                     on: Sequence[Row], dc: Sequence[Row] = (),
                     phases: Optional[Sequence[bool]] = None,
                     what: str = "cover") -> None:
    """``result`` implements the function ``on`` modulo ``dc``.

    With ``phases``, output ``k`` of ``result`` realizes the complement
    of ``f_k`` wherever ``phases[k]`` is False (Section 5's free output
    phase of the GNOR PLA).
    """
    full = full_mask(n_inputs)
    got = cover_tables(n_inputs, n_outputs, result)
    if phases is not None:
        if len(phases) != n_outputs:
            raise CheckError(f"{what}: {len(phases)} phase flags for "
                             f"{n_outputs} outputs")
        got = [table if phase else full ^ table
               for table, phase in zip(got, phases)]
    check_tables(n_inputs, got, cover_tables(n_inputs, n_outputs, on),
                 cover_tables(n_inputs, n_outputs, dc), what)


def check_tables(n_inputs: int, got: Sequence[int], on: Sequence[int],
                 dc: Optional[Sequence[int]] = None,
                 what: str = "cover") -> None:
    """Per-output ``on <= got <= on | dc`` over all ``2**n`` inputs."""
    full = full_mask(n_inputs)
    for k, (g, f) in enumerate(zip(got, on)):
        d = dc[k] if dc else 0
        missing = f & ~g & full
        extra = g & ~(f | d) & full
        if missing or extra:
            bad = (missing | extra)
            minterm = (bad & -bad).bit_length() - 1
            raise CheckError(f"{what}: output {k} wrong on input "
                             f"{minterm} ({bin(bad).count('1')} inputs "
                             f"differ)")
    if len(got) != len(on):
        raise CheckError(f"{what}: {len(got)} outputs, expected {len(on)}")


# ----------------------------------------------------------------------
# the two-plane GNOR array
# ----------------------------------------------------------------------
def gnor_tables(n_inputs: int, and_plane: Sequence[Sequence[str]],
                or_plane: Sequence[Sequence[str]],
                output_inverted: Sequence[bool]) -> List[int]:
    """Truth tables a programmed GNOR PLA computes.

    Devices are given by mode name: ``pass`` feeds the row NOR with
    ``x``, ``invert`` with ``~x``, ``drop`` disconnects it.  A row is
    high when every connected device sees 0; an output column NORs the
    rows programmed ``pass`` and the output buffer inverts when
    ``output_inverted`` says so.
    """
    masks = var_masks(n_inputs)
    full = full_mask(n_inputs)
    rows = []
    for row in and_plane:
        if len(row) != n_inputs:
            raise CheckError(f"AND-plane row has {len(row)} devices, "
                             f"expected {n_inputs}")
        table = full
        for i, mode in enumerate(row):
            if mode == "pass":
                table &= full ^ masks[i]
            elif mode == "invert":
                table &= masks[i]
            elif mode != "drop":
                raise CheckError(f"unknown device mode {mode!r}")
        rows.append(table)
    outputs = []
    for k, column in enumerate(or_plane):
        if len(column) != len(rows):
            raise CheckError(f"OR-plane column {k} has {len(column)} "
                             f"devices, expected {len(rows)}")
        any_row = 0
        for r, mode in enumerate(column):
            if mode == "pass":
                any_row |= rows[r]
            elif mode != "drop":
                raise CheckError(f"OR-plane device mode {mode!r}")
        nor = full ^ any_row
        outputs.append(full ^ nor if output_inverted[k] else nor)
    return outputs


def check_gnor(n_inputs: int, n_outputs: int, plane, on: Sequence[Row],
               dc: Sequence[Row] = (), what: str = "GNOR array") -> None:
    """A programmed two-plane GNOR array computes ``on`` modulo ``dc``.

    ``plane`` is ``(and_plane, or_plane, output_inverted)`` with device
    modes as strings (see :func:`gnor_tables`).
    """
    and_plane, or_plane, inverted = plane
    if len(or_plane) != n_outputs:
        raise CheckError(f"{what}: {len(or_plane)} output columns, "
                         f"expected {n_outputs}")
    got = gnor_tables(n_inputs, and_plane, or_plane, inverted)
    check_tables(n_inputs, got, cover_tables(n_inputs, n_outputs, on),
                 cover_tables(n_inputs, n_outputs, dc), what)


# ----------------------------------------------------------------------
# integer and classifier oracles
# ----------------------------------------------------------------------
def _tables_from_function(n_inputs: int, n_outputs: int, fn) -> List[int]:
    bits = [fn(m) for m in range(1 << n_inputs)]
    tables = []
    for k in range(n_outputs):
        text = "".join("1" if (bits[m] >> k) & 1 else "0"
                       for m in reversed(range(len(bits))))
        tables.append(int(text, 2))
    return tables


def oracle_tables(family: str, width: int) -> Tuple[int, List[int]]:
    """``(n_inputs, tables)`` of an arithmetic cell from integer math.

    Families: ``add`` (``a+b``), ``addc`` (``a+b+cin``), ``cmp``
    (lt, eq, gt), ``lt``/``eq``/``gt`` and ``pop`` (popcount).  Inputs
    are ``a`` on bits ``0..w-1``, ``b`` on ``w..2w-1`` and ``cin`` on
    ``2w``.
    """
    low = (1 << width) - 1
    if family in ("add", "addc"):
        n = 2 * width + (family == "addc")
        return n, _tables_from_function(
            n, width + 1,
            lambda m: (m & low) + ((m >> width) & low) + ((m >> (2 * width))
                                                          & 1))
    if family in ("cmp", "lt", "eq", "gt"):
        names = ("lt", "eq", "gt") if family == "cmp" else (family,)

        def compare(m: int) -> int:
            a, b = m & low, (m >> width) & low
            flags = {"lt": a < b, "eq": a == b, "gt": a > b}
            return sum(1 << k for k, name in enumerate(names) if flags[name])

        return 2 * width, _tables_from_function(2 * width, len(names),
                                                compare)
    if family == "pop":
        n_out = width.bit_length()
        return width, _tables_from_function(width, n_out,
                                            lambda m: bin(m).count("1"))
    raise CheckError(f"no integer oracle for family {family!r}")


def classifier_table(model: dict) -> Tuple[int, int]:
    """``(n_inputs, table)`` of a trained model's own decision rule.

    ``model`` is the model's JSON form: ``{"kind": "threshold",
    "weights", "theta"}`` predicts ``sum(w_i x_i) >= theta``;
    ``{"kind": "dlist", "features", "rules", "default"}`` returns the
    label of the first rule whose positional mask admits the input.
    """
    if model["kind"] == "threshold":
        weights = list(model["weights"])
        n = len(weights)

        def predict(m: int) -> int:
            score = sum(w for i, w in enumerate(weights) if (m >> i) & 1)
            return 1 if score >= model["theta"] else 0
    elif model["kind"] == "dlist":
        n = model["features"]

        def predict(m: int) -> int:
            for mask, label in model["rules"]:
                if all((mask >> (2 * i)) & (2 if (m >> i) & 1 else 1)
                       for i in range(n)):
                    return label
            return model["default"]
    else:
        raise CheckError(f"unknown model kind {model['kind']!r}")
    return n, _tables_from_function(n, 1, predict)[0]


# ----------------------------------------------------------------------
# Table 1 and the Wilson interval
# ----------------------------------------------------------------------
def table1_area(tech: str, n_inputs: int, n_outputs: int,
                n_products: int) -> int:
    """Table 1: ``cell x P x (I + O)``, or ``(2I + O)`` for dual columns."""
    cell, dual = CELLS[tech]
    columns = (2 * n_inputs if dual else n_inputs) + n_outputs
    return cell * n_products * columns


def check_area(value: float, tech: str, n_inputs: int, n_outputs: int,
               n_products: int, what: str = "area") -> None:
    expected = table1_area(tech, n_inputs, n_outputs, n_products)
    if value != expected:
        raise CheckError(f"{what}: {value} L2, Table 1 formula gives "
                         f"{expected}")


def check_table1_text(text: str) -> Dict[str, int]:
    """``repro table1`` prints the paper's areas; returns the CNFET ones.

    Each benchmark line reads ``<name> (L2)  <flash> <eeprom> <cnfet>``,
    columns two or more spaces apart, thousands grouped by one space.
    """
    found: Dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split("(L2)")
        name = parts[0].strip()
        if len(parts) != 2 or name not in PAPER_TABLE1:
            continue
        numbers = _split_grouped(parts[1])
        expected = PAPER_TABLE1[name]
        if numbers != [expected["flash"], expected["eeprom"],
                       expected["cnfet"]]:
            raise CheckError(f"table1 row {name}: {numbers}, paper "
                             f"{[expected[t] for t in ('flash', 'eeprom', 'cnfet')]}")
        found[name] = expected["cnfet"]
    if sorted(found) != sorted(PAPER_TABLE1):
        raise CheckError(f"table1 printed rows {sorted(found)}")
    return found


def _split_grouped(text: str) -> List[int]:
    """Table cells (two or more spaces apart) with space-grouped
    thousands inside a cell (``34 960``)."""
    numbers = []
    for cell in re.split(r"\s{2,}", text.strip()):
        digits = cell.replace(" ", "")
        if not digits.isdigit():
            raise CheckError(f"non-numeric table cell {cell!r}")
        numbers.append(int(digits))
    return numbers


def wilson(successes: int, n: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    if n <= 0:
        raise CheckError("Wilson interval of zero samples")
    p = successes / n
    centre = p + z * z / (2 * n)
    spread = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    denom = 1 + z * z / n
    return (centre - spread) / denom, (centre + spread) / denom


def check_wilson(successes: int, n: int, estimate: float,
                 reported: Sequence[float], what: str = "yield") -> None:
    """The recomputed interval contains the estimate and the report's CI."""
    if not 0 <= successes <= n:
        raise CheckError(f"{what}: {successes} successes of {n}")
    if abs(estimate - successes / n) > 1e-6:
        raise CheckError(f"{what}: estimate {estimate} is not "
                         f"{successes}/{n}")
    lo, hi = wilson(successes, n)
    if not lo - 1e-9 <= estimate <= hi + 1e-9:
        raise CheckError(f"{what}: {estimate} outside Wilson "
                         f"[{lo:.6f}, {hi:.6f}]")
    if abs(reported[0] - lo) > 1e-6 or abs(reported[1] - hi) > 1e-6:
        raise CheckError(f"{what}: reported CI {list(reported)}, Wilson "
                         f"gives [{lo:.6f}, {hi:.6f}]")


# ----------------------------------------------------------------------
# FPGA placement and routing
# ----------------------------------------------------------------------
Site = Tuple[int, int]


def check_placement(width: int, height: int, blocks: Iterable[str],
                    sites: Dict[str, Site], what: str = "placement") -> None:
    """Every block sits on its own on-grid site."""
    taken: Dict[Site, str] = {}
    blocks = list(blocks)
    for name in blocks:
        if name not in sites:
            raise CheckError(f"{what}: block {name} unplaced")
        site = tuple(sites[name])
        x, y = site
        if not (0 <= x < width and 0 <= y < height):
            raise CheckError(f"{what}: block {name} at {site} off the "
                             f"{width}x{height} grid")
        if site in taken:
            raise CheckError(f"{what}: blocks {taken[site]} and {name} "
                             f"share site {site}")
        taken[site] = name
    extra = set(sites) - set(blocks)
    if extra:
        raise CheckError(f"{what}: unknown blocks placed: {sorted(extra)}")


def check_route(width: int, height: int, terminals: Sequence[Site],
                edges: Iterable[Tuple[Site, Site]],
                what: str = "route") -> None:
    """The edges are grid segments and connect every terminal."""
    adjacency: Dict[Site, List[Site]] = {}
    for a, b in edges:
        a, b = tuple(a), tuple(b)
        for x, y in (a, b):
            if not (0 <= x < width and 0 <= y < height):
                raise CheckError(f"{what}: segment {a}-{b} leaves the grid")
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise CheckError(f"{what}: {a}-{b} is not a grid segment")
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    terminals = [tuple(t) for t in terminals]
    if len(set(terminals)) < 2:
        return
    start = terminals[0]
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    missing = [t for t in terminals if t not in seen]
    if missing:
        raise CheckError(f"{what}: terminals {missing} not reached from "
                         f"{start}")


def net_terminals(source: Optional[str], sinks: Sequence[str], name: str,
                  sites: Dict[str, Site],
                  pads: Dict[str, Site]) -> List[Site]:
    """Tiles a net must connect: its driver (block or input pad), its
    sink blocks and, for a primary output, its output pad."""
    base = name.split("#", 1)[0]
    terminals: List[Site] = []
    if source is not None:
        terminals.append(tuple(sites[source]))
    elif base in pads:
        terminals.append(tuple(pads[base]))
    terminals.extend(tuple(sites[s]) for s in sinks)
    if source is not None and base in pads:
        terminals.append(tuple(pads[base]))
    return terminals


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise CheckError(f"geometric mean of {list(values)[:4]}...")
    return math.exp(sum(math.log(v) for v in values) / len(values))
