"""Configuration bitstreams for the ambipolar-CNFET fabric.

The paper's fabric is *programmable*: every device's polarity gate
stores one of three charges.  This module defines a compact on-disk
format for that configuration — two bits per device — and a loader that
replays a bitstream through the Fig 4 programming controller onto a
live array.

Format (little-endian)::

    magic   4 bytes  b"ACNF"
    version 1 byte   (1)
    kind    1 byte   1 = GNOR PLA (both planes + phases), 2 = crossbar
    dims    3 x u16  PLA: inputs, outputs, products; crossbar: h, v, 0
    payload ceil(bits / 8) bytes, 2 bits per device, row-major
            (PLA order: AND plane rows, then OR plane by output, then
             one bit per output-buffer phase, padded to a byte)
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.core.device import DEFAULT_PARAMETERS, DeviceParameters, Polarity
from repro.core.gnor import InputConfig
from repro.core.interconnect import CrosspointArray
from repro.core.pla import AmbipolarPLA
from repro.core.programming import ProgrammingController, ProgrammingReport
from repro.mapping.gnor_map import GNORPlaneConfig

MAGIC = b"ACNF"
VERSION = 1
KIND_PLA = 1
KIND_CROSSBAR = 2

_CONFIG_TO_BITS = {InputConfig.DROP: 0, InputConfig.PASS: 1,
                   InputConfig.INVERT: 2}
_BITS_TO_CONFIG = {v: k for k, v in _CONFIG_TO_BITS.items()}


class BitstreamError(ValueError):
    """Raised on malformed bitstream data."""


class _BitWriter:
    def __init__(self):
        self._bits: List[int] = []

    def write(self, value: int, width: int) -> None:
        for i in range(width):
            self._bits.append((value >> i) & 1)

    def to_bytes(self) -> bytes:
        data = bytearray((len(self._bits) + 7) // 8)
        for i, bit in enumerate(self._bits):
            if bit:
                data[i // 8] |= 1 << (i % 8)
        return bytes(data)


class _BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        value = 0
        for i in range(width):
            byte_index, bit_index = divmod(self._pos, 8)
            if byte_index >= len(self._data):
                raise BitstreamError("truncated payload")
            value |= ((self._data[byte_index] >> bit_index) & 1) << i
            self._pos += 1
        return value


# ----------------------------------------------------------------------
# PLA bitstreams
# ----------------------------------------------------------------------
def serialize_pla(config: GNORPlaneConfig) -> bytes:
    """Encode a full two-plane GNOR configuration."""
    header = MAGIC + struct.pack("<BBHHH", VERSION, KIND_PLA,
                                 config.n_inputs, config.n_outputs,
                                 config.n_products)
    writer = _BitWriter()
    for row in config.and_plane:
        for device in row:
            writer.write(_CONFIG_TO_BITS[device], 2)
    for row in config.or_plane:
        for device in row:
            writer.write(_CONFIG_TO_BITS[device], 2)
    for inverted in config.output_inverted:
        writer.write(1 if inverted else 0, 1)
    return header + writer.to_bytes()


def deserialize_pla(data: bytes) -> GNORPlaneConfig:
    """Decode a PLA bitstream back into a plane configuration."""
    kind, dims, payload = _parse_header(data)
    if kind != KIND_PLA:
        raise BitstreamError(f"expected a PLA bitstream, got kind {kind}")
    n_inputs, n_outputs, n_products = dims
    reader = _BitReader(payload)

    def read_config() -> InputConfig:
        bits = reader.read(2)
        if bits not in _BITS_TO_CONFIG:
            raise BitstreamError(f"invalid device code {bits}")
        return _BITS_TO_CONFIG[bits]

    and_plane = [[read_config() for _ in range(n_inputs)]
                 for _ in range(n_products)]
    or_plane = [[read_config() for _ in range(n_products)]
                for _ in range(n_outputs)]
    output_inverted = [bool(reader.read(1)) for _ in range(n_outputs)]
    return GNORPlaneConfig(n_inputs, n_outputs, n_products,
                           and_plane, or_plane, output_inverted)


def program_pla_from_bitstream(data: bytes,
                               params: DeviceParameters = DEFAULT_PARAMETERS
                               ) -> Tuple[AmbipolarPLA, List[ProgrammingReport]]:
    """Instantiate a blank array and program it cycle-by-cycle.

    The loader builds an :class:`AmbipolarPLA` for the bitstream's
    dimensions and pushes every device's polarity through the
    row/column-select protocol, returning the verified programming
    reports of both planes.
    """
    config = deserialize_pla(data)
    pla = AmbipolarPLA(config, params)
    reports = []
    # Re-walk both planes: blank the devices, then program from the
    # decoded configuration (proving the loader path, not the mapper's).
    and_grid = [gate.devices for gate in pla.and_rows]
    for row in and_grid:
        for device in row:
            device.program(Polarity.OFF)
    targets = [[c.to_polarity() for c in row] for row in config.and_plane]
    reports.append(ProgrammingController(and_grid).program_array(targets))
    if pla.or_columns:
        or_grid = [[pla.or_columns[k].devices[r]
                    for k in range(config.n_outputs)]
                   for r in range(config.n_products)]
        for row in or_grid:
            for device in row:
                device.program(Polarity.OFF)
        or_targets = [[config.or_plane[k][r].to_polarity()
                       for k in range(config.n_outputs)]
                      for r in range(config.n_products)]
        reports.append(ProgrammingController(or_grid).program_array(or_targets))
    return pla, reports


# ----------------------------------------------------------------------
# crossbar bitstreams
# ----------------------------------------------------------------------
def serialize_crossbar(array: CrosspointArray) -> bytes:
    """Encode a crosspoint array's connection pattern."""
    header = MAGIC + struct.pack("<BBHHH", VERSION, KIND_CROSSBAR,
                                 array.n_horizontal, array.n_vertical, 0)
    writer = _BitWriter()
    for h in range(array.n_horizontal):
        for v in range(array.n_vertical):
            writer.write(1 if array.is_connected(h, v) else 0, 2)
    return header + writer.to_bytes()


def deserialize_crossbar(data: bytes,
                         params: DeviceParameters = DEFAULT_PARAMETERS
                         ) -> CrosspointArray:
    """Decode and program a crossbar from its bitstream."""
    kind, dims, payload = _parse_header(data)
    if kind != KIND_CROSSBAR:
        raise BitstreamError(f"expected a crossbar bitstream, got kind {kind}")
    n_h, n_v, _zero = dims
    reader = _BitReader(payload)
    array = CrosspointArray(n_h, n_v, params)
    for h in range(n_h):
        for v in range(n_v):
            if reader.read(2):
                array.connect(h, v)
            else:
                array.disconnect(h, v)
    return array


def _parse_header(data: bytes) -> Tuple[int, Tuple[int, int, int], bytes]:
    if len(data) < 12 or data[:4] != MAGIC:
        raise BitstreamError("bad magic")
    version, kind, a, b, c = struct.unpack("<BBHHH", data[4:12])
    if version != VERSION:
        raise BitstreamError(f"unsupported version {version}")
    return kind, (a, b, c), data[12:]
