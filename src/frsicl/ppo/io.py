"""Binary persistence for trained policy parameters.

Layout: magic "FRSPPO1" (7 bytes), then four little-endian uint32 fields
(n_sensors, input_dim, hidden1, hidden2), then MlpParams.flat as
little-endian float64 (PARAM_ORDER, each array row-major).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .net import MlpParams, param_count

MAGIC = b"FRSPPO1"
_HEADER = struct.Struct("<4I")


class ParamsFileError(ValueError):
    pass


def save_params(params: MlpParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(params.n_sensors, params.input_dim,
                              params.hidden[0], params.hidden[1]))
        fh.write(params.flat.astype("<f8").tobytes())


def load_params(path: str) -> MlpParams:
    """Read a params file; its sizes are checked before the payload is read."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ParamsFileError(f"{path}: bad magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ParamsFileError(f"{path}: header has {len(header)} of 16 bytes")
        n_sensors, input_dim, h1, h2 = sizes = _HEADER.unpack(header)
        if 0 in sizes:
            raise ParamsFileError(f"{path}: zero size in header {sizes}")
        count = param_count(n_sensors, input_dim, (h1, h2))
        n_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes != 8 * count:
            raise ParamsFileError(f"{path}: header declares {count} parameters, "
                                  f"file holds {n_bytes} bytes")
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise ParamsFileError(f"{path}: non-finite parameter value")
    return MlpParams(n_sensors, input_dim, (h1, h2), flat)
