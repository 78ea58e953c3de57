"""Versioned file formats: mode tables, field dumps, CSV/JSON artifacts.

All text formats use 17-significant-digit decimals so every double round
trips bit-exactly, and all writers are atomic (tmp file + rename) so a
failed run leaves no partial artifacts behind.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import CurvewaveError
from .potential import PotentialSpec

MODES_MAGIC = "# curvewave-modes v1"
EXPANSION_MAGIC = "# curvewave-expansion v1"
FIELD_MAGIC = "curvewave-field v1"
FIELD_HEADER_BYTES = 64


def fmt(x) -> str:
    """Decimal with 17 significant digits; round-trips any double."""
    return format(float(x), ".17g")


@contextmanager
def atomic_write(path, mode="w"):
    tmp = f"{path}.tmp"
    f = open(tmp, mode)
    try:
        yield f
        f.close()
        os.replace(tmp, path)
    except BaseException:
        f.close()
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_modes(path, table) -> None:
    """Columnar text dump of a ModeTable."""
    pot = table.pot
    with atomic_write(path) as f:
        f.write(f"{MODES_MAGIC} R={fmt(pot.radius)} V0={fmt(pot.v0)} "
                f"mstar={fmt(pot.mass)} hbar={fmt(pot.hbar)}\n")
        f.write("# m n re_k im_k re_norm im_norm re_c im_c class\n")
        for mo in table.modes:
            f.write(" ".join([
                str(mo.m), str(mo.n),
                fmt(mo.k.real), fmt(mo.k.imag),
                fmt(mo.norm.real), fmt(mo.norm.imag),
                fmt(mo.c.real), fmt(mo.c.imag),
                mo.klass,
            ]) + "\n")


def load_modes(path):
    """Inverse of save_modes; energy/gamma are recomputed from k."""
    from .spectrum import EigenMode, ModeTable

    with open(path) as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(MODES_MAGIC):
            raise CurvewaveError(f"not a curvewave mode table: {path}")
        fields = dict(tok.split("=") for tok in header[len(MODES_MAGIC):].split())
        pot = PotentialSpec(radius=float(fields["R"]), v0=float(fields["V0"]),
                            mass=float(fields["mstar"]), hbar=float(fields["hbar"]))
        modes = []
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            toks = line.split()
            m, n = int(toks[0]), int(toks[1])
            k = complex(float(toks[2]), float(toks[3]))
            norm = complex(float(toks[4]), float(toks[5]))
            c = complex(float(toks[6]), float(toks[7]))
            energy = complex(pot.hbar**2 * k * k / (2.0 * pot.mass))
            gamma = max(0.0, -2.0 * energy.imag)
            modes.append(EigenMode(m=m, n=n, k=k, energy=energy, gamma=gamma,
                                   c=c, norm=norm, klass=toks[8]))
    return ModeTable(pot=pot, modes=modes, diagnostics=[])


def save_expansion(path, expansion, packet) -> None:
    with atomic_write(path) as f:
        f.write(f"{EXPANSION_MAGIC} m0={fmt(packet.m0)} k0={fmt(packet.k0)} "
                f"sigma={fmt(packet.sigma)} threshold={fmt(expansion.threshold)}\n")
        f.write("# m n branch re_coeff im_coeff class\n")
        for m, n, branch, coeff, klass in zip(
                expansion.m.tolist(), expansion.n.tolist(), expansion.branch.tolist(),
                expansion.coeff.tolist(), expansion.klass.tolist()):
            f.write(f"{m} {n} {branch:+d} {fmt(coeff.real)} {fmt(coeff.imag)} {klass}\n")


def save_field_binary(path, values, x_origin, y_origin, dx, dy, time) -> None:
    """Cartesian field dump: 64-byte ASCII header then float64 LE (re, im) pairs.

    ``values[iy, ix]`` is the amplitude at (x_origin + ix*dx, y_origin + iy*dy);
    pairs are written row-major over (iy, ix).
    """
    values = np.asarray(values, dtype=complex)
    ny, nx = values.shape
    # grid metadata precision degrades gracefully until the header fits
    for digits in (8, 7, 6, 5, 4, 3):
        header = (f"{FIELD_MAGIC} {nx} {ny} {x_origin:.{digits}g} "
                  f"{y_origin:.{digits}g} {dx:.{digits}g} {dy:.{digits}g} "
                  f"{time:.{digits}g}")
        if len(header) <= FIELD_HEADER_BYTES:
            break
    raw = header.encode("ascii")
    if len(raw) > FIELD_HEADER_BYTES:
        raise CurvewaveError(f"field header exceeds {FIELD_HEADER_BYTES} bytes: {header!r}")
    raw = raw.ljust(FIELD_HEADER_BYTES)
    inter = np.empty((ny, nx, 2), dtype="<f8")
    inter[..., 0] = values.real
    inter[..., 1] = values.imag
    with atomic_write(path, "wb") as f:
        f.write(raw)
        f.write(inter.tobytes())


def load_field_binary(path):
    with open(path, "rb") as f:
        raw = f.read(FIELD_HEADER_BYTES).decode("ascii").rstrip()
        if not raw.startswith(FIELD_MAGIC):
            raise CurvewaveError(f"not a curvewave field dump: {path}")
        toks = raw[len(FIELD_MAGIC):].split()
        nx, ny = int(toks[0]), int(toks[1])
        x0, y0, dx, dy, time = (float(t) for t in toks[2:7])
        data = np.frombuffer(f.read(), dtype="<f8").reshape(ny, nx, 2)
        values = data[..., 0] + 1j * data[..., 1]
    return {"values": values, "x_origin": x0, "y_origin": y0,
            "dx": dx, "dy": dy, "time": time}


def write_csv(path, columns, rows) -> None:
    """Plain CSV with deterministic 17-digit float formatting."""
    with atomic_write(path) as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")


def write_json(path, obj) -> None:
    with atomic_write(path) as f:
        f.write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=True))
        f.write("\n")
