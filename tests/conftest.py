import hashlib
import os
import pickle
from pathlib import Path

import pytest

import curvewave
from curvewave.packet import PacketSpec, expand
from curvewave.potential import PotentialSpec
from curvewave.spectrum import build_mode_table


def _source_key():
    """Hash of the package sources, so a dev cache made by other code is not reused."""
    digest = hashlib.sha256()
    for path in sorted(Path(curvewave.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cached(name, builder):
    cache_dir = os.environ.get("CURVEWAVE_TEST_CACHE")
    if not cache_dir:
        return builder()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{_source_key()}_{name}.pkl")
    if os.path.exists(path):
        with open(path, "rb") as f:
            return pickle.load(f)
    obj = builder()
    with open(path, "wb") as f:
        pickle.dump(obj, f)
    return obj


@pytest.fixture(scope="session")
def pot():
    return PotentialSpec()


@pytest.fixture(scope="session")
def small_table(pot):
    """Deep-well window: enough for the m0=0, k0=40 interior packet."""
    return _cached("small_table", lambda: build_mode_table(
        pot, range(0, 76), resonance_k_max=101.5, jobs=2))


@pytest.fixture(scope="session")
def deep_packet():
    return PacketSpec(m0=0.0, k0=40.0)


@pytest.fixture(scope="session")
def deep_expansion(deep_packet, small_table):
    return _cached("deep_expansion",
                   lambda: expand(deep_packet, small_table, threshold=0.0005,
                                  jobs=2))


@pytest.fixture(scope="session")
def packet_a():
    return PacketSpec(m0=75.0, k0=75.0)


@pytest.fixture(scope="session")
def packet_b():
    return PacketSpec(m0=120.0, k0=90.0)


@pytest.fixture(scope="session")
def table_a(pot):
    return _cached("table_a", lambda: build_mode_table(
        pot, range(2, 151), resonance_k_max=118.0, jobs=2))


@pytest.fixture(scope="session")
def table_b(pot):
    return _cached("table_b", lambda: build_mode_table(
        pot, range(48, 204), resonance_k_max=130.0, jobs=2))


@pytest.fixture(scope="session")
def expansion_a(packet_a, table_a):
    return _cached("expansion_a",
                   lambda: expand(packet_a, table_a, threshold=0.0005, jobs=2))


@pytest.fixture(scope="session")
def expansion_b_evolution(packet_b, table_b):
    return _cached("expansion_b_evol",
                   lambda: expand(packet_b, table_b, threshold=0.0005,
                                  resonance_threshold=0.0, jobs=2))


@pytest.fixture(scope="session")
def expansion_b(expansion_b_evolution):
    """The counting cut of the same coefficient pass as the evolution one."""
    return expansion_b_evolution.thresholded()


@pytest.fixture(scope="session")
def packet_c():
    return PacketSpec(m0=140.0, k0=122.065)


@pytest.fixture(scope="session")
def packet_d():
    return PacketSpec(m0=140.0, k0=140.0)


@pytest.fixture(scope="session")
def table_c(pot):
    return _cached("table_c", lambda: build_mode_table(
        pot, range(68, 213), resonance_k_max=162.065, jobs=2))


@pytest.fixture(scope="session")
def table_d(pot):
    return _cached("table_d", lambda: build_mode_table(
        pot, range(68, 213), resonance_k_max=180.0, jobs=2))


@pytest.fixture(scope="session")
def expansion_c_evolution(packet_c, table_c):
    return _cached("expansion_c_evol",
                   lambda: expand(packet_c, table_c, threshold=0.0005,
                                  resonance_threshold=0.0, jobs=2))


@pytest.fixture(scope="session")
def expansion_d_evolution(packet_d, table_d):
    return _cached("expansion_d_evol",
                   lambda: expand(packet_d, table_d, threshold=0.0005,
                                  resonance_threshold=0.0, jobs=2))
