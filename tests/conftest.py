import os
import tempfile

import pytest

from tcpfluid import SystemParams, artifacts, cubic_fixed_point, dde


@pytest.fixture(autouse=True)
def no_child_left():
    # Every process a test starts, the CSV writer's forked children among
    # them, must have been waited for when the test ends.
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def python_loop(monkeypatch):
    """Every ``integrate`` call runs the Python step loop, as on a host
    where the compiled loop cannot be built."""
    monkeypatch.setattr(dde, "_kernel", lambda: None)


@pytest.fixture
def python_format(monkeypatch):
    """Every CSV is written by ``repr``, as on a host where the compiled
    formatter cannot be built."""
    monkeypatch.setattr(artifacts, "_formatter", lambda: None)


@pytest.fixture
def forks(monkeypatch):
    """The forks made while the test runs, one entry each."""
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


@pytest.fixture
def temp_files(monkeypatch):
    """The temporary files the CSV writers open while the test runs."""
    made = []
    make = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda *args, **kwargs: made.append(make(*args, **kwargs)) or made[-1])
    return made


@pytest.fixture
def failing_children(monkeypatch):
    """Make every forked writer fail; this process still writes its rows."""
    parent = os.getpid()
    write = artifacts._write_rows

    def failing(*args):
        if os.getpid() != parent:
            raise RuntimeError("child writer failed")
        write(*args)

    monkeypatch.setattr(artifacts, "_write_rows", failing)


@pytest.fixture(scope="session")
def unit_params():
    # O(1) scales in every quantity: the tightest tolerances apply here.
    return SystemParams(capacity=10.0, tau=1.0, b=0.2, c=0.4)


@pytest.fixture(scope="session")
def canonical_params():
    # 100 Mbit/s at 1000-byte packets, 10 ms RTT.
    return SystemParams(capacity=12500.0, tau=0.01, b=0.2, c=0.4)


@pytest.fixture(scope="session")
def gbit_params():
    # 1 Gbit/s, 1 ms RTT; the multi-flow comparison config.
    return SystemParams(capacity=125000.0, tau=0.001, b=0.2, c=0.4)


@pytest.fixture(scope="session")
def long_delay_params():
    # 1 Gbit/s, 100 ms RTT; the equilibrium here is not globally attracting.
    return SystemParams(capacity=125000.0, tau=0.1, b=0.2, c=0.4)


@pytest.fixture(scope="session")
def unit_fp(unit_params):
    return cubic_fixed_point(unit_params)


@pytest.fixture(scope="session")
def canonical_fp(canonical_params):
    return cubic_fixed_point(canonical_params)
