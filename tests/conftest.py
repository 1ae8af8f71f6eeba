import os
import threading

import pytest

from tcpfluid import SystemParams, artifacts, cubic_fixed_point, dde, nhpl


@pytest.fixture(autouse=True)
def no_child_left():
    # Every process a test starts must have been waited for when the test
    # ends.
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_thread_left():
    # Every thread a test starts must have ended when the test ends.
    before = threading.active_count()
    yield
    assert threading.active_count() == before


@pytest.fixture
def python_loop(monkeypatch):
    """Every ``integrate`` call runs the Python step loop, as on a host
    where the compiled loop cannot be built."""
    monkeypatch.setattr(dde, "_kernel", lambda: None)


@pytest.fixture
def python_sim(monkeypatch):
    """Every ``run_simulation`` call runs the Python event loop, as on a
    host where the compiled loop cannot be built."""
    monkeypatch.setattr(nhpl, "_kernel", lambda: None)


@pytest.fixture
def python_format(monkeypatch):
    """Every CSV is written by ``repr``, as on a host where the compiled
    formatter cannot be built."""
    monkeypatch.setattr(artifacts, "_formatter", lambda: None)


@pytest.fixture
def full_disk(monkeypatch):
    """``full_disk(*names)``: every file of one of those names that the CSV
    writer opens takes its writes to ``/dev/full``, so they fail with
    ENOSPC, as on a full disk; the file itself is made first."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")

    def fill(*names):
        def opened(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if os.path.basename(path) in names:
                fd = os.open("/dev/full", os.O_WRONLY)
                os.dup2(fd, fh.fileno())
                os.close(fd)
            return fh

        monkeypatch.setattr(artifacts, "open", opened, raising=False)

    return fill


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
