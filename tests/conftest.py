"""Shared fixtures: the diagram families and ring geometry used throughout,
and the mirror of a diagram."""

import contextlib
import signal

import pytest

from sdlwr import (
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    RingSpec,
    TriangularDiagram,
)
from sdlwr.fundamental_diagram import FundamentalDiagram


@pytest.fixture(scope="session")
def gs():
    """Greenshields with v_free=1 km/s, rho_jam=4: capacity 1 at rho_crit=2."""
    return GreenshieldsDiagram(1.0, 4.0)


@pytest.fixture(scope="session")
def kk1():
    return KernerKonhauserDiagram(lanes=1)


@pytest.fixture(scope="session")
def kk2():
    return KernerKonhauserDiagram(lanes=2)


@pytest.fixture(scope="session")
def ring(kk1, kk2):
    """Two-link ring: 2.8 km single-lane bottleneck, 14 km two-lane main."""
    return RingSpec(16.8, 2.8, kk1, kk2)


@pytest.fixture(scope="session")
def family_zoo():
    """One or two representatives per diagram family, spanning shapes:
    smooth concave, pure triangle, trapezoid with an active flux ceiling,
    and the non-concave Kerner-Konhauser hump at both lane counts.
    """
    return [
        GreenshieldsDiagram(1.0, 4.0),
        GreenshieldsDiagram(27.8e-3, 120.0),
        TriangularDiagram(1.0, 4.0),
        TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3),
        KernerKonhauserDiagram(lanes=1),
        KernerKonhauserDiagram(lanes=2),
    ]


class _Mirror(FundamentalDiagram):
    """The mirrored diagram Q~(rho) = Q(rho_jam - rho), on the generic
    path: rho(x) -> rho_jam - rho(-x) maps a road's states to the
    mirrored road's, free to congested, and its count N to N_max - N."""

    def __init__(self, fd):
        self.fd, self.rho_jam = fd, fd.rho_jam
        super().__init__()

    def flux_curve(self, rho):
        return self.fd.flux_curve(self.rho_jam - rho)


@pytest.fixture(scope="session")
def mirror():
    """``mirror(fd)`` is the mirrored diagram of ``fd``."""
    return _Mirror


class DeadlineExpired(Exception):
    """A block outran its ``deadline``."""


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises DeadlineExpired in a block that
    runs longer, so that a search that never ends fails its test instead
    of stalling the suite (SIGALRM: POSIX, main thread)."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise DeadlineExpired(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
