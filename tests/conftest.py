import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption("--trials", type=int, default=100,
                     help="trial count for the property suites")
    parser.addoption("--rng-seed", type=int, default=20240611,
                     help="seed for the property-suite generator")


@pytest.fixture
def trials(request) -> int:
    return request.config.getoption("--trials")


@pytest.fixture
def rng(request) -> np.random.Generator:
    return np.random.default_rng(request.config.getoption("--rng-seed"))


@pytest.fixture
def irfft_lengths(monkeypatch) -> list:
    """The length of every inverse transform made during the test."""
    seen, irfft = [], np.fft.irfft

    def counted(a, n=None, *args, **kwargs):
        seen.append(n)
        return irfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    return seen
