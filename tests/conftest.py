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


def _transform_lengths(monkeypatch, name: str) -> list:
    seen, transform = [], getattr(np.fft, name)

    def counted(a, n=None, *args, **kwargs):
        seen.append(np.shape(a)[-1] if n is None else n)
        return transform(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, name, counted)
    return seen


@pytest.fixture
def irfft_lengths(monkeypatch) -> list:
    """The length of every inverse transform made during the test."""
    return _transform_lengths(monkeypatch, "irfft")


@pytest.fixture
def rfft_lengths(monkeypatch) -> list:
    """The length of every forward transform made during the test, the
    input's own where no length is given."""
    return _transform_lengths(monkeypatch, "rfft")
