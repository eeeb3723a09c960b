"""Shared fixtures."""

import contextlib

import numpy as np
import pytest

from repro.nn.network import Network


def _walk_range(self, x, start, end):
    return self.reference_forward(x, start, end)


def _walk_batch(self, xs):
    return np.stack([self.reference_forward(x) for x in xs])


def _walk_exit(self, x, exit_index=None):
    return self.at_exit(exit_index).reference_forward(x)


@pytest.fixture
def reference_walk():
    """Context manager routing every ``Network`` forward through
    :meth:`~repro.nn.network.Network.reference_forward` instead of a
    compiled plan — the oracle for end-to-end plan-vs-walk checks.

    Usage: ``with reference_walk(): walked = run_something()``.
    """

    @contextlib.contextmanager
    def walk():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Network, "forward_range", _walk_range)
            patch.setattr(Network, "forward_batch", _walk_batch)
            patch.setattr(Network, "forward_exit", _walk_exit)
            yield

    return walk
