"""Shared fixtures for the test suite."""

import numpy as np
import pytest

import graph_ops  # noqa: F401  attaches the test-only elementwise ops to Tensor


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)
