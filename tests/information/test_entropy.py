"""Unit and property tests for the entropy toolkit."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.information import (
    binary_entropy,
    conditional_entropy,
    entropy,
    joint_entropy,
    marginal_x,
    marginal_y,
    mutual_information,
    validate_distribution,
)


@st.composite
def joints(draw):
    nx = draw(st.integers(1, 5))
    ny = draw(st.integers(1, 5))
    weights = [
        [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(ny)]
        for _ in range(nx)
    ]
    total = sum(sum(row) for row in weights)
    if total == 0:
        weights[0][0] = 1.0
        total = 1.0
    return {
        (x, y): weights[x][y] / total
        for x in range(nx)
        for y in range(ny)
        if weights[x][y] > 0
    }


class TestEntropy:
    def test_uniform(self):
        assert entropy({x: 1 / 8 for x in range(8)}) == pytest.approx(3.0)

    def test_point_mass(self):
        assert entropy({"x": 1.0}) == 0.0

    def test_point_mass_is_positive_zero(self):
        # -sum(...) of a point mass would be -0.0, which JSON prints as such
        assert math.copysign(1.0, entropy({"x": 1.0})) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            validate_distribution({"a": 0.5, "b": 0.6})
        with pytest.raises(ValueError):
            validate_distribution({"a": -0.1, "b": 1.1})

    def test_binary_entropy(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestJointQuantities:
    def test_independent_variables(self):
        joint = {
            (x, y): 0.25 for x in range(2) for y in range(2)
        }
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)
        assert conditional_entropy(joint) == pytest.approx(1.0)

    def test_fully_dependent(self):
        joint = {(0, 0): 0.5, (1, 1): 0.5}
        assert mutual_information(joint) == pytest.approx(1.0)
        assert conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)

    def test_marginals(self):
        joint = {(0, "a"): 0.2, (0, "b"): 0.3, (1, "a"): 0.5}
        assert marginal_x(joint) == pytest.approx({0: 0.5, 1: 0.5})
        assert marginal_y(joint) == pytest.approx({"a": 0.7, "b": 0.3})

    def test_deterministic_function_information(self):
        joint = {(x, x % 2): 0.25 for x in range(4)}
        # Y determined by X: H(Y|X) = 0, so I = H(Y) = 1 bit
        assert mutual_information(joint) == pytest.approx(1.0)


class TestInformationInequalities:
    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_nonnegativity(self, joint):
        assert mutual_information(joint) >= 0
        assert entropy(marginal_x(joint)) >= -1e-12
        assert joint_entropy(joint) >= -1e-12

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_conditioning_reduces_entropy(self, joint):
        # H(X|Y) <= H(X)
        hx = entropy(marginal_x(joint))
        assert conditional_entropy(joint) <= hx + 1e-9

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_chain_rule(self, joint):
        # H(X, Y) = H(Y) + H(X|Y)
        assert joint_entropy(joint) == pytest.approx(
            entropy(marginal_y(joint)) + conditional_entropy(joint), abs=1e-9
        )

    @given(joints())
    @settings(max_examples=100, deadline=None)
    def test_information_symmetric_bound(self, joint):
        # I(X;Y) <= min(H(X), H(Y))
        i = mutual_information(joint)
        assert i <= entropy(marginal_x(joint)) + 1e-9
        assert i <= entropy(marginal_y(joint)) + 1e-9
