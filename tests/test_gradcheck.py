import numpy as np
import pytest

from cryptocast.errors import NumericalError
from cryptocast.gradcheck import grad_check


def test_quadratic_closed_form():
    # f(w) = w^2 at w=3: derivative 6
    def lg(params):
        w = params["w"][0]
        return w * w, {"w": np.array([2.0 * w])}

    err = grad_check(lg, {"w": np.array([3.0])}, h=1e-5)
    assert err < 1e-8


def test_constant_function_zero_error():
    def lg(params):
        return 4.2, {"w": np.zeros_like(params["w"])}

    assert grad_check(lg, {"w": np.array([1.0, -2.0])}, h=1e-5) == 0.0


def test_detects_wrong_gradient():
    def lg(params):
        w = params["w"][0]
        return w * w, {"w": np.array([3.0 * w])}  # deliberately wrong

    assert grad_check(lg, {"w": np.array([1.5])}, h=1e-5) > 0.1


def test_multi_parameter_function():
    def lg(params):
        a, b = params["a"], params["b"]
        loss = float((a**2).sum() + (a[0] * b).sum())
        return loss, {"a": 2.0 * a + np.array([b.sum(), 0.0]), "b": np.full_like(b, a[0])}

    err = grad_check(lg, {"a": np.array([1.0, -2.0]), "b": np.array([0.5, 0.25, 3.0])}, h=1e-5)
    assert err < 1e-7


def test_non_finite_loss_raises():
    def lg(params):
        return float("inf"), {"w": np.zeros_like(params["w"])}

    with pytest.raises(NumericalError):
        grad_check(lg, {"w": np.array([1.0])})


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        grad_check(lambda p: (0.0, {"w": np.zeros(1)}), {"w": np.zeros(1)}, h=0.0)
