import numpy as np
import pytest

from cryptocast.errors import NumericalError
from cryptocast.gradcheck import grad_check


def test_quadratic_closed_form():
    # f(w) = w^2 at w=3: derivative 6
    params = {"w": np.array([3.0])}

    def lg():
        w = params["w"][0]
        return w * w, {"w": np.array([2.0 * w])}

    err = grad_check(lg, params, h=1e-5)
    assert err < 1e-8


def test_constant_function_zero_error():
    params = {"w": np.array([1.0, -2.0])}

    def lg():
        return 4.2, {"w": np.zeros_like(params["w"])}

    assert grad_check(lg, params, h=1e-5) == 0.0


def test_detects_wrong_gradient():
    params = {"w": np.array([1.5])}

    def lg():
        w = params["w"][0]
        return w * w, {"w": np.array([3.0 * w])}  # deliberately wrong

    assert grad_check(lg, params, h=1e-5) > 0.1


def test_multi_parameter_function():
    params = {"a": np.array([1.0, -2.0]), "b": np.array([0.5, 0.25, 3.0])}

    def lg():
        a, b = params["a"], params["b"]
        loss = float((a**2).sum() + (a[0] * b).sum())
        return loss, {"a": 2.0 * a + np.array([b.sum(), 0.0]), "b": np.full_like(b, a[0])}

    err = grad_check(lg, params, h=1e-5)
    assert err < 1e-7


def test_arrays_are_bit_identical_after_the_check():
    # coordinates where x + h - h != x, a 0-d array and a strided view
    base = np.array([[0.1, 0.7, 1e-3], [3.3, -2.9, 0.123456789]])
    params = {"s": np.array(0.1), "v": base[:, ::2], "w": np.array([1.0 / 3.0, 2.0 / 3.0])}
    before = {name: p.copy() for name, p in params.items()}
    seen = set()

    def lg():
        s, v, w = params["s"], params["v"], params["w"]
        seen.add((float(s), v.tobytes(), w.tobytes()))
        loss = float(s * (v**2).sum() + np.sin(w).sum())
        return loss, {"s": np.array((v**2).sum()), "v": 2.0 * s * v, "w": np.cos(w)}

    assert grad_check(lg, params, h=1e-5) < 1e-6
    assert len(seen) == 1 + 2 * (1 + 4 + 2)  # every coordinate was moved both ways
    for name, p in params.items():
        assert p.tobytes() == before[name].tobytes(), name
    assert base[:, 1].tolist() == [0.7, -2.9]


def test_non_finite_loss_raises():
    params = {"w": np.array([1.0])}

    def lg():
        return float("inf"), {"w": np.zeros_like(params["w"])}

    with pytest.raises(NumericalError):
        grad_check(lg, params)


def test_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        grad_check(lambda: (0.0, {"w": np.zeros(1)}), {"w": np.zeros(1)}, h=0.0)
