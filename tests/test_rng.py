import numpy as np
import pytest

from cryptocast.rng import _GOLDEN, _MASK64, _MIX1, _MIX2, Rng, _mix


def test_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_uniform_bounds_and_shape():
    draws = Rng(7).uniform(-2.0, 3.0, size=(100,))
    assert draws.shape == (100,)
    assert np.all(draws >= -2.0) and np.all(draws < 3.0)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345])
@pytest.mark.parametrize("size", [(0,), (1,), (7,), (32, 96), (3, 5, 4)])
def test_uniform_array_is_the_scalar_stream(seed, size):
    # an array draw holds, bit for bit, the draws next_float would make one
    # at a time, and leaves the stream where they would have left it
    drawn, scalar = Rng(seed), Rng(seed)
    drawn.next_u64(), scalar.next_u64()  # start mid-stream, not at the seed
    values = drawn.uniform(-0.5, 2.0, size)
    expected = [-0.5 + 2.5 * scalar.next_float() for _ in range(int(np.prod(size)))]
    assert values.shape == size
    assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()
    assert drawn.next_u64() == scalar.next_u64()


def test_normal_moments_roughly_standard():
    draws = Rng(11).normal(size=(4000,))
    assert abs(draws.mean()) < 0.1
    assert abs(draws.std() - 1.0) < 0.1


def test_derive_is_order_independent_and_tagged():
    parent = Rng(5)
    child_a1 = parent.derive("alpha")
    parent.next_u64()  # consuming the parent must not change derivation
    child_a2 = parent.derive("alpha")
    child_b = parent.derive("beta")
    assert child_a1.next_u64() == child_a2.next_u64()
    assert Rng(5).derive("alpha").next_u64() != child_b.seed


def test_permutation_is_a_permutation():
    perm = Rng(3).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))


def scalar_permutation(rng, n):
    """Fisher-Yates with one `integer` draw per swap."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integer(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("seed", [0, 1, 7, 99, 2**64 - 1, 12345])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 16, 17, 100, 470, 3170])
def test_permutation_is_the_scalar_stream(seed, n):
    drawn, scalar = Rng(seed), Rng(seed)
    drawn.next_u64(), scalar.next_u64()  # start mid-stream, not at the seed
    perm, expected = drawn.permutation(n), scalar_permutation(scalar, n)
    assert perm.dtype == expected.dtype and perm.tolist() == expected.tolist()
    assert drawn.next_u64() == scalar.next_u64()


def _unshift(y, s):
    """The x with x ^ (x >> s) == y."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _unmix(z):
    """The input `_mix` maps to z."""
    z = _unshift(z, 31) * pow(_MIX2, -1, 1 << 64) & _MASK64
    z = _unshift(z, 27) * pow(_MIX1, -1, 1 << 64) & _MASK64
    return _unshift(z, 30)


def test_a_rejected_draw_takes_the_scalar_stream():
    # of permutation(10)'s draws, the eighth is integer(3)'s; 2**64 % 3 == 1,
    # so integer(3) rejects the largest draw, which this state makes it
    assert _mix(_unmix(_MASK64)) == _MASK64
    state = (_unmix(_MASK64) - 8 * _GOLDEN) & _MASK64
    drawn, scalar = Rng(0), Rng(0)
    drawn._state = scalar._state = state
    assert drawn.permutation(10).tolist() == scalar_permutation(scalar, 10).tolist()
    # nine draws and the one that replaced the rejected draw
    assert drawn._state == scalar._state == (state + 10 * _GOLDEN) & _MASK64


def test_integer_range():
    rng = Rng(9)
    draws = [rng.integer(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


def test_sample_without_replacement_unique():
    pick = Rng(4).sample_without_replacement(20, 8)
    assert len(set(pick.tolist())) == 8
