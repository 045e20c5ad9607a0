import concurrent.futures
import contextlib

import numpy as np
import pytest

from atsvit import autograd as ag
from atsvit.numerics import NonFiniteError, Rng


def test_sum_linear_map_gradient():
    # loss = sum(W x) => dloss/dW = outer(ones, x)
    rng = Rng(0)
    W = ag.leaf(rng.normal((3, 4)))
    x = ag.leaf(rng.normal((4, 1)))
    loss = ag.sum_all(ag.matmul(W, x))
    ag.backward(loss)
    assert np.allclose(W.grad, np.outer(np.ones(3), x.value.reshape(-1)))


def test_sum_of_softmax_rows_has_zero_gradient():
    x = ag.leaf(Rng(1).normal((4, 6)))
    loss = ag.sum_all(ag.softmax_rows(x))
    ag.backward(loss)
    assert np.allclose(x.grad, 0.0, atol=1e-12)


def test_non_scalar_loss_rejected():
    x = ag.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ag.backward(ag.add(x, x))


def test_fanout_accumulates():
    x = ag.leaf(np.array([[2.0]]))
    y = ag.add(x, x)  # dy/dx = 2
    ag.backward(ag.sum_all(y))
    assert x.grad[0, 0] == 2.0


def test_repeated_backward_accumulates_until_zeroed():
    x = ag.leaf(np.array([[3.0]]))
    loss = ag.sum_all(ag.mul(x, x))
    ag.backward(loss)
    assert x.grad[0, 0] == pytest.approx(6.0)
    ag.backward(loss)
    assert x.grad[0, 0] == pytest.approx(12.0)
    ag.zero_grads([x])
    assert x.grad is None


def test_gradient_shapes_match_values():
    rng = Rng(3)
    a = ag.leaf(rng.normal((3, 5)))
    b = ag.leaf(rng.normal((5, 2)))
    out = ag.gelu(ag.matmul(a, b))
    ag.backward(ag.sum_all(out))
    for node in (a, b, out):
        assert node.grad.shape == node.value.shape


def test_overflow_is_an_error():
    big = ag.leaf(np.full((2, 2), 1e300))
    for mode in (contextlib.nullcontext(), ag.no_grad()):
        with np.errstate(over="ignore"), mode:
            with pytest.raises(NonFiniteError):
                ag.mul(big, big)


def _every_op(x, w, row):
    return [ag.add(x, x), ag.add_row(x, row), ag.scale(x, 2.0), ag.mul(x, x),
            ag.matmul(x, w), ag.transpose(x), ag.softmax_rows(x),
            ag.layer_norm(x, row, row), ag.gelu(x), ag.gather_rows(x, (2, 0)),
            ag.slice_cols(x, 1, 3), ag.concat_cols([x, x]),
            ag.concat_rows([x, x]), ag.sum_all(x),
            ag.cross_entropy(ag.gather_rows(x, (0,)), 1)]


class TestNoGrad:
    def test_every_op_same_value_without_parents(self):
        rng = Rng(2)
        args = (ag.leaf(rng.normal((3, 4))), ag.leaf(rng.normal((4, 4))),
                ag.leaf(rng.normal((4,))))
        recorded = _every_op(*args)
        with ag.no_grad():
            bare = _every_op(*args)
        for r, b in zip(recorded, bare, strict=True):
            assert r.parents and b.parents == ()
            assert np.array_equal(r.value, b.value)

    def test_flag_restored_after_exception(self):
        assert ag.is_recording()
        with pytest.raises(ValueError):
            with ag.no_grad():
                assert not ag.is_recording()
                ag.add(ag.leaf(np.ones(2)), ag.leaf(np.ones(3)))
        assert ag.is_recording()

    def test_nested_blocks_restore_outer_state(self):
        with ag.no_grad():
            with ag.no_grad():
                pass
            assert not ag.is_recording()
        assert ag.is_recording()

    def test_worker_thread_does_not_see_callers_flag(self):
        x = ag.leaf(np.ones((2, 2)))
        with ag.no_grad():
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                seen, node = pool.submit(
                    lambda: (ag.is_recording(), ag.add(x, x))).result(timeout=60)
            assert not ag.is_recording()
        assert seen is True
        assert node.parents


def _random_composite(seed: int):
    """Three-layer graph mixing matmul, layer_norm, gelu, softmax."""
    rng = Rng(seed)
    w1 = rng.normal((5, 7), 0.7)
    w2 = rng.normal((7, 4), 0.7)
    gamma = 1.0 + rng.normal((7,), 0.2)
    beta = rng.normal((7,), 0.2)
    target = rng.normal((3, 4))

    def f(x):
        h = ag.layer_norm(ag.matmul(x, ag.leaf(w1)), ag.leaf(gamma), ag.leaf(beta))
        h = ag.gelu(h)
        out = ag.softmax_rows(ag.matmul(h, ag.leaf(w2)))
        return ag.sum_all(ag.mul(out, ag.leaf(target)))

    return f, rng.normal((3, 5))


def test_three_layer_composite_matches_finite_differences():
    f, x0 = _random_composite(17)
    assert ag.grad_check(f, x0, h=1e-5) <= 1e-6


def test_hundred_seeded_graphs_match_finite_differences():
    worst = 0.0
    for seed in range(100):
        f, x0 = _random_composite(seed)
        worst = max(worst, ag.grad_check(f, x0, h=1e-5))
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"


class TestGradCheck:
    def test_square_closed_form(self):
        err = ag.grad_check(lambda x: ag.sum_all(ag.mul(x, x)),
                            np.array([[3.0]]), h=1e-5)
        assert err <= 1e-8

    def test_constant_function(self):
        err = ag.grad_check(lambda x: ag.sum_all(ag.mul(ag.leaf(np.zeros((2, 2))),
                                                        ag.leaf(np.ones((2, 2))))),
                            np.ones((2, 2)))
        assert err == 0.0

    def test_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            ag.grad_check(lambda x: ag.add(x, x), np.ones((2, 2)))


def test_gather_rows_duplicate_indices_scatter_add():
    x = ag.leaf(np.arange(6.0).reshape(3, 2))
    y = ag.gather_rows(x, (1, 1, 2))
    ag.backward(ag.sum_all(y))
    assert np.array_equal(x.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


def test_gather_rows_out_of_range():
    x = ag.leaf(np.ones((2, 2)))
    with pytest.raises(IndexError):
        ag.gather_rows(x, (0, 5))


def test_cross_entropy_matches_log_softmax():
    logits = ag.leaf(np.array([[1.0, 2.0, 0.5]]))
    loss = ag.cross_entropy(logits, 1)
    z = logits.value.reshape(-1)
    expected = np.log(np.exp(z).sum()) - z[1]
    assert loss.value == pytest.approx(expected)
    ag.backward(loss)
    p = np.exp(z) / np.exp(z).sum()
    p[1] -= 1
    assert np.allclose(logits.grad.reshape(-1), p)
