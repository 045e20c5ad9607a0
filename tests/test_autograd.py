import contextlib
import weakref

import numpy as np
import pytest

from atsvit import autograd as ag
from atsvit import numerics
from atsvit.numerics import NonFiniteError, Rng
from helpers import mul, sum_all


def test_sum_linear_map_gradient():
    # loss = sum(W x) => dloss/dW = outer(ones, x)
    rng = Rng(0)
    W = ag.leaf(rng.normal((3, 4)))
    x = ag.leaf(rng.normal((4, 1)))
    loss = sum_all(ag.matmul(W, x))
    ag.backward(loss)
    assert np.allclose(W.grad, np.outer(np.ones(3), x.value.reshape(-1)))


def test_sum_of_softmax_rows_has_zero_gradient():
    x = ag.leaf(Rng(1).normal((4, 6)))
    loss = sum_all(ag.softmax_rows(x))
    ag.backward(loss)
    assert np.allclose(x.grad, 0.0, atol=1e-12)


def test_non_scalar_loss_rejected():
    x = ag.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        ag.backward(ag.add(x, x))


def test_fanout_accumulates():
    x = ag.leaf(np.array([[2.0]]))
    y = ag.add(x, x)  # dy/dx = 2
    ag.backward(sum_all(y))
    assert x.grad[0, 0] == 2.0


def test_repeated_backward_accumulates_until_zeroed():
    x = ag.leaf(np.array([[3.0]]))
    loss = sum_all(mul(x, x))
    ag.backward(loss)
    assert x.grad[0, 0] == pytest.approx(6.0)
    ag.backward(loss)
    assert x.grad[0, 0] == pytest.approx(12.0)
    ag.zero_grads({"x": x})
    assert x.grad is None


def test_gradient_shapes_match_values():
    rng = Rng(3)
    a = ag.leaf(rng.normal((3, 5)))
    b = ag.leaf(rng.normal((5, 2)))
    out = ag.gelu(ag.matmul(a, b))
    ag.backward(sum_all(out))
    for node in (a, b):
        assert node.grad.shape == node.value.shape
    assert out.grad is None


def test_each_vjp_runs_once_per_backward_on_fanout_and_diamond():
    # x feeds p, q and r (fan-out 3); p and q meet again in s (a diamond);
    # loss reads r first, so a depth-first walk from the loss reaches the
    # nodes in another order than they were created.
    calls = {}

    def edge(name, c):
        calls[name] = 0

        def vjp(g):
            calls[name] += 1
            return g * c
        return vjp

    x = ag.leaf(np.array(1.0))
    p = ag.Node(2.0 * x.value, ((x, edge("x->p", 2.0)),))
    q = ag.Node(3.0 * x.value, ((x, edge("x->q", 3.0)),))
    r = ag.Node(5.0 * x.value, ((x, edge("x->r", 5.0)),))
    s = ag.Node(p.value + q.value, ((p, edge("p->s", 1.0)), (q, edge("q->s", 1.0))))
    loss = ag.Node(7.0 * r.value + s.value + 11.0 * p.value,
                   ((r, edge("r->loss", 7.0)), (s, edge("s->loss", 1.0)),
                    (p, edge("p->loss", 11.0))))
    for n in (1, 2):
        ag.backward(loss)
        assert set(calls.values()) == {n}
        # d(loss)/dx = 7*5 + (2 + 3) + 11*2
        assert x.grad == n * 62.0
    assert all(node.grad is None for node in (p, q, r, s, loss))


def test_long_chain_backpropagates_without_recursion():
    x = ag.leaf(np.array([[1.0]]))
    c = ag.leaf(np.array([[0.5]]))
    y = x
    for _ in range(10_000):
        y = ag.add(y, c)
    ag.backward(sum_all(y))
    assert x.grad[0, 0] == 1.0
    assert c.grad[0, 0] == 10_000.0


def test_node_built_under_no_grad_is_a_leaf():
    x = ag.leaf(np.array([[3.0]]))
    w = ag.leaf(np.array([[2.0]]))
    with ag.no_grad():
        h = ag.matmul(x, x)
    ag.backward(sum_all(ag.matmul(h, w)))
    assert h.grad[0, 0] == 2.0
    assert w.grad[0, 0] == 9.0
    assert x.grad is None


def _huge():
    return ag.leaf(np.full((2, 2), 1e308))


# Each computing op on operands that make it overflow. softmax_rows and gelu
# stay finite on any finite input, so they get an infinite one.
COMPUTING_OPS = {
    "add": lambda: ag.add(_huge(), _huge()),
    "add_row": lambda: ag.add_row(_huge(), ag.leaf(np.full(2, 1e308))),
    "scale": lambda: ag.scale(_huge(), 10.0),
    "matmul": lambda: ag.matmul(_huge(), _huge()),
    "softmax_rows": lambda: ag.softmax_rows(ag.leaf(np.array([[np.inf, 0.0]]))),
    "layer_norm": lambda: ag.layer_norm(_huge(), ag.leaf(np.ones(2)),
                                        ag.leaf(np.zeros(2))),
    "gelu": lambda: ag.gelu(ag.leaf(np.array([[np.inf, 0.0]]))),
    "cross_entropy": lambda: ag.cross_entropy(ag.leaf(np.array([[1e308, -1e308]])), 1),
}


@pytest.mark.parametrize("op", list(COMPUTING_OPS))
def test_overflow_is_an_error(op):
    for mode in (contextlib.nullcontext(), ag.no_grad()):
        with np.errstate(over="ignore", invalid="ignore"), mode:
            with pytest.raises(NonFiniteError, match=f"in {op}$"):
                COMPUTING_OPS[op]()


def test_non_finite_leaf_through_a_copy_op_trips_the_next_computing_op():
    x = ag.leaf(np.array([[np.inf, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]))
    images = ag.leaf(np.stack([x.value, -x.value]))
    for mode in (contextlib.nullcontext(), ag.no_grad()):
        with np.errstate(invalid="ignore"), mode:
            copies = [ag.transpose(x), ag.gather_rows(x, (1, 0)),
                      ag.slice_cols(x, 0, 2), ag.split_cols(x, 2),
                      ag.concat_cols(ag.split_cols(x, 2)), ag.tile_rows(x, 2),
                      ag.concat_rows([x, x]), ag.concat_rows([images, images]),
                      ag.slice_cols(images, 0, 2), ag.split_cols(images, 2),
                      ag.concat_cols(ag.split_cols(images, 2))]
            for copy in copies:
                with pytest.raises(NonFiniteError, match="in scale$"):
                    ag.scale(copy, 1.0)


def _every_op(x, w, row, images):
    """Every op on x (3, 4), w (4, 4), row (4,) and images, a (2, 3, 4)
    stack of two images' rows."""
    stack = ag.split_cols(x, 2)
    return [ag.add(x, x), ag.add_row(x, row), ag.scale(x, 2.0),
            ag.matmul(x, w), ag.matmul(stack, ag.transpose(stack)),
            ag.transpose(x), ag.softmax_rows(x), ag.layer_norm(x, row, row),
            ag.gelu(x), ag.gather_rows(x, (2, 0)), ag.gather_rows(stack, (2, 0)),
            ag.slice_cols(x, 1, 3), stack, ag.concat_cols(stack),
            ag.concat_rows([x, x]), ag.cross_entropy(ag.gather_rows(x, (0,)), 1),
            ag.matmul(images, w), ag.tile_rows(x, 3), ag.add_row(images, row),
            ag.layer_norm(images, row, row), ag.concat_rows([images, images]),
            ag.slice_cols(images, 1, 3), ag.split_cols(images, 2),
            ag.concat_cols(ag.split_cols(images, 2))]


def _every_op_args(rng):
    return (ag.leaf(rng.normal((3, 4))), ag.leaf(rng.normal((4, 4))),
            ag.leaf(rng.normal((4,))), ag.leaf(rng.normal((2, 3, 4))))


class TestNoGrad:
    def test_every_op_same_value_without_parents(self):
        args = _every_op_args(Rng(2))
        recorded = _every_op(*args)
        with ag.no_grad():
            bare = _every_op(*args)
        for r, b in zip(recorded, bare, strict=True):
            assert r.parents and b.parents == ()
            assert np.array_equal(r.value, b.value)

    def test_flag_restored_after_exception(self):
        x = ag.leaf(np.ones(2))
        assert ag.add(x, x).parents
        with pytest.raises(ValueError):
            with ag.no_grad():
                assert ag.add(x, x).parents == ()
                ag.add(x, ag.leaf(np.ones(3)))
        assert ag.add(x, x).parents

    def test_nested_blocks_restore_outer_state(self):
        x = ag.leaf(np.ones(2))
        with ag.no_grad():
            with ag.no_grad():
                pass
            assert ag.add(x, x).parents == ()
        assert ag.add(x, x).parents


    def test_no_vertex_is_made(self):
        """An unrecorded pass allocates no graph: neither its results nor
        the leaves it reads get a vertex."""
        args = _every_op_args(Rng(2))
        with ag.no_grad():
            bare = _every_op(*args)
        assert all(n.vertex is None for n in (*args, *bare))

    def test_a_leaf_never_gets_a_vertex(self):
        """A leaf keeps its own gradient: recording against it, backward
        into it and zero_grads leave it without a vertex, and a node made
        under no_grad is read by a recorded op as a leaf."""
        rng = Rng(3)
        x0, w0, g = rng.normal((5, 4)), rng.normal((4, 3)), rng.normal((5, 3))
        x, w = ag.leaf(x0), ag.leaf(w0)
        y = ag.matmul(x, w)
        assert [edge for edge, _ in y.parents] == [x, w]
        ag.backward({y: g})
        assert x.vertex is None and w.vertex is None
        assert x.grad.tobytes() == (g @ w0.T).tobytes()
        assert w.grad.tobytes() == (x0.T @ g).tobytes()
        ag.zero_grads({"x": x, "w": w})
        assert x.grad is None and w.grad is None
        assert x.vertex is None and w.vertex is None

        with ag.no_grad():
            h = ag.gelu(x)
        out = ag.matmul(h, w)
        assert h.vertex is None and [e for e, _ in out.parents] == [h, w]
        ag.backward({out: g})
        assert h.vertex is None
        assert h.grad.tobytes() == (g @ w0.T).tobytes()
        assert w.grad.tobytes() == (h.value.T @ g).tobytes()


class TestTapeMemory:
    """A recorded graph keeps only the arrays its vjps read, as they were
    when the op ran."""

    def test_pre_bias_product_is_freed(self):
        rng = Rng(60)
        x0, w0 = rng.normal((5, 4)), rng.normal((4, 3))
        x, w, b = ag.leaf(x0), ag.leaf(w0), ag.leaf(rng.normal((3,)))
        product = ag.matmul(x, w)
        freed = weakref.ref(product.value)
        y = ag.add_row(product, b)
        del product
        assert freed() is None
        g = rng.normal((5, 3))
        ag.backward({y: g})
        assert x.grad.tobytes() == (g @ w0.T).tobytes()
        assert w.grad.tobytes() == (x0.T @ g).tobytes()

    def test_constant_operand_gets_no_edge(self):
        rng = Rng(61)
        a, w0, g = rng.normal((5, 4)), rng.normal((4, 3)), rng.normal((5, 3))
        w = ag.leaf(w0)
        y = ag.matmul(a, w)
        assert y.value.tobytes() == (a @ w0).tobytes()
        assert len(y.parents) == 1
        ag.backward({y: g})
        assert w.grad.tobytes() == (a.T @ g).tobytes()

    def test_gradients_are_of_the_recorded_values(self):
        """Replacing a leaf's value between a recorded forward and its
        backward, as an optimizer step does, leaves the gradients those of
        the values the forward read."""
        rng = Rng(62)
        x0, w0, b0 = rng.normal((5, 4)), rng.normal((4, 6)), rng.normal((6,))
        g0, t0 = 1.0 + rng.normal((6,), 0.2), rng.normal((5, 6))

        def loss(x, w, b, gamma):
            h = ag.gelu(ag.layer_norm(ag.add_row(ag.matmul(x, w), b), gamma,
                                      ag.leaf(np.zeros(6))))
            return sum_all(mul(ag.softmax_rows(h), ag.leaf(t0)))

        replaced = [ag.leaf(a) for a in (x0, w0, b0, g0)]
        out = loss(*replaced)
        for leaf in replaced:
            leaf.value = 2.0 * leaf.value + 1.0
        ag.backward(out)
        kept = [ag.leaf(a) for a in (x0, w0, b0, g0)]
        ag.backward(loss(*kept))
        for a, b in zip(replaced, kept):
            assert a.grad.tobytes() == b.grad.tobytes()


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
        return sum_all(mul(out, ag.leaf(target)))

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
        err = ag.grad_check(lambda x: sum_all(mul(x, x)),
                            np.array([[3.0]]), h=1e-5)
        assert err <= 1e-8

    def test_constant_function(self):
        err = ag.grad_check(lambda x: sum_all(mul(ag.leaf(np.zeros((2, 2))),
                                                  ag.leaf(np.ones((2, 2))))),
                            np.ones((2, 2)))
        assert err == 0.0

    def test_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            ag.grad_check(lambda x: ag.add(x, x), np.ones((2, 2)))


def test_gather_rows_duplicate_indices_scatter_add():
    x = ag.leaf(np.arange(6.0).reshape(3, 2))
    y = ag.gather_rows(x, (1, 1, 2))
    ag.backward(sum_all(y))
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


class TestStackedOps:
    """Ops over stacks of matrices, shaped (heads, rows, cols)."""

    def _weighted(self, node, seed):
        target = ag.leaf(Rng(seed, stream=9).normal(node.shape))
        return sum_all(mul(node, target))

    def test_matmul_3d_gradients(self):
        rng = Rng(40)
        a0, b0 = rng.normal((3, 4, 5)), rng.normal((3, 5, 2))
        assert ag.grad_check(
            lambda a: self._weighted(ag.matmul(a, ag.leaf(b0)), 1), a0) <= 1e-6
        assert ag.grad_check(
            lambda b: self._weighted(ag.matmul(ag.leaf(a0), b), 2), b0) <= 1e-6

    def test_matmul_3d_equals_per_matrix_products(self):
        rng = Rng(41)
        a, b = rng.normal((3, 4, 5)), rng.normal((3, 5, 2))
        out = ag.matmul(ag.leaf(a), ag.leaf(b)).value
        for h in range(3):
            assert np.array_equal(out[h], a[h] @ b[h])

    def test_transpose_3d_gradient(self):
        x0 = Rng(42).normal((2, 3, 4))
        out = ag.transpose(ag.leaf(x0))
        assert out.shape == (2, 4, 3) and out.value.flags.c_contiguous
        assert ag.grad_check(
            lambda x: self._weighted(ag.transpose(x), 3), x0) <= 1e-6

    def test_gather_rows_3d_gradient_with_repeats(self):
        x0 = Rng(43).normal((2, 4, 3))
        assert ag.grad_check(
            lambda x: self._weighted(ag.gather_rows(x, (3, 1, 1, 0)), 4),
            x0) <= 1e-6

    def test_gather_rows_3d_repeats_scatter_add(self):
        x = ag.leaf(np.ones((2, 3, 2)))
        ag.backward(sum_all(ag.gather_rows(x, (1, 1, 2))))
        assert np.array_equal(x.grad, np.broadcast_to([[0.0], [2.0], [1.0]],
                                                      (2, 3, 2)))

    def test_split_cols_gradient(self):
        x0 = Rng(44).normal((3, 6))
        assert ag.grad_check(
            lambda x: self._weighted(ag.split_cols(x, 3), 5), x0) <= 1e-6

    def test_concat_cols_gradient(self):
        x0 = Rng(45).normal((3, 4, 2))
        assert ag.grad_check(
            lambda x: self._weighted(ag.concat_cols(x), 6), x0) <= 1e-6

    def test_split_then_concat_round_trip(self):
        x = Rng(46).normal((5, 12))
        stack = ag.split_cols(ag.leaf(x), 4)
        assert stack.shape == (4, 5, 3)
        for i in range(4):
            assert np.array_equal(stack.value[i], x[:, 3 * i:3 * (i + 1)])
        assert np.array_equal(ag.concat_cols(stack).value, x)

    def test_split_cols_rejects_unequal_blocks(self):
        with pytest.raises(ValueError):
            ag.split_cols(ag.leaf(np.ones((2, 5))), 2)

    def test_numerics_matmul_rejects_mismatched_stacks(self):
        for a, b in [((2, 3, 4), (3, 4, 5)), ((2, 3, 4), (5, 6)),
                     ((3, 4), (2, 4, 5)), ((2, 3, 4), (2, 3, 5)), ((4,), (4,)),
                     ((2, 2, 3, 4), (4, 5))]:
            with pytest.raises(ValueError, match="mismatch"):
                numerics.matmul(np.ones(a), np.ones(b))


class TestPerImageStacks:
    """Ops over a stack of several images' rows, shaped (images, rows, cols),
    hand a shared leaf one gradient per image, which it adds in image
    order."""

    def test_leaf_adds_a_stack_one_image_at_a_time(self):
        # In float32, (a + b) + c = 1 but a + (b + c) = 0.
        a, b, c = np.float32(1e8), np.float32(-1e8), np.float32(1.0)
        assert (a + b) + c != a + (b + c)
        x = ag.leaf(np.array([[a]], dtype=np.float32))
        x.grad = x.value.copy()
        tiled = ag.tile_rows(x, 2)
        assert tiled.shape == (2, 1, 1)
        ag.backward({tiled: np.array([[[b]], [[c]]], dtype=np.float32)})
        assert x.grad[0, 0] == (a + b) + c == 1.0

    def test_leaf_adds_each_contribution_as_it_arrives(self):
        a, b, c = np.float32(1e8), np.float32(-1e8), np.float32(1.0)
        x = ag.leaf(np.array([[0.0]], dtype=np.float32))
        x.grad = np.array([[a]], dtype=np.float32)
        # The later node is walked first, so x receives b, then c.
        y = ag.add(ag.scale(x, float(c)), ag.scale(x, float(b)))
        ag.backward({y: np.array([[1.0]], dtype=np.float32)})
        assert x.grad[0, 0] == (a + b) + c == 1.0

    @pytest.mark.parametrize("shape", [(64, 64), (64, 192), (64, 256), (256, 64),
                                       (64, 4)])
    def test_numerics_matmul_is_each_images_own_product(self, shape):
        """(images, T, d) @ (d, e) is, byte for byte, each image's own
        (T, d) @ (d, e), also for the one-row products of the CLS head,
        which a product of all images' rows folded into one (images*T, d)
        matrix changes."""
        rng = Rng(53)
        w = rng.normal(shape, 0.1).astype(np.float32)
        for rows in (1, 2, 17):
            for images in (2, 3, 5, 9, 32):
                a = rng.normal((images, rows, shape[0])).astype(np.float32)
                out = numerics.matmul(a, w)
                assert out.shape == (images, rows, shape[1])
                for b in range(images):
                    assert (out[b].tobytes()
                            == numerics.matmul(a[b], w).tobytes()), (rows, images)
        for a, b in [((2, 3, 4), (5, 6)), ((2, 3, 4), (3, 4, 6))]:
            with pytest.raises(ValueError, match="matmul shape mismatch"):
                numerics.matmul(np.ones(a), np.ones(b))

    @pytest.mark.parametrize("shape, rows", [
        ((64, 64), 17), ((64, 192), 17), ((64, 256), 17), ((256, 64), 17),
        ((64, 4), 1)])
    def test_per_image_gradients_equal_per_image_products(self, shape, rows):
        """The gradients of matmul over a stack of images are, byte for
        byte, each image's own products: a_b^T g_b for the shared weight,
        added in image order, and g_b W^T for the rows. (64, 4) with one row
        per image is the CLS head, head.w at the default architecture."""
        n, m = shape
        rng = Rng(50)
        for images in (2, 3, 5, 9):
            a0 = rng.normal((images, rows, n)).astype(np.float32)
            w0 = rng.normal(shape, 0.1).astype(np.float32)
            g = rng.normal((images, rows, m)).astype(np.float32)
            a, w = ag.leaf(a0), ag.leaf(w0)
            ag.backward({ag.matmul(a, w): g})
            grad_w = np.zeros_like(w0)
            for b in range(images):
                assert (a.grad[b].tobytes()
                        == (g[b] @ w0.swapaxes(-1, -2)).tobytes()), images
                grad_w += a0[b].swapaxes(-1, -2) @ g[b]
            assert w.grad.tobytes() == grad_w.tobytes(), images

    def test_row_sums_are_taken_per_image(self):
        rng = Rng(51)
        x0 = rng.normal((3, 17, 8)).astype(np.float32)
        g = rng.normal((3, 17, 8)).astype(np.float32)
        gamma = ag.leaf(np.ones(8, dtype=np.float32))
        beta, row = (ag.leaf(np.zeros(8, dtype=np.float32)) for _ in range(2))
        x = ag.leaf(x0)
        ag.backward({ag.layer_norm(x, gamma, beta): g, ag.add_row(x, row): g})
        alone = [ag.leaf(np.ones(8, dtype=np.float32))] + [
            ag.leaf(np.zeros(8, dtype=np.float32)) for _ in range(2)]
        for b in range(3):
            xb = ag.leaf(x0[b])
            ag.backward({ag.layer_norm(xb, *alone[:2]): g[b],
                         ag.add_row(xb, alone[2]): g[b]})
        for stacked, single in zip((gamma, beta, row), alone):
            assert stacked.grad.tobytes() == single.grad.tobytes()

    def test_tile_rows_and_per_image_concat_rows(self):
        rng = Rng(52)
        cls, body = rng.normal((1, 3)), rng.normal((2, 4, 3))
        tokens = ag.concat_rows([ag.tile_rows(ag.leaf(cls), 2), ag.leaf(body)])
        assert np.array_equal(tokens.value, np.stack(
            [np.concatenate([cls, body[0]]), np.concatenate([cls, body[1]])]))
        weight = ag.leaf(rng.normal((2, 5, 3)))
        assert ag.grad_check(lambda c: sum_all(mul(
            ag.concat_rows([ag.tile_rows(c, 2), ag.leaf(body)]), weight)),
            cls) <= 1e-6
        assert ag.grad_check(lambda x: sum_all(mul(
            ag.concat_rows([ag.tile_rows(ag.leaf(cls), 2), x]), weight)),
            body) <= 1e-6
