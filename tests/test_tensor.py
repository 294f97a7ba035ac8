"""Engine tests: primitive values, gradients vs central differences, graph rules."""

import numpy as np
import pytest

from vibprune.errors import ContractError, DeterminismError, NumericError, ShapeError
from vibprune import tensor as T
from vibprune.tensor import (
    Tensor,
    add,
    backward,
    causal_mask_fill,
    concat_lastdim,
    constant,
    gather_rows,
    gelu,
    gradcheck,
    layer_norm_lastdim,
    linear,
    matmul,
    mean,
    merge_heads,
    mul,
    no_grad,
    parameter,
    pick_lastdim,
    repeat_lastdim,
    scale,
    select_position,
    sigmoid,
    slice_lastdim,
    softmax_lastdim,
    split_heads,
    square,
    texp,
    tlog,
    tsum,
)


def rnd(shape, seed, lo=-2.0, hi=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


class TestForwardValues:
    def test_matmul_identity(self):
        a = constant([[1.0, 2.0], [3.0, 4.0]])
        eye = constant(np.eye(2))
        out = matmul(a, eye)
        np.testing.assert_array_equal(out.data, a.data)

    def test_softmax_symmetry(self):
        out = softmax_lastdim(constant([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_gelu_zero(self):
        assert gelu(constant(0.0)).item() == 0.0

    def test_softmax_rows_sum_to_one(self):
        x = constant(rnd((3, 5, 7), seed=1))
        p = softmax_lastdim(x)
        assert (p.data >= 0).all()
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_layer_norm_stats(self):
        x = constant(rnd((4, 16), seed=2))
        y = layer_norm_lastdim(x).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-5
        assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4

    def test_causal_fill_blocks_upper_triangle(self):
        x = constant(np.zeros((2, 3, 3), dtype=np.float32))
        y = causal_mask_fill(x).data
        assert (y[:, 0, 1:] < -1e8).all()
        assert (y[:, 2, :] == 0).all()

    def test_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            add(constant(np.ones((2, 3))), constant(np.ones((4,))))
        with pytest.raises(ShapeError, match="linear"):
            linear(constant(np.ones((2, 3))), constant(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="pick_lastdim"):
            pick_lastdim(constant(np.ones((2, 3))), np.array([0, 3]))
        with pytest.raises(ShapeError, match="split_heads"):
            split_heads(constant(np.ones((2, 3, 5))), 2)

    def test_numeric_error_on_nonfinite(self):
        with pytest.raises(NumericError, match="log"):
            tlog(constant([0.0]))
        with pytest.raises(NumericError, match="exp"):
            texp(constant([1e9]))


# a float32 result may differ from the float64 reference by a few roundings
_F32_TOL = 4 * np.finfo(np.float32).eps


def _close_to_f32(out, ref):
    assert out.dtype == np.float32
    err = np.abs(out.astype(np.float64) - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= _F32_TOL, err.max()


class TestKernels:
    """The shared array kernels against float64 references of the formulas
    they replace."""

    def test_gelu_matches_cube_formula(self):
        x = np.linspace(-20.0, 20.0, 40001).astype(np.float32)  # tanh saturates
        x64 = x.astype(np.float64)
        ref = 0.5 * x64 * (1.0 + np.tanh(T._GELU_K0 * (x64 + T._GELU_K1 * x64**3)))
        out, t = T._gelu(x)
        _close_to_f32(out, ref)
        assert t.dtype == np.float32
        assert out[0] == 0.0 and out[-1] == np.float32(20.0)

    def test_softmax_matches_reference(self):
        x = rnd((64, 33), seed=40, lo=-20.0, hi=20.0)
        x64 = x.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
        _close_to_f32(T._softmax(x), e / e.sum(axis=-1, keepdims=True))

    def test_normalize_matches_reference(self):
        x = rnd((64, 33), seed=41, lo=-20.0, hi=20.0)
        x64 = x.astype(np.float64)
        ref = (x64 - x64.mean(axis=-1, keepdims=True)) / np.sqrt(
            x64.var(axis=-1, keepdims=True) + T._LN_EPS)
        y, inv = T._normalize(x)
        _close_to_f32(y, ref)
        assert inv.dtype == np.float32

    def test_normalize_width_counts_missing_dims_as_zeros(self):
        x = rnd((5, 6, 9), seed=42)
        padded = np.concatenate([x, np.zeros((5, 6, 4), dtype=np.float32)], axis=-1)
        y, _ = T._normalize(x, width=13)
        y_pad, _ = T._normalize(padded)
        np.testing.assert_allclose(y, y_pad[..., :9], rtol=0, atol=_F32_TOL)

    def test_float64_stays_float64(self):
        x = rnd((4, 7), seed=43).astype(np.float64)
        arrays = (*T._gelu(x), T._softmax(x), *T._normalize(x), *T._normalize(x, 9))
        assert all(a.dtype == np.float64 for a in arrays)
        for prim in (gelu, softmax_lastdim, layer_norm_lastdim):
            p = parameter(x, dtype=np.float64)
            y = prim(p)
            backward(tsum(mul(y, constant(x, dtype=np.float64))))
            assert y.data.dtype == np.float64 and p.grad.dtype == np.float64


class TestOperators:
    def test_each_operator_records_one_primitive(self):
        a, b = parameter(np.float32(3.0)), parameter(np.float32(5.0))
        cases = [(a + b, "add", 8.0), (a * b, "mul", 15.0), (a + 2.0, "add", 5.0),
                 (2.0 + a, "add", 5.0), (a * 2.0, "scale", 6.0),
                 (2.0 * a, "scale", 6.0)]
        for out, op, value in cases:
            assert out.node.op == op and out.item() == value
            assert all(isinstance(i, Tensor) for i in out.node.inputs)

    def test_numpy_scalars_defer_to_tensor(self):
        a = parameter(np.float32(3.0))
        for out in (np.float64(2.0) * a, np.float32(2.0) + a, a * np.float64(2.0)):
            assert isinstance(out, Tensor) and out.node is not None

    def test_same_expression_on_floats_and_tensors(self):
        def poly(x, y):
            return x * (y * 4.0 + 3.0) + (x * y + y) * 2.0

        x, y = parameter(np.float32(3.0)), parameter(np.float32(7.0))
        out = poly(x, y)
        assert out.item() == poly(3.0, 7.0)
        backward(out)
        assert x.grad == 4.0 * 7.0 + 3.0 + 2.0 * 7.0
        assert y.grad == 3.0 * 4.0 + 2.0 * (3.0 + 1.0)


class TestBackwardBasics:
    def test_sum_of_squares(self):
        x = parameter([1.0, 2.0, 3.0])
        backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_matmul_identity_passthrough(self):
        x = parameter(np.arange(6, dtype=np.float32).reshape(2, 3))
        backward(tsum(matmul(x, constant(np.eye(3)))))
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        x = parameter(rnd((4,), seed=3))
        backward(mean(x))
        np.testing.assert_allclose(x.grad, [0.25] * 4)

    def test_two_consumer_accumulation(self):
        # loss = sum(x*a) + sum(x*b) must give grad a+b
        x = parameter([1.0, -1.0, 0.5])
        a = constant([2.0, 3.0, 4.0])
        b = constant([10.0, 20.0, 30.0])
        backward(add(tsum(mul(x, a)), tsum(mul(x, b))))
        np.testing.assert_allclose(x.grad, a.data + b.data)

    def test_non_scalar_loss_rejected(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(ContractError, match="scalar"):
            backward(mul(x, x))

    def test_graph_freed_after_backward(self):
        x = parameter([2.0])
        y = square(x)
        loss = tsum(y)
        backward(loss)
        assert loss.node is None and y.node is None

    def test_no_grad_suppresses_recording(self):
        x = parameter([1.0, 2.0])
        with no_grad():
            y = square(x)
        assert y.node is None and not y.requires_grad

    def test_frozen_operands_get_no_grad_others_unchanged(self):
        # one graph over every primitive with more than one input; freezing
        # some leaves must not move a single bit of the others' gradients
        arrays = {"x": rnd((2, 3, 8), 70), "w": rnd((8, 8), 71), "b": rnd((8,), 72),
                  "g": rnd((8,), 73), "n": rnd((8,), 74), "m": rnd((2, 3, 8), 75),
                  "v": rnd((4,), 76), "u": rnd((4, 8), 77)}

        def run(frozen):
            t = {k: constant(a) if k in frozen else parameter(a)
                 for k, a in arrays.items()}
            h = layer_norm_lastdim(linear(t["x"], t["w"], t["b"]), t["g"], t["n"])
            h = add(mul(h, t["m"]), concat_lastdim([t["v"], t["v"]]))
            q = split_heads(h, 2)
            k = split_heads(h, 2, keys=True)
            h = merge_heads(matmul(softmax_lastdim(matmul(q, k)), q))
            loss = add(tsum(square(h)), tsum(matmul(t["v"], t["u"])))
            # each rule computes exactly the gradients its inputs require
            for out in T._topo(loss):
                if out.node is not None:
                    grads = out.node.backward_fn(np.ones_like(out.data))
                    for inp, g in zip(out.node.inputs, grads):
                        assert (g is None) == (not inp.requires_grad), out.node.op
            backward(loss)
            return {k: v.grad for k, v in t.items()}

        full = run(())
        assert all(g is not None for g in full.values())
        for frozen in (("w",), ("x", "g"), ("b", "n", "m"), ("v",), ("u", "w", "b")):
            part = run(frozen)
            for k, g in part.items():
                if k in frozen:
                    assert g is None, k
                else:
                    assert np.array_equal(g, full[k]), (frozen, k)

    def test_grad_accumulates_across_backwards(self):
        x = parameter([3.0])
        backward(tsum(square(x)))
        backward(tsum(square(x)))
        np.testing.assert_allclose(x.grad, [12.0])


def _fd_check_unary(op, shape, seed, lo=-2.0, hi=2.0, eps=1e-4):
    # project through fixed random weights so no op yields a constant loss
    x = parameter(rnd(shape, seed, lo, hi))
    probe = None

    def loss(ps):
        nonlocal probe
        y = op(ps[0])
        if probe is None:
            probe = constant(rnd(y.shape, seed + 1000, 0.5, 1.5))
        return tsum(mul(y, probe))

    err = gradcheck(loss, [x], eps=eps, seed=seed)
    assert err < 1e-4, f"rel err {err}"


class TestPrimitiveGradients:
    """Analytic gradients vs the central-difference oracle, per primitive."""

    def test_gelu(self):
        _fd_check_unary(gelu, (3, 4), seed=10)

    def test_softmax(self):
        _fd_check_unary(softmax_lastdim, (2, 5), seed=11)

    def test_layer_norm(self):
        _fd_check_unary(layer_norm_lastdim, (3, 8), seed=12)

    def test_log(self):
        _fd_check_unary(tlog, (6,), seed=13, lo=0.2, hi=2.0)

    def test_exp(self):
        _fd_check_unary(texp, (6,), seed=14)

    def test_square(self):
        _fd_check_unary(square, (2, 3), seed=15)

    def test_sigmoid(self):
        _fd_check_unary(sigmoid, (7,), seed=16)

    def test_mean(self):
        _fd_check_unary(mean, (3, 3), seed=17)

    def test_split_merge_heads(self):
        _fd_check_unary(lambda t: split_heads(t, 2), (2, 3, 4), seed=18)
        _fd_check_unary(lambda t: split_heads(t, 2, keys=True), (2, 3, 4), seed=48)
        _fd_check_unary(merge_heads, (2, 2, 3, 2), seed=49)

    def test_causal_fill(self):
        _fd_check_unary(lambda t: softmax_lastdim(causal_mask_fill(t)), (2, 4, 4), seed=19)

    def test_slice(self):
        _fd_check_unary(lambda t: square(slice_lastdim(t, 1, 3)), (2, 5), seed=20)

    def test_scale(self):
        _fd_check_unary(lambda t: scale(t, -1.7), (4,), seed=21)

    def test_matmul_batched(self):
        a = parameter(rnd((2, 3, 4), seed=22))
        b = parameter(rnd((4, 5), seed=23))
        err = gradcheck(lambda ps: tsum(matmul(ps[0], ps[1])), [a, b], eps=1e-4)
        assert err < 1e-4

    def test_matmul_stacked_both(self):
        a = parameter(rnd((2, 3, 4), seed=24))
        b = parameter(rnd((2, 4, 3), seed=25))
        err = gradcheck(lambda ps: tsum(square(matmul(ps[0], ps[1]))), [a, b], eps=1e-4)
        assert err < 1e-4

    def test_matmul_vec_mat(self):
        a = parameter(rnd((4,), seed=26))
        b = parameter(rnd((4, 6), seed=27))
        err = gradcheck(lambda ps: tsum(square(matmul(ps[0], ps[1]))), [a, b], eps=1e-4)
        assert err < 1e-4

    def test_mul_broadcast_vector(self):
        a = parameter(rnd((2, 3, 4), seed=28))
        v = parameter(rnd((4,), seed=29))
        err = gradcheck(lambda ps: tsum(square(mul(ps[0], ps[1]))), [a, v], eps=1e-4)
        assert err < 1e-4

    def test_add_broadcast_scalar(self):
        a = parameter(rnd((3, 3), seed=30))
        s = parameter(rnd((1,), seed=31))
        err = gradcheck(lambda ps: tsum(square(add(ps[0], ps[1]))), [a, s], eps=1e-4)
        assert err < 1e-4

    def test_gather_rows(self):
        table = parameter(rnd((5, 3), seed=32))
        idx = np.array([[0, 2, 2], [4, 1, 0]])
        err = gradcheck(lambda ps: tsum(square(gather_rows(ps[0], idx))), [table], eps=1e-4)
        assert err < 1e-4

    @pytest.mark.parametrize("frozen", [None, 0, 1, 2])
    def test_linear_3d_each_operand_frozen(self, frozen):
        ops = [rnd((2, 3, 4), seed=50), rnd((4, 5), seed=51), rnd((5,), seed=52)]
        ts = [constant(a) if i == frozen else parameter(a) for i, a in enumerate(ops)]
        probe = constant(rnd((2, 3, 5), seed=53, lo=0.5, hi=1.5))
        err = gradcheck(lambda ps: tsum(mul(square(linear(*ts)), probe)),
                        [t for t in ts if t.requires_grad], eps=1e-4)
        assert err < 1e-4
        assert all(t.grad is None for t in ts if not t.requires_grad)

    def test_linear_without_bias(self):
        x, w = parameter(rnd((2, 3, 4), seed=54)), parameter(rnd((4, 2), seed=55))
        err = gradcheck(lambda ps: tsum(square(linear(ps[0], ps[1]))), [x, w], eps=1e-4)
        assert err < 1e-4

    def test_layer_norm_affine(self):
        x = parameter(rnd((2, 3, 8), seed=56))
        w, b = parameter(rnd((8,), seed=57)), parameter(rnd((8,), seed=58))
        probe = constant(rnd((2, 3, 8), seed=59, lo=0.5, hi=1.5))
        err = gradcheck(lambda ps: tsum(mul(layer_norm_lastdim(*ps), probe)), [x, w, b],
                        eps=1e-4)
        assert err < 1e-4

    def test_repeat(self):
        _fd_check_unary(lambda t: repeat_lastdim(t, 3), (2, 3, 2), seed=60)

    def test_select(self):
        _fd_check_unary(lambda t: select_position(t, 2), (2, 4, 3), seed=61)

    def test_pick(self):
        idx = np.array([[0, 3], [2, 2], [1, 0]])
        _fd_check_unary(lambda t: tlog(pick_lastdim(softmax_lastdim(t), idx)), (3, 2, 4),
                        seed=62)

    def test_concat(self):
        a = parameter(rnd((2, 3), seed=33))
        b = parameter(rnd((2, 2), seed=34))
        err = gradcheck(
            lambda ps: tsum(square(concat_lastdim([ps[0], ps[1]]))), [a, b], eps=1e-4
        )
        assert err < 1e-4


class TestGradcheckContract:
    def test_polynomial_exactness(self):
        x = parameter(rnd((5,), seed=40))
        err = gradcheck(lambda ps: tsum(square(ps[0])), [x], eps=1e-3, seed=0)
        assert err < 1e-4

    def test_determinism_error(self):
        x = parameter([1.0])
        state = {"n": 0}

        def noisy(ps):
            state["n"] += 1
            return scale(tsum(ps[0]), 1.0 + 0.1 * state["n"])

        with pytest.raises(DeterminismError):
            gradcheck(noisy, [x])

    def test_restores_dtype_and_values(self):
        x = parameter([1.5, -0.5])
        before = x.data.copy()
        gradcheck(lambda ps: tsum(square(ps[0])), [x])
        assert x.data.dtype == np.float32
        np.testing.assert_array_equal(x.data, before)

    def test_sample_limit(self):
        x = parameter(rnd((50,), seed=41))
        err = gradcheck(lambda ps: tsum(square(ps[0])), [x], seed=7, sample_limit=5)
        assert err < 1e-4
