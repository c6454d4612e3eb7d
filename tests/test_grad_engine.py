import math

import numpy as np
import pytest

from holonet import grad_engine as ge
from holonet import tensor_core as tc
from holonet.errors import ArgumentError, DimensionError, NumericError


def ssum(var):
    """Scalar sum of a Var's entries using only recorded primitives."""
    t = var.tape
    v = var.value
    if v.ndim == 0:
        return var
    if v.ndim == 1:
        ones = t.leaf(np.ones((1, v.shape[0])))
        return ge.matvec(ones, var)[0]
    if v.ndim == 3:
        return ssum(ge.scale(ge.mean_axis1(var), float(v.shape[1])))
    rows = t.leaf(np.ones((1, v.shape[0])))
    cols = t.leaf(np.ones(v.shape[1]))
    return ge.matvec(ge.matmul(rows, var), cols)[0]


def wsum(var, seed=0):
    """Seeded weighted sum, so gradients are direction-sensitive."""
    w = var.tape.leaf(tc.RngState(seed).generator().standard_normal(var.value.shape))
    return ssum(ge.hadamard(var, w))


# ---------------------------------------------------------------- forward values


def test_matvec_identity():
    t = ge.Tape()
    v = t.leaf(np.array([1.0, -2.0, 3.0]))
    out = ge.matvec(t.leaf(np.eye(3)), v)
    assert np.array_equal(out.value, v.value)


def test_tanh_zero():
    t = ge.Tape()
    assert ge.tanh(t.leaf(np.zeros(4))).value.sum() == 0.0


def test_cross_entropy_uniform_logits():
    t = ge.Tape()
    loss = ge.softmax_cross_entropy(t.leaf(np.zeros(6)), 3)
    assert float(loss.value) == pytest.approx(math.log(6.0), abs=1e-12)


def test_inner_product_grad_is_other_factor():
    t = ge.Tape()
    x = np.array([0.5, -1.0, 2.0])
    w = t.leaf(np.array([1.0, 1.0, 1.0]))
    loss = ssum(ge.hadamard(w, t.leaf(x)))
    t.backward(loss)
    assert np.allclose(w.grad, x)


def test_backward_requires_scalar():
    t = ge.Tape()
    v = t.leaf(np.ones(3))
    with pytest.raises(ArgumentError):
        t.backward(ge.tanh(v))


def test_shape_errors():
    t = ge.Tape()
    with pytest.raises(DimensionError):
        ge.matmul(t.leaf(np.ones((2, 3))), t.leaf(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        ge.hadamard(t.leaf(np.ones(3)), t.leaf(np.ones(4)))
    with pytest.raises(DimensionError):
        ge.matvec(t.leaf(np.ones((2, 3))), t.leaf(np.ones(2)))


# ---------------------------------------------------------------- exp(A)v oracle


def test_exp_matvec_loss_matches_finite_differences_at_zero():
    n = 4
    a0 = np.zeros((n, n))
    v0 = tc.RngState(77).generator().standard_normal(n)

    def build(tape, leaves):
        h = ge.matvec(ge.mat_exp(leaves["a"]), tape.leaf(v0))
        return ssum(ge.hadamard(h, h))

    store = ge.ParamStore({"a": a0})
    assert ge.grad_check(build, store, eps=1e-6) < 1e-6


def test_mat_exp_adjoint_pairing():
    gen = tc.RngState(5).generator()
    a = gen.standard_normal((5, 5))
    e = gen.standard_normal((5, 5))
    gbar = gen.standard_normal((5, 5))
    _, l = tc.mat_exp_frechet(a, e)
    _, adj = tc.mat_exp_frechet(a.T, gbar)
    assert abs(np.sum(l * gbar) - np.sum(e * adj)) < 1e-10


# ---------------------------------------------------------------- per-primitive checks

PRIMITIVE_CASES = {}


def case(name):
    def reg(fn):
        PRIMITIVE_CASES[name] = fn
        return fn
    return reg


@case("matmul")
def _c_matmul(gen):
    return {"a": gen.standard_normal((3, 4)), "b": gen.standard_normal((4, 2))}, \
        lambda t, lv: wsum(ge.matmul(lv["a"], lv["b"]))


@case("matvec")
def _c_matvec(gen):
    return {"a": gen.standard_normal((3, 4)), "v": gen.standard_normal(4)}, \
        lambda t, lv: wsum(ge.matvec(lv["a"], lv["v"]))


@case("add_broadcast")
def _c_add(gen):
    return {"x": gen.standard_normal((3, 4)), "b": gen.standard_normal(4)}, \
        lambda t, lv: wsum(ge.add(lv["x"], lv["b"]))


@case("scale")
def _c_scale(gen):
    return {"x": gen.standard_normal((3, 4))}, \
        lambda t, lv: wsum(ge.scale(lv["x"], -1.7))


@case("hadamard")
def _c_hadamard(gen):
    return {"a": gen.standard_normal((3, 4)), "b": gen.standard_normal((3, 4))}, \
        lambda t, lv: wsum(ge.hadamard(lv["a"], lv["b"]))


@case("tanh")
def _c_tanh(gen):
    return {"x": gen.standard_normal((3, 4))}, \
        lambda t, lv: wsum(ge.tanh(lv["x"]))


@case("unit")
def _c_unit(gen):
    return {"x": gen.standard_normal(5)}, \
        lambda t, lv: wsum(ge.unit(lv["x"]))


@case("transpose")
def _c_transpose(gen):
    return {"x": gen.standard_normal((3, 4))}, \
        lambda t, lv: wsum(ge.transpose(lv["x"]))


@case("layer_norm")
def _c_layer_norm(gen):
    return {"x": gen.standard_normal((3, 4)),
            "g": 1.0 + 0.1 * gen.standard_normal(4),
            "b": gen.standard_normal(4)}, \
        lambda t, lv: wsum(ge.layer_norm(lv["x"], lv["g"], lv["b"]))


@case("softmax_xent")
def _c_xent(gen):
    return {"z": gen.standard_normal(6)}, \
        lambda t, lv: ge.softmax_cross_entropy(lv["z"], 2)


@case("mat_exp")
def _c_mat_exp(gen):
    return {"a": 0.5 * gen.standard_normal((4, 4))}, \
        lambda t, lv: wsum(ge.mat_exp(lv["a"]))


@case("embed")
def _c_embed(gen):
    # repeated ids exercise scatter-add in the backward rule
    return {"tab": gen.standard_normal((5, 3))}, \
        lambda t, lv: wsum(ge.embed_lookup(lv["tab"], [0, 2, 2, 4]))


@case("concat")
def _c_concat(gen):
    return {"a": gen.standard_normal((2, 3)), "b": gen.standard_normal((2, 2))}, \
        lambda t, lv: wsum(ge.concat([lv["a"], lv["b"]], axis=1))


@case("slice")
def _c_slice(gen):
    return {"x": gen.standard_normal((4, 5))}, \
        lambda t, lv: wsum(lv["x"][1:3, 2:5]) + wsum(lv["x"][0], seed=1)


@case("attention")
def _c_attention(gen):
    return {"q": gen.standard_normal((5, 3)),
            "k": gen.standard_normal((5, 3)),
            "v": gen.standard_normal((5, 4))}, \
        lambda t, lv: wsum(ge.attention(lv["q"], lv["k"], lv["v"]))


@case("attention_causal")
def _c_attention_causal(gen):
    return {"q": gen.standard_normal((5, 3)),
            "k": gen.standard_normal((5, 3)),
            "v": gen.standard_normal((5, 4))}, \
        lambda t, lv: wsum(ge.attention(lv["q"], lv["k"], lv["v"], causal=True))


@case("bmatmul")
def _c_bmatmul(gen):
    return {"a": gen.standard_normal((2, 3, 4)), "b": gen.standard_normal((4, 5))}, \
        lambda t, lv: wsum(ge.bmatmul(lv["a"], lv["b"]))


@case("skew_exp")
def _c_skew_exp(gen):
    return {"m": 0.5 * gen.standard_normal((3, 4, 4))}, \
        lambda t, lv: wsum(ge.skew_exp(lv["m"]))


# padded rows, a length-1 row, and token 3 unused
SCAN_IDS = [[-1, -1, 0, 2], [1, 0, 2, 1], [-1, -1, -1, 2]]


@case("holonomic_scan")
def _c_holonomic_scan(gen):
    return {"u": gen.standard_normal((4, 3, 3)), "h0": gen.standard_normal(3)}, \
        lambda t, lv: wsum(ge.holonomic_scan(lv["u"], SCAN_IDS, lv["h0"]))


@case("mha")
def _c_mha(gen):
    return {"q": gen.standard_normal((2, 5, 6)),
            "k": gen.standard_normal((2, 5, 6)),
            "v": gen.standard_normal((2, 5, 6))}, \
        lambda t, lv: wsum(ge.mha(lv["q"], lv["k"], lv["v"], n_heads=2))


@case("mean_axis1")
def _c_mean_axis1(gen):
    return {"x": gen.standard_normal((3, 4, 5))}, \
        lambda t, lv: wsum(ge.mean_axis1(lv["x"]))


@case("gather_readout")
def _c_gather_readout(gen):
    return {"r": gen.standard_normal((3, 4, 5)), "p": gen.standard_normal((6, 5))}, \
        lambda t, lv: wsum(ge.gather_readout(lv["r"], lv["p"], [0, 2, 1, 2, 0, 1]))


@case("softmax_xent_mean")
def _c_softmax_xent_mean(gen):
    return {"z": gen.standard_normal((5, 6))}, \
        lambda t, lv: ge.softmax_xent_mean(lv["z"], [0, 3, 5, 1, 3])


@case("unit_rows")
def _c_unit_rows(gen):
    return {"x": gen.standard_normal((4, 5))}, \
        lambda t, lv: wsum(ge.unit(lv["x"]))


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_primitive_gradients(name, seed):
    gen = tc.RngState(1000 + seed).generator()
    params, build = PRIMITIVE_CASES[name](gen)
    err = ge.grad_check(build, ge.ParamStore(params), eps=1e-6, seed=seed)
    assert err < 1e-5, f"{name}: max rel grad error {err}"


def test_backward_bitwise_deterministic():
    def run():
        gen = tc.RngState(9).generator()
        t = ge.Tape()
        a = t.leaf(gen.standard_normal((6, 6)))
        v = t.leaf(gen.standard_normal(6))
        h = ge.matvec(ge.mat_exp(a), v)
        loss = ssum(ge.hadamard(h, h))
        t.backward(loss)
        return a.grad.copy(), v.grad.copy()

    ga1, gv1 = run()
    ga2, gv2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gv1, gv2)


def test_node_reuse_accumulates_cotangents():
    # one mat_exp node consumed twice must sum both contributions
    a0 = 0.3 * tc.RngState(10).generator().standard_normal((3, 3))

    def build(tape, lv):
        u = ge.mat_exp(lv["a"])
        x = tape.leaf(np.array([1.0, 0.0, -1.0]))
        h1 = ge.matvec(u, x)
        h2 = ge.matvec(u, h1)
        return ssum(ge.hadamard(h2, h2))

    assert ge.grad_check(build, ge.ParamStore({"a": a0}), eps=1e-6) < 1e-6


# ---------------------------------------------------------------- skew_exp, holonomic_scan


def test_skew_exp_matches_pade_and_is_orthogonal():
    m = tc.RngState(20).generator().standard_normal((2, 128, 128)) / math.sqrt(128)
    out = ge.skew_exp(ge.Tape().leaf(m)).value
    for v in range(2):
        ref = tc.mat_exp(tc.skew(m[v]))
        assert np.max(np.abs(out[v] - ref)) < 1e-13
        assert np.linalg.norm(out[v].T @ out[v] - np.eye(128)) < 1e-12


def frechet_adjoint_wrt_m(m, gbar):
    """d<exp(M - M^T), gbar>/dM through the block Frechet derivative."""
    _, da = tc.mat_exp_frechet(tc.skew(m).T, gbar)
    return da - da.T


def rotation_block_generator(angles):
    """M with M - M^T block-diagonal 2x2 rotations by the given angles."""
    m = np.zeros((2 * len(angles),) * 2)
    for k, theta in enumerate(angles):
        m[2 * k, 2 * k + 1] = theta
    return m


@pytest.mark.parametrize("spectrum", ["random", "zero", "repeated-angles"])
def test_skew_exp_adjoint_matches_frechet(spectrum):
    gen = tc.RngState(21).generator()
    if spectrum == "random":
        m = gen.standard_normal((6, 6))
    elif spectrum == "zero":
        m = np.zeros((6, 6))
    else:
        m = rotation_block_generator([0.7, 0.7, 0.7])
    gbar = gen.standard_normal((6, 6))
    tape = ge.Tape()
    leaf = tape.leaf(m[None])
    grads = tape.vjp(ge.skew_exp(leaf), gbar[None])
    assert np.allclose(grads[leaf.idx][0], frechet_adjoint_wrt_m(m, gbar), atol=1e-12)


def test_skew_exp_rejects_non_finite():
    m = np.zeros((2, 3, 3))
    m[1, 0, 2] = np.nan
    with pytest.raises(NumericError):
        ge.skew_exp(ge.Tape().leaf(m))
    with pytest.raises(NumericError):
        ge.skew_exp(ge.Tape().leaf(np.full((1, 2, 2), np.inf)))


def test_holonomic_scan_identity_padding_is_bit_exact():
    gen = tc.RngState(22).generator()
    u = ge.skew_exp(ge.Tape().leaf(gen.standard_normal((3, 5, 5))))
    h0 = u.tape.leaf(gen.standard_normal(5))
    padded = ge.holonomic_scan(u, [[-1, -1, 2, 0, 1], [1, 1, 0, 2, 2]], h0).value
    alone = ge.holonomic_scan(u, [[2, 0, 1]], h0).value
    assert np.array_equal(padded[0], alone[0])


def test_holonomic_scan_rejects_tokens_outside_vocabulary():
    t = ge.Tape()
    u, h0 = t.leaf(np.ones((3, 2, 2))), t.leaf(np.ones(2))
    for bad in (-2, 3):
        with pytest.raises(ArgumentError):
            ge.holonomic_scan(u, [[0, bad]], h0)
    with pytest.raises(DimensionError):
        ge.holonomic_scan(u, [0, 1], h0)


# ---------------------------------------------------------------- grad_check harness


def test_grad_check_quadratic_is_exact():
    def build(tape, lv):
        return ssum(ge.hadamard(lv["x"], lv["x"]))

    err = ge.grad_check(build, ge.ParamStore({"x": np.arange(1.0, 10.0)}), eps=1e-5)
    assert err < 1e-9


def test_grad_check_eps_bounds():
    with pytest.raises(ArgumentError):
        ge.grad_check(lambda t, lv: ssum(lv["x"]), ge.ParamStore({"x": np.ones(3)}),
                      eps=1e-3)


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_no_move():
    store = ge.ParamStore({"w": np.array([1.0, -2.0])})
    before = store.params["w"].copy()
    ge.adam_step(store, {"w": np.zeros(2)})
    assert np.array_equal(store.params["w"], before)


def test_adam_first_step_is_signed_lr():
    store = ge.ParamStore({"w": np.zeros(3)})
    g = np.array([0.5, -0.25, 4.0])
    ge.adam_step(store, {"w": g}, lr=1e-3)
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.allclose(store.params["w"], expected, atol=1e-9)


def test_adam_quadratic_descent():
    store = ge.ParamStore({"p": np.array([0.0])})
    losses = []
    for _ in range(100):
        p = store.params["p"][0]
        losses.append((p - 3.0) ** 2)
        ge.adam_step(store, {"p": np.array([2.0 * (p - 3.0)])}, lr=1e-2)
    for a, b in zip(losses[5:], losses[6:]):
        assert b < a


def test_adam_shape_mismatch():
    store = ge.ParamStore({"w": np.zeros((2, 2))})
    with pytest.raises(DimensionError):
        ge.adam_step(store, {"w": np.zeros(3)})


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = ge.clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    joint = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert joint == pytest.approx(1.0)
