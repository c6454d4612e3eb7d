import itertools
import math

import numpy as np
import pytest

from holonet import grad_engine as ge
from holonet import tensor_core as tc
from holonet.errors import ArgumentError, DimensionError, NumericError


def softplus_sum(var):
    """Scalar log(1 + e^|s|), s the sum of a (R, C) Var's entries, from the
    model graphs' own primitives: a segment pool takes the mean of the rows,
    which a readout gather sums and scales by R into a (1, 2) logit row
    [s, 0], scored by cross-entropy against its smaller logit. The loss is at
    least log 2, so it keeps its relative precision (log(1 + e^s) at s << 0
    would not). The rows are summed before the nonlinearity: a mean of
    per-row losses has gradients R times smaller against the same rounding
    noise."""
    rows, cols = var.value.shape
    bank = np.zeros((1, 2, cols))
    bank[0, 0] = rows
    pair = ge.gather_readout(var.tape.leaf(bank), ge.segment_pool(var, [rows], [0], mean=True),
                             [0])
    return ge.softmax_xent_mean(pair, [int(pair.value[0, 0] >= 0)])


def wsum(var, seed=0):
    """softplus_sum of a seeded random linear function of each row of a Var,
    so gradients are direction-sensitive. A row block is weighted row by row
    by a readout gather; a (Q, C, d) stack is first read out along d random
    directions per matrix, so each matrix's weights have full rank."""
    gen = tc.RngState(seed).generator()
    t = var.tape
    if var.value.ndim == 3:
        q, _, d = var.value.shape
        var = ge.gather_readout(var, t.leaf(gen.standard_normal((q * d, d))),
                                np.repeat(np.arange(q), d))
    rows, cols = var.value.shape
    return softplus_sum(ge.gather_readout(t.leaf(gen.standard_normal((rows, 1, cols))),
                                          var, np.arange(rows)))


def dot(x, y):
    """x . y of two (1, n) Vars as a (1, 1) Var: a readout gather of x's
    row, looked up as a one-matrix bank, against y."""
    return ge.gather_readout(ge.embed_lookup(x, [[0]]), y, [0])


# the module constants that force each skew_exp algorithm onto any stack
SKEW_ALGORITHMS = {
    "taylor": {"TAYLOR_MAX_ENTRIES": 2 ** 62},
    "eigh": {"TAYLOR_MAX_ENTRIES": -1},
}


def skew_algorithms(monkeypatch):
    """Yields each skew_exp algorithm's name with the kernel forced onto it."""
    for name, constants in SKEW_ALGORITHMS.items():
        with monkeypatch.context() as patch:
            for attr, value in constants.items():
                patch.setattr(ge, attr, value)
            yield name


def algorithm_of(node):
    """The algorithm a skew_exp node ran: its saved adjoint's name."""
    return node.tape.aux[node.idx][0].__name__.split("_")[1]


# ---------------------------------------------------------------- forward values


def test_cross_entropy_uniform_logits():
    t = ge.Tape()
    loss = ge.softmax_xent_mean(t.leaf(np.zeros((2, 6))), [3, 0])
    assert float(loss.value) == pytest.approx(math.log(6.0), abs=1e-12)


def test_inner_product_grad_is_other_factor():
    # d softplus(w . x) / dw = sigmoid(w . x) x, and w . x = 1.5 here
    t = ge.Tape()
    x = np.array([[0.5, -1.0, 2.0]])
    w = t.leaf(np.array([[1.0, 1.0, 1.0]]))
    loss = softplus_sum(dot(t.leaf(x), w))
    assert float(loss.value) == pytest.approx(math.log1p(math.exp(1.5)), abs=1e-15)
    t.backward(loss)
    assert np.allclose(w.grad, x / (1.0 + math.exp(-1.5)), rtol=0, atol=1e-15)


def test_backward_requires_scalar():
    t = ge.Tape()
    v = t.leaf(np.ones((2, 3)))
    with pytest.raises(ArgumentError):
        t.backward(ge.add(v, v))


def test_shape_errors():
    t = ge.Tape()
    with pytest.raises(DimensionError):
        ge.add(t.leaf(np.ones(3)), t.leaf(np.ones(4)))
    # add does not broadcast: no model graph adds unequal shapes
    with pytest.raises(DimensionError):
        ge.add(t.leaf(np.ones((3, 4))), t.leaf(np.ones(4)))


# ---------------------------------------------------------------- exp(A)v oracle


def test_exp_matvec_loss_matches_finite_differences_at_zero(monkeypatch):
    # at the zero generator every rotation angle is 0, so all are repeated
    n = 4
    m0 = np.zeros((1, n, n))
    v0 = tc.RngState(77).generator().standard_normal(n)

    def build(tape, leaves):
        return wsum(ge.holonomic_scan(ge.skew_exp(leaves["m"]), [[0]], tape.leaf(v0)))

    for algorithm in skew_algorithms(monkeypatch):
        store = ge.ParamStore({"m": m0})
        assert ge.grad_check(build, store, eps=1e-6) < 1e-6, algorithm


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


@case("add")
def _c_add(gen):
    return {"x": gen.standard_normal((3, 4)), "b": gen.standard_normal((3, 4))}, \
        lambda t, lv: wsum(ge.add(lv["x"], lv["b"]))


@case("layer_norm")
def _c_layer_norm(gen):
    return {"x": gen.standard_normal((3, 4)),
            "g": 1.0 + 0.1 * gen.standard_normal(4),
            "b": gen.standard_normal(4)}, \
        lambda t, lv: wsum(ge.layer_norm(lv["x"], lv["g"], lv["b"]))


@case("embed")
def _c_embed(gen):
    # repeated ids exercise scatter-add in the backward rule
    return {"tab": gen.standard_normal((5, 3))}, \
        lambda t, lv: wsum(ge.embed_lookup(lv["tab"], [0, 2, 2, 4]))


@case("skew_exp")
def _c_skew_exp(gen):
    return {"m": 0.5 * gen.standard_normal((3, 4, 4))}, \
        lambda t, lv: wsum(ge.skew_exp(lv["m"]))


# padded rows, a length-1 row, an all-pad column, and token 3 unused
SCAN_IDS = [[-1, -1, -1, 0, 2], [-1, 1, 0, 2, 1], [-1, -1, -1, -1, 2]]


def rnn_scan_case(normalized):
    def make(gen):
        # n = 4 over SCAN_IDS' vocabulary of 4; token 3's row of w_in is unused
        return {"w_rec": gen.standard_normal((4, 4)), "w_in": gen.standard_normal((4, 4)),
                "bias": 0.5 * gen.standard_normal(4)}, \
            lambda t, lv: wsum(ge.rnn_scan(lv["w_rec"], lv["w_in"], lv["bias"], SCAN_IDS,
                                           normalized))
    return make


case("rnn_scan")(rnn_scan_case(False))
case("rnn_scan_normalized")(rnn_scan_case(True))


@case("holonomic_scan")
def _c_holonomic_scan(gen):
    # n = 3: the padded layout (see test_scan_cases_take_both_layouts)
    return {"u": gen.standard_normal((4, 3, 3)), "h0": gen.standard_normal(3)}, \
        lambda t, lv: wsum(ge.holonomic_scan(lv["u"], SCAN_IDS, lv["h0"]))


@case("holonomic_scan_grouped")
def _c_holonomic_scan_grouped(gen):
    # n = 64 over 6 tokens: the padding would cost more than the calls it saves
    return {"u": gen.standard_normal((6, 64, 64)) / 8.0, "h0": gen.standard_normal(64)}, \
        lambda t, lv: wsum(ge.holonomic_scan(lv["u"], SCAN_IDS, lv["h0"]))


def encoder_weights(gen, d=6, d_ff=5):
    shapes = {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
              "w1": (d, d_ff), "b1": (d_ff,), "w2": (d_ff, d)}
    w = {name: 0.5 * gen.standard_normal(shapes.get(name, (d,)))
         for name in ge.ENCODER_WEIGHTS}
    w["ln1_g"] += 1.0
    w["ln2_g"] += 1.0
    return w


# (offset, rows, length) of a packed stream: a single length-1 row, two rows
# of length 2, one of length 3 and two of length 4
SEGMENTS = ((0, 1, 1), (1, 2, 2), (5, 1, 3), (8, 2, 4))
STREAM = 16


@case("encoder_layer")
def _c_encoder_layer(gen):
    # the key bias's exact gradient is 0 (a softmax row does not move under a
    # shift): grad_check's noise floor passes it
    params = encoder_weights(gen)
    params["x"] = gen.standard_normal((STREAM, 6))

    def build(t, lv):
        w = {name: lv[name] for name in ge.ENCODER_WEIGHTS}
        return wsum(ge.encoder_layer(lv["x"], SEGMENTS, w, n_heads=2))

    return params, build


@case("segment_pool")
def _c_segment_pool(gen):
    # both modes over SEGMENTS' sequences; packed sequence i is block row rows[i]
    lengths, rows = np.array([1, 2, 2, 3, 4, 4]), np.array([3, 0, 5, 1, 2, 4])
    return {"x": gen.standard_normal((STREAM, 5))}, \
        lambda t, lv: wsum(ge.segment_pool(lv["x"], lengths, rows, mean=True)) \
        + wsum(ge.segment_pool(lv["x"], lengths, rows, mean=False), seed=1)


@case("gather_readout")
def _c_gather_readout(gen):
    return {"r": gen.standard_normal((3, 4, 5)), "p": gen.standard_normal((6, 5))}, \
        lambda t, lv: wsum(ge.gather_readout(lv["r"], lv["p"], [0, 2, 1, 2, 0, 1]))


@case("softmax_xent_mean")
def _c_softmax_xent_mean(gen):
    return {"z": gen.standard_normal((5, 6))}, \
        lambda t, lv: ge.softmax_xent_mean(lv["z"], [0, 3, 5, 1, 3])


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_primitive_gradients(name, seed):
    gen = tc.RngState(1000 + seed).generator()
    params, build = PRIMITIVE_CASES[name](gen)
    err = ge.grad_check(build, ge.ParamStore(params), eps=1e-6, seed=seed)
    assert err < 1e-5, f"{name}: max rel grad error {err}"


def test_skew_exp_gradients_on_both_algorithms(monkeypatch):
    # the skew_exp case at its own scale, and past the eigh halving
    for algorithm in skew_algorithms(monkeypatch):
        for seed, scale in itertools.product(range(4), (1.0, 12.0)):
            params, build = PRIMITIVE_CASES["skew_exp"](tc.RngState(1000 + seed).generator())
            params["m"] *= scale
            err = ge.grad_check(build, ge.ParamStore(params), eps=1e-6, seed=seed)
            assert err < 1e-5, f"{algorithm} seed {seed} x{scale}: max rel grad error {err}"


def test_every_backward_rule_has_a_finite_difference_case():
    seen = set()
    for make in PRIMITIVE_CASES.values():
        params, build = make(tc.RngState(0).generator())
        tape = ge.Tape()
        build(tape, {k: tape.leaf(v) for k, v in params.items()})
        seen.update(tape.ops)
    assert not set(ge._BACKWARD) - seen, sorted(set(ge._BACKWARD) - seen)


def test_backward_bitwise_deterministic(monkeypatch):
    def run():
        gen = tc.RngState(9).generator()
        t = ge.Tape()
        a = t.leaf(gen.standard_normal((2, 6, 6)))
        v = t.leaf(gen.standard_normal(6))
        grads = t.backward(wsum(ge.holonomic_scan(ge.skew_exp(a), [[0, 1]], v)))
        # the sweep frees every non-leaf cotangent once its rule has run
        assert all(t.ops[i] == "leaf" for i in grads)
        assert all(g is None for g, op in zip(t.grads, t.ops) if op != "leaf")
        return a.grad.copy(), v.grad.copy()

    for algorithm in skew_algorithms(monkeypatch):
        ga1, gv1 = run()
        ga2, gv2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gv1, gv2), algorithm


def test_node_reuse_accumulates_cotangents():
    # one skew_exp node consumed twice must sum both contributions
    m0 = 0.3 * tc.RngState(10).generator().standard_normal((1, 3, 3))

    def build(tape, lv):
        u = ge.skew_exp(lv["m"])
        h1 = ge.holonomic_scan(u, [[0]], tape.leaf(np.array([1.0, 0.0, -1.0])))
        h2 = ge.holonomic_scan(u, [[0, 0]], tape.leaf(np.array([0.5, 2.0, 0.0])))
        return wsum(h1 + h2)

    assert ge.grad_check(build, ge.ParamStore({"m": m0}), eps=1e-6) < 1e-6


def test_encoder_layer_key_bias_gradient_vanishes():
    gen = tc.RngState(11).generator()
    t = ge.Tape()
    w = {name: t.leaf(v) for name, v in encoder_weights(gen).items()}
    out = ge.encoder_layer(t.leaf(gen.standard_normal((STREAM, 6))), SEGMENTS, w,
                           n_heads=2)
    t.vjp(out, gen.standard_normal(out.value.shape))
    assert np.max(np.abs(w["bk"].grad)) < 1e-13
    assert np.max(np.abs(w["bq"].grad)) > 1e-3


def test_encoder_layer_saves_no_weight_concatenation_nor_layer_norm_outputs():
    # the backward rebuilds [Wq Wk Wv] and y = xhat * gain + bias itself
    gen = tc.RngState(12).generator()
    t = ge.Tape()
    weights = encoder_weights(gen)
    w = {name: t.leaf(v) for name, v in weights.items()}
    out = ge.encoder_layer(t.leaf(gen.standard_normal((8, 6))), ((0, 1, 2), (2, 2, 3)),
                           w, n_heads=2)
    _, _, saved = t.aux[out.idx]
    # the attention probabilities are a list, one array per segment
    saved = [a for item in saved for a in (item if isinstance(item, list) else [item])]
    assert all(a.shape != (6, 18) for a in saved)
    for xhat in (a for a in saved if a.shape == (8, 6)):
        for ln in ("ln1", "ln2"):
            y = xhat * weights[ln + "_g"] + weights[ln + "_b"]
            assert not any(a.shape == y.shape and np.array_equal(a, y) for a in saved)


def test_encoder_layer_rejects_bad_shapes():
    gen = tc.RngState(15).generator()
    t = ge.Tape()
    w = {name: t.leaf(v) for name, v in encoder_weights(gen).items()}
    one = ((0, 1, 4),)
    with pytest.raises(DimensionError):
        ge.encoder_layer(t.leaf(np.ones((1, 4, 6))), one, w, n_heads=2)
    with pytest.raises(DimensionError):
        ge.encoder_layer(t.leaf(np.ones((4, 6))), one, w, n_heads=4)
    # segments must tile the stream: a gap, an overlap, a short or long cover
    for segments in (((0, 1, 1), (2, 1, 2)), ((0, 1, 2), (1, 1, 3)), ((0, 1, 3),),
                     ((0, 1, 5),), ((0, 0, 4),)):
        with pytest.raises(DimensionError):
            ge.encoder_layer(t.leaf(np.ones((4, 6))), segments, w, n_heads=2)
    w["wo"] = t.leaf(np.ones((6, 5)))
    with pytest.raises(DimensionError):
        ge.encoder_layer(t.leaf(np.ones((4, 6))), one, w, n_heads=2)


def test_segment_pool_rejects_lengths_or_rows_that_do_not_pool_the_stream():
    t = ge.Tape()
    x = t.leaf(np.ones((4, 3)))
    # lengths short or long of the stream, an empty sequence, rows not a
    # permutation of the sequences
    for lengths, rows in (([1, 2], [0, 1]), ([2, 3], [0, 1]), ([0, 4], [0, 1]),
                          ([1, 3], [0, 0]), ([1, 3], [1])):
        with pytest.raises(DimensionError):
            ge.segment_pool(x, lengths, rows, mean=True)


def test_embed_backward_is_the_scatter_add():
    # the one-hot GEMM against np.add.at, repeated ids, an id vector and an
    # id block
    gen = tc.RngState(16).generator()
    for ids in (gen.integers(0, 45, 64), gen.integers(0, 45, (8, 50))):
        t = ge.Tape()
        table = t.leaf(gen.standard_normal((45, 16)))
        out = ge.embed_lookup(table, ids)
        g = gen.standard_normal(out.value.shape)
        ref = np.zeros(table.value.shape)
        np.add.at(ref, ids, g)
        got = t.vjp(out, g)[table.idx]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_block_cotangent_rejected_by_rules_that_cannot_carry_it():
    # no rule carries a block of cotangents, (k, *shape): a cotangent must
    # have its node's shape
    gen = tc.RngState(13).generator()
    t = ge.Tape()
    x = t.leaf(gen.standard_normal((2, 3, 4)))
    out = ge.layer_norm(x, t.leaf(np.ones(4)), t.leaf(np.zeros(4)))
    with pytest.raises(DimensionError):
        t.vjp(out, np.ones((5, 2, 3, 4)))
    with pytest.raises(DimensionError):
        t.vjp(out, np.ones((2, 3, 5)))


# ---------------------------------------------------------------- skew_exp, holonomic_scan


def test_skew_exp_matches_pade_and_is_orthogonal(monkeypatch):
    m = tc.RngState(20).generator().standard_normal((2, 128, 128)) / math.sqrt(128)
    for algorithm in skew_algorithms(monkeypatch):
        node = ge.skew_exp(ge.Tape().leaf(m))
        assert algorithm_of(node) == algorithm
        for v in range(2):
            ref = tc.mat_exp(tc.skew(m[v]))
            assert np.max(np.abs(node.value[v] - ref)) < 1e-13, algorithm
            assert np.linalg.norm(node.value[v].T @ node.value[v] - np.eye(128)) < 1e-12


def frechet_adjoint_wrt_m(m, gbar):
    """d<exp(M - M^T), gbar>/dM through the block Frechet derivative."""
    _, da = tc.mat_exp_frechet(tc.skew(m).T, gbar)
    return da - da.T


def rotation_block_generator(angles, gen=None):
    """M with M - M^T block-diagonal 2x2 rotations by the given angles, in a
    random orthonormal basis when `gen` is given."""
    m = np.zeros((2 * len(angles),) * 2)
    for k, theta in enumerate(angles):
        m[2 * k, 2 * k + 1] = theta
    if gen is not None:
        q, _ = np.linalg.qr(gen.standard_normal(m.shape))
        m = q @ m @ q.T
    return m


# rotation angles for the adjoint test: each skew_exp branch threshold
# (the direct/near gap in lam = theta^2, the near-pair product below which the
# lam series runs, the largest angle before halving) is straddled
SKEW_SPECTRA = {
    "repeated-angles": [0.7, 0.7, 0.7],
    "gap-1e-9": [1.0, 1.0 + 1e-9, 2.0],
    "gap-1e-6": [1.0, 1.0 + 1e-6, 2.0],
    "tiny": [1e-6, 1e-6, 2e-6],
    "near-gap": [1.0] + [math.sqrt(1.0 + ge._DD_GAP * r) for r in (0.999, 1.001)],
    "near-gap-small": [0.01] + [math.sqrt(1e-4 + ge._DD_GAP * r) for r in (0.999, 1.001)],
    "series-product": [math.sqrt(ge._DD_PROD) * r for r in (0.999, 1.0, 1.001)],
    "pi-multiples": [math.pi, math.pi, 2 * math.pi],
    "tiny-beside-large": [1e-6, 1.0, 6.0],
    "below-halving": [ge._MAX_ANGLE * (1 - 1e-6), 1.0, 1e-3],
    "above-halving": [ge._MAX_ANGLE * (1 + 1e-6), 1.0, 1e-3],
    "halved-twice": [3.5 * ge._MAX_ANGLE, 2 * math.pi, 0.3],
}


@pytest.mark.parametrize("spectrum", ["random", "zero", *SKEW_SPECTRA])
def test_skew_exp_adjoint_matches_frechet(spectrum, monkeypatch):
    gen = tc.RngState(21).generator()
    if spectrum == "random":
        m = gen.standard_normal((6, 6))
    elif spectrum == "zero":
        m = np.zeros((6, 6))
    else:
        m = rotation_block_generator(SKEW_SPECTRA[spectrum], gen)
    gbar = gen.standard_normal((6, 6))
    expected = frechet_adjoint_wrt_m(m, gbar)
    for algorithm in skew_algorithms(monkeypatch):
        tape = ge.Tape()
        leaf = tape.leaf(m[None])
        node = ge.skew_exp(leaf)
        assert algorithm_of(node) == algorithm
        grads = tape.vjp(node, gbar[None])
        assert np.allclose(grads[leaf.idx][0], expected, rtol=0, atol=1e-12), algorithm


def test_skew_exp_stays_orthogonal_at_large_norms(monkeypatch):
    m = tc.RngState(23).generator().standard_normal((3, 32, 32))
    a = m - m.transpose(0, 2, 1)
    norms = np.array([1e2, 1e3, 1e4])
    a *= (norms / np.linalg.norm(a, 2, axis=(1, 2)))[:, None, None]
    for algorithm in skew_algorithms(monkeypatch):
        node = ge.skew_exp(ge.Tape().leaf(0.5 * a))   # M = A/2: M - M^T = A
        assert algorithm_of(node) == algorithm
        out = node.value
        defect = np.linalg.norm(out.transpose(0, 2, 1) @ out - np.eye(32), axis=(1, 2))
        assert defect[0] <= 1e-12, algorithm
        assert np.all(defect < 1e-10), algorithm


def test_skew_exp_rejects_non_finite(monkeypatch):
    m = np.zeros((2, 3, 3))
    m[1, 0, 2] = np.nan
    for _ in skew_algorithms(monkeypatch):
        with pytest.raises(NumericError):
            ge.skew_exp(ge.Tape().leaf(m))
        with pytest.raises(NumericError):
            ge.skew_exp(ge.Tape().leaf(np.full((1, 2, 2), np.inf)))


def rotation(theta):
    """A (1, 2, 2) generator whose M - M^T rotates by theta: ||A||_2 = theta."""
    return np.array([[[0.0, theta], [0.0, 0.0]]])


def test_skew_exp_algorithm_rule_boundary():
    # shape: V n^2 up to TAYLOR_MAX_ENTRIES goes Taylor, past it eigh
    n = 32
    v = ge.TAYLOR_MAX_ENTRIES // n ** 2
    m = 0.01 * tc.RngState(24).generator().standard_normal((v + 1, n, n))
    assert algorithm_of(ge.skew_exp(ge.Tape().leaf(m[:v]))) == "taylor"
    assert algorithm_of(ge.skew_exp(ge.Tape().leaf(m))) == "eigh"
    # scale does not choose: for one rotation the bound ||B^4||_1^(1/8) is the
    # angle itself, and angles up to _TAYLOR_NORM 2^s take s halvings
    for theta, halvings in ((ge._TAYLOR_NORM * (1 - 1e-6), 0),
                            (ge._TAYLOR_NORM * (1 + 1e-6), 1),
                            (ge._TAYLOR_NORM * 2.0 ** 9 * (1 - 1e-6), 9)):
        node = ge.skew_exp(ge.Tape().leaf(rotation(theta)))
        assert algorithm_of(node) == "taylor", theta
        assert node.tape.aux[node.idx][2][0] == halvings, theta
        c, s = math.cos(theta), math.sin(theta)
        assert np.max(np.abs(node.value[0] - [[c, s], [-s, c]])) < 1e-13, theta


def test_skew_exp_taylor_truncation_is_below_1e16():
    # the tail of exp's Taylor series past the polynomial's degree, at the
    # largest scaled norm, bounds the truncation error of a normal X
    degree = ge._TAYLOR_COEFFS.size - 1     # 12 even and 12 odd coefficients
    assert degree == 23
    tail = sum(ge._TAYLOR_NORM ** k / math.factorial(k) for k in range(degree + 1, degree + 40))
    assert tail < 1e-16
    for j, i, odd in itertools.product(range(3), range(4), range(2)):
        assert ge._TAYLOR_COEFFS[j, odd, i] == 1.0 / math.factorial(2 * (4 * j + i) + odd)


@pytest.mark.parametrize("workload, shape, scale, algorithm", [
    # S3 training and probes and scan-bench: n = 32 over 6 tokens, at init
    # and at a trained model's ||A||_2 of about 3
    ("s3-init", (6, 32, 32), 0.4 / math.sqrt(32), "taylor"),
    ("s3-trained", (6, 32, 32), 1.1 / math.sqrt(32), "taylor"),
    ("binding", (45, 128, 128), 0.4 / math.sqrt(128), "eigh"),
])
def test_benchmark_stacks_take_their_algorithm(workload, shape, scale, algorithm):
    m = scale * tc.RngState(25).generator().standard_normal(shape)
    assert algorithm_of(ge.skew_exp(ge.Tape().leaf(m))) == algorithm


def test_holonomic_scan_identity_padding_is_bit_exact():
    # row 0 with four leading pads against the block without those columns:
    # its later columns hold the same token counts, so both blocks take one
    # layout (the two layouts differ in the last bits at V = 6, n = 32)
    gen = tc.RngState(22).generator()
    for n, padded in ((32, True), (128, False)):
        u = ge.skew_exp(ge.Tape().leaf(0.1 * gen.standard_normal((6, n, n))))
        h0 = u.tape.leaf(gen.standard_normal(n))
        tail = gen.integers(0, 6, size=(16, 12))
        head = gen.integers(0, 6, size=(16, 4))
        head[0] = ge.IDENTITY_STEP
        ids = np.concatenate([head, tail], axis=1)
        assert ge.token_schedule(ids, u.value).padded is padded
        assert ge.token_schedule(tail, u.value).padded is padded
        with_pads = ge.holonomic_scan(u, ids, h0).value
        alone = ge.holonomic_scan(u, tail, h0).value
        assert np.array_equal(with_pads[0], alone[0]), f"n={n}"


def test_scan_cases_take_both_layouts():
    # the finite-difference cases check holonomic_scan in each layout
    assert ge.token_schedule(SCAN_IDS, np.empty((4, 3, 3))).padded
    assert not ge.token_schedule(SCAN_IDS, np.empty((6, 64, 64))).padded


def test_token_schedule_layout_rule_at_its_boundary():
    # one column [0, 1, 1, 1] over two tokens: the padded layout adds two rows
    # of n^2 multiply-adds (2 tokens x 3 rows - 4 live rows) and saves one
    # call, so n = 128 spends exactly GEMM_CALL_MACS
    ids = [[0], [1], [1], [1]]
    assert ge.GEMM_CALL_MACS == 2 * 128 ** 2
    assert ge.token_schedule(ids, np.empty((2, 127, 127))).padded
    assert not ge.token_schedule(ids, np.empty((2, 128, 128))).padded
    # one token per column saves nothing; an all-pad block spends nothing
    assert not ge.token_schedule([[0, 1], [0, 1]], np.empty((2, 2, 2))).padded
    assert not ge.token_schedule([[-1, -1]], np.empty((2, 2, 2))).padded


def test_padded_schedule_slots_tile_each_column():
    # every row lands in its own slot: token v's rows in row order from
    # v m_t, the pads after the vocab m_t token slots
    ids = np.array(SCAN_IDS)
    schedule = ge.token_schedule(ids, np.empty((4, 3, 3)))
    assert schedule.padded and schedule.index.shape == (5, 3)
    for t, (m, pads) in enumerate(schedule.cuts):
        col = ids[:, t]
        assert pads == np.sum(col == ge.IDENTITY_STEP)
        assert m == max(np.sum(col == v) for v in range(4))
        expect = np.empty(3, dtype=np.intp)
        for v in range(4):
            expect[col == v] = v * m + np.arange(np.sum(col == v))
        expect[col == ge.IDENTITY_STEP] = 4 * m + np.arange(pads)
        assert np.array_equal(schedule.index[t], expect), t


def test_holonomic_scan_rejects_tokens_outside_vocabulary():
    t = ge.Tape()
    u, h0 = t.leaf(np.ones((3, 2, 2))), t.leaf(np.ones(2))
    for bad in (-2, 3):
        with pytest.raises(ArgumentError):
            ge.holonomic_scan(u, [[0, bad]], h0)
    with pytest.raises(DimensionError):
        ge.holonomic_scan(u, [0, 1], h0)


def test_rnn_scan_rejects_tokens_outside_vocabulary_and_bad_shapes():
    t = ge.Tape()
    w_rec, w_in, bias = t.leaf(np.ones((2, 2))), t.leaf(np.ones((3, 2))), t.leaf(np.ones(2))
    for bad in (-2, 3):
        with pytest.raises(ArgumentError):
            ge.rnn_scan(w_rec, w_in, bias, [[0, bad]], False)
    with pytest.raises(DimensionError):
        ge.rnn_scan(w_rec, w_in, bias, [0, 1], False)
    with pytest.raises(DimensionError):
        ge.rnn_scan(w_rec, t.leaf(np.ones((3, 3))), bias, [[0, 1]], True)
    with pytest.raises(DimensionError):
        ge.rnn_scan(w_rec, w_in, t.leaf(np.asarray(1.0)), [[0, 1]], True)


def per_column_bptt(t, node, g):
    """Gradients of an rnn_scan node's (w_rec, w_in, bias) for the cotangent
    g, by the per-column backpropagation through time the node's backward
    ran inline before it called `rnn_step_adjoint`."""
    iw, ii, _ = t.inputs[node.idx]
    cols, rows, bounds, tokens, states, acts, normalized = t.aux[node.idx]
    w_rec = t.values[iw]
    g = np.array(g, dtype=np.float64)
    dpre = np.empty(acts.shape)
    for step in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[step], bounds[step + 1]
        live, a = rows[lo:hi], acts[lo:hi]
        d = ge._unit_dx(g[live], *ge.unit_kernel(a)) if normalized else g[live]
        d *= 1.0 - a * a
        dpre[lo:hi] = d
        g[live] = d @ w_rec
    onehot = np.equal.outer(np.arange(t.values[ii].shape[0]), tokens).astype(np.float64)
    return dpre.T @ states[cols, rows], onehot @ dpre, dpre.sum(axis=0)


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("n, vocab", [(32, 6), (128, 45)], ids=["s3", "binding"])
def test_rnn_scan_backward_steps_through_rnn_step_adjoint_bit_for_bit(normalized, n, vocab,
                                                                      monkeypatch):
    gen = tc.RngState(17).generator()
    lengths = np.concatenate([[1, 30], gen.integers(1, 31, 14)])
    ids = np.full((16, 30), ge.IDENTITY_STEP)
    for row, length in enumerate(lengths):
        ids[row, 30 - length:] = gen.integers(0, vocab, length)
    calls = []
    adjoint = ge.rnn_step_adjoint
    monkeypatch.setattr(ge, "rnn_step_adjoint", lambda *a: calls.append(1) or adjoint(*a))
    t = ge.Tape()
    w_rec = t.leaf(tc.mat_exp(tc.skew(0.2 * gen.standard_normal((n, n)))))
    w_in, bias = t.leaf(gen.standard_normal((vocab, n))), t.leaf(0.1 * gen.standard_normal(n))
    out = ge.rnn_scan(w_rec, w_in, bias, ids, normalized)
    g = gen.standard_normal(out.value.shape)
    grads = t.vjp(out, g)
    assert len(calls) == 30     # one step adjoint per column
    for leaf, ref in zip((w_rec, w_in, bias), per_column_bptt(t, out, g)):
        assert np.array_equal(grads[leaf.idx], ref)


# ---------------------------------------------------------------- grad_check harness


def test_grad_check_quadratic_is_exact():
    def build(tape, lv):
        return softplus_sum(dot(lv["x"], lv["x"]))

    err = ge.grad_check(build, ge.ParamStore({"x": np.arange(1.0, 10.0)[None]}), eps=1e-5)
    assert err < 1e-9


def test_grad_check_floor_passes_exact_zero_but_not_a_wrong_gradient():
    # z enters the loss as a constant leaf, so its tape gradient is exactly 0;
    # its true derivative is c. Below the noise floor that agrees, above not.
    def store():
        return ge.ParamStore({"w": np.array([[1.0, -0.5]]), "z": np.array([[0.25]])})

    # The loss is softplus(w . w) + softplus(c z): z's true derivative is
    # c sigmoid(c z), about c / 2.
    def check(c):
        def build(tape, lv):
            detached = tape.leaf(lv["z"].value.copy())
            return softplus_sum(dot(lv["w"], lv["w"])) \
                + softplus_sum(dot(detached, tape.leaf(np.array([[c]]))))
        return ge.grad_check(build, store(), eps=1e-6)

    loss = math.log1p(math.exp(1.25)) + math.log(2.0)
    floor = ge._FD_NOISE_ULPS * np.finfo(np.float64).eps * loss / 1e-6
    assert check(0.0) < 1e-9
    assert check(floor / 100) < 1e-9
    assert check(8 * floor) > 0.5


def test_grad_check_eps_bounds():
    with pytest.raises(ArgumentError):
        ge.grad_check(lambda t, lv: softplus_sum(lv["x"]), ge.ParamStore({"x": np.ones((1, 3))}),
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
    assert np.allclose(store.params["w"], expected, rtol=0, atol=1e-9)


def test_adam_updates_the_arrays_the_store_was_given():
    # experiments.train reads the trained model back from its own arrays
    w = np.zeros(3)
    store = ge.ParamStore({"w": w})
    ge.adam_step(store, {"w": np.ones(3)}, lr=0.1)
    assert store.params["w"] is w and np.all(w < 0)


def test_adam_quadratic_descent():
    store = ge.ParamStore({"p": np.array([0.0])})
    losses = []
    for _ in range(100):
        p = store.params["p"][0]
        losses.append((p - 3.0) ** 2)
        ge.adam_step(store, {"p": np.array([2.0 * (p - 3.0)])}, lr=1e-2)
    for a, b in zip(losses[5:], losses[6:]):
        assert b < a


def test_adam_step_matches_the_reference_expression_bit_for_bit():
    gen = tc.RngState(16).generator()
    p0 = gen.standard_normal((4, 3))
    store = ge.ParamStore({"w": p0})
    p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = gen.standard_normal(p0.shape)
        ge.adam_step(store, {"w": g}, lr, beta1, beta2, eps)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
        assert np.array_equal(store.params["w"], p)
        assert np.array_equal(store.m["w"], m) and np.array_equal(store.v["w"], v)


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
