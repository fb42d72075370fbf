"""The fused iRprop⁻ training epoch against a plain per-epoch loop.

``reference_mlp_train`` is iRprop⁻ written out one parameter array at a
time: ``reference_loss_grads`` computes the loss and the gradients with the
hidden bias added and summed on its own, each array keeps its own steps and
its last gradient, zeroed where the sign changed, and a separate forward
pass scores the early-stopping shard after every update.  The fused kernel
folds the bias into its matrix products through a ones column on the inputs.
With 2 to 14 input features those products round as the plain loop's do on
OpenBLAS 0.3.31, so parameters, losses, epoch counts and status must match
bit for bit.  Outside that range, and with a single fit row, the losses may
differ in the last bits and must agree to ``rtol=1e-9``; a step follows the
gradient's sign alone, so the parameters, epoch counts and status must still
match exactly.

The forward pass must follow its documented order bit for bit, and the
relief accumulation, which reuses one distance buffer, must give the bits
of the loop that allocates afresh for every instance.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from teayield import kernels
from teayield.pipeline import train_ensemble_pipeline
from teayield.serialize import model_to_json

from conftest import tiny_config


def reference_loss_grads(X, y, W1, b1, w2, b2):
    n = X.shape[0]
    A1 = np.tanh(np.dot(X, W1) + b1)
    err = np.dot(A1, w2) + b2 - y
    loss = (err * err).mean()
    dout = (2.0 / n) * err
    gw2 = np.dot(A1.T, dout)
    gb2 = dout.sum()
    dZ1 = np.outer(dout, w2) * (1.0 - A1 * A1)
    gW1 = np.dot(X.T, dZ1)
    gb1 = dZ1.sum(axis=0)
    return loss, gW1, gb1, gw2, gb2


def reference_mlp_train(X, y, Xv, yv, W1, b1, w2, b2, delta0, max_epochs,
                        patience):
    # One array per parameter, b2 as a 0-d array; each keeps its own steps
    # and the last gradient applied, zeroed where its sign changed.
    params = [W1.copy(), b1.copy(), w2.copy(), np.array(float(b2))]
    steps = [np.full_like(p, delta0) for p in params]
    lasts = [np.zeros_like(p) for p in params]
    use_val = Xv.shape[0] > 0
    best = [p.copy() for p in params]
    best_val = np.inf
    bad = 0
    losses = np.empty(max_epochs)
    n_run = 0
    for epoch in range(max_epochs):
        loss, *grads = reference_loss_grads(X, y, *params[:3],
                                            float(params[3]))
        losses[epoch] = loss
        n_run = epoch + 1
        if not np.isfinite(loss):
            return (*params[:3], float(params[3]), losses[:n_run], n_run, -1)
        for p, g, d, last in zip(params, grads, steps, lasts):
            g = np.array(g, dtype=np.float64)
            agree = np.sign(g) * np.sign(last)
            d[agree > 0] = np.minimum(d[agree > 0] * kernels.ETA_PLUS,
                                      kernels.DELTA_MAX)
            d[agree < 0] = np.maximum(d[agree < 0] * kernels.ETA_MINUS,
                                      kernels.DELTA_MIN)
            g[agree < 0] = 0.0
            p -= np.sign(g) * d
            last[...] = g
        if use_val:
            verr = kernels.mlp_forward(Xv, *params[:3], float(params[3])) - yv
            vloss = (verr * verr).mean()
            if vloss < best_val:
                best_val = vloss
                for keep, p in zip(best, params):
                    keep[...] = p
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    break
    out = best if use_val else params
    return (*out[:3], float(out[3]), losses[:n_run], n_run, 0)


def make_problem(seed, n, nv, f, h):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n + nv, f))
    y = np.tanh(X @ rng.normal(size=f)) + 0.3 * rng.normal(size=n + nv)
    X, Xv, y, yv = X[:n], X[n:], y[:n], y[n:]
    lim1, lim2 = 1.0 / np.sqrt(f), 1.0 / np.sqrt(h)
    return (X, y, Xv, yv, rng.uniform(-lim1, lim1, (f, h)), np.zeros(h),
            rng.uniform(-lim2, lim2, h), 0.0)


def assert_same_run(problem, delta0, max_epochs, patience):
    got = kernels.mlp_train(*problem, delta0, max_epochs, patience)
    want = reference_mlp_train(*problem, delta0, max_epochs, patience)
    for g, w in zip(got[:5], want[:5]):
        np.testing.assert_array_equal(np.asarray(g), np.asarray(w))
    assert got[5:] == want[5:]
    return got


def assert_close_run(problem, delta0, max_epochs, patience):
    got = kernels.mlp_train(*problem, delta0, max_epochs, patience)
    want = reference_mlp_train(*problem, delta0, max_epochs, patience)
    for g, w in zip(got[:4], want[:4]):
        np.testing.assert_array_equal(np.asarray(g), np.asarray(w))
    np.testing.assert_allclose(got[4], want[4], rtol=1e-9)
    assert got[5:] == want[5:]


def stacked_output_changes_bits(problem):
    # True when one output-layer product over the stacked [X; Xv] rows rounds
    # differently from the two products over the fit rows and the shard, at
    # the problem's initial parameters.
    X, _, Xv, _, W1, b1, w2, _ = problem
    A = np.tanh(np.concatenate((X, Xv)) @ W1 + b1)
    n = X.shape[0]
    return not np.array_equal(A @ w2, np.concatenate((A[:n] @ w2, A[n:] @ w2)))


def test_no_shard_runs_every_epoch():
    problem = make_problem(0, 40, 0, 4, 7)
    _, _, _, _, losses, epochs, status = assert_same_run(problem, 0.05, 300, 5)
    assert (epochs, status, len(losses)) == (300, 0, 300)


@pytest.mark.parametrize("delta0", [kernels.DELTA_MIN, kernels.DELTA0,
                                    kernels.DELTA_MAX])
def test_steps_grow_and_shrink_within_their_bounds(delta0):
    """From either bound and from ``DELTA0``, 300 epochs in which steps
    grow, shrink and reach both bounds run as the reference does."""
    problem = make_problem(7, 40, 0, 4, 7)
    assert_same_run(problem, delta0, 300, 5)


def test_early_stop_fires():
    problem = make_problem(1, 30, 8, 5, 12)
    _, _, _, _, _, epochs, status = assert_same_run(problem, kernels.DELTA0,
                                                    3000, 10)
    assert status == 0 and epochs < 3000


def test_max_epochs_with_shard_uses_the_trailing_check():
    # The shard loss is still falling at the last epoch, so only the check
    # after the final update can choose the final parameters.
    problem = make_problem(3, 50, 10, 3, 6)
    got = assert_same_run(problem, kernels.DELTA0, 40, 1000)
    assert got[5] == 40
    ref_one_less = reference_mlp_train(*problem, kernels.DELTA0, 39, 1000)
    assert not np.array_equal(got[0], ref_one_less[0])


def test_patience_one():
    problem = make_problem(3, 25, 6, 4, 9)
    _, _, _, _, _, epochs, status = assert_same_run(problem, kernels.DELTA0,
                                                    2000, 1)
    assert status == 0 and epochs < 2000


def test_divergence_keeps_the_non_finite_loss():
    """Steps of at most ``DELTA_MAX`` cannot carry a finite loss to
    overflow, so here targets of 1e200 overflow it at the first epoch."""
    X, y, Xv, yv, *params = make_problem(4, 20, 5, 3, 8)
    problem = (X, y * 1e200, Xv, yv, *params)
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, _, losses, epochs, status = assert_same_run(
            problem, kernels.DELTA0, 500, 500)
    assert status == -1
    assert len(losses) == epochs and not np.isfinite(losses[-1])


@pytest.mark.parametrize("n,nv,f,h", [
    (77, 14, 6, 5), (102, 18, 9, 12), (153, 27, 4, 30), (184, 33, 11, 17),
    (92, 16, 2, 17), (130, 23, 14, 9), (40, 1, 5, 9),
    # canonical-train: its pool and fold-refit splits, 6 selected features
    (83, 15, 6, 5), (83, 15, 6, 16), (83, 15, 6, 30),
    (92, 16, 6, 5), (92, 16, 6, 16), (92, 16, 6, 30)])
def test_workload_shapes(n, nv, f, h):
    problem = make_problem(n * h, n, nv, f, h)
    assert_same_run(problem, kernels.DELTA0, 400, 20)


@pytest.mark.parametrize("nv", [0, 16])
@pytest.mark.parametrize("f", [1, 16, 28])
def test_feature_counts_outside_the_bit_identical_range(f, nv):
    problem = make_problem(f + nv, 92, nv, f, 17)
    assert_close_run(problem, kernels.DELTA0, 300, 20)


def test_a_shape_where_a_stacked_output_product_changes_bits():
    rng = np.random.default_rng(5)
    for seed in range(200):
        n = int(rng.integers(77, 185))
        nv = int(rng.integers(14, 34))
        h = int(rng.integers(5, 31))
        problem = make_problem(seed, n, nv, 6, h)
        if stacked_output_changes_bits(problem):
            break
    else:
        pytest.fail("no workload-sized shape where stacking the output layer "
                    "rounds differently")
    assert_same_run(problem, kernels.DELTA0, 300, 20)


@pytest.mark.parametrize("nv", [1, 6])
def test_one_fit_row(nv):
    """With one fit row the plain loop's products are matrix-vector
    products, which OpenBLAS rounds differently from the kernel's matrix
    products, so the losses' last bits may differ."""
    problem = make_problem(43 + nv, 1, nv, 5, 9)
    assert_close_run(problem, kernels.DELTA0, 300, 20)


@pytest.mark.parametrize("spoil", ["inf", "nan"])
def test_a_non_finite_shard_loss_leaves_the_fit_loss_alone(spoil):
    """The shard's errors share a buffer with the fit rows' errors; an
    infinite or NaN shard loss must not reach the fit loss, and it never
    counts as an improvement, so training stops after ``patience`` epochs
    with the starting parameters."""
    X, y, Xv, yv, *params = make_problem(6, 30, 8, 4, 7)
    if spoil == "inf":
        yv = np.full_like(yv, 1e200)
    else:
        Xv = Xv.copy()
        Xv[3, 1] = np.nan
    problem = (X, y, Xv, yv, *params)
    with np.errstate(over="ignore", invalid="ignore"):
        W1, b1, w2, b2, losses, epochs, status = assert_same_run(
            problem, kernels.DELTA0, 500, 12)
    assert (epochs, status) == (12, 0)
    assert np.all(np.isfinite(losses))
    np.testing.assert_array_equal(W1, params[0])
    assert b2 == params[3]


@pytest.mark.parametrize("pool", [3, 12])
def test_trained_model_is_the_reference_loops_model(canonical_raw, monkeypatch,
                                                    pool):
    """End to end, whatever BLAS gives: the shipped kernel and the plain
    loop train the same model file."""
    cfg = tiny_config()
    cfg = replace(cfg, ensemble=replace(cfg.ensemble, pool_size=pool))
    shipped = model_to_json(train_ensemble_pipeline(canonical_raw, cfg).model)
    monkeypatch.setattr(kernels, "mlp_train", reference_mlp_train)
    reference = model_to_json(train_ensemble_pipeline(canonical_raw, cfg).model)
    assert shipped.encode() == reference.encode()


@pytest.mark.parametrize("nv", [0, 16])
def test_peak_memory_grows_only_by_the_losses_buffer(nv):
    """No epoch keeps an allocation alive: past the ``losses`` buffer, 8
    bytes an epoch, the peak memory of a call does not grow with the number
    of epochs run."""
    problem = make_problem(nv, 92, nv, 6, 16)

    def peak(epochs):
        tracemalloc.start()
        try:
            out = kernels.mlp_train(*problem, kernels.DELTA0, epochs,
                                    epochs + 1)
            return tracemalloc.get_traced_memory()[1], out[5]
        finally:
            tracemalloc.stop()

    (short, run_short), (long, run_long) = peak(200), peak(2000)
    assert (run_short, run_long) == (200, 2000)
    assert long - short <= 8 * (2000 - 200) + 512


def reference_forward_row(x, W1, b1, w2, b2):
    """One row through the order ``kernels.mlp_forward`` documents, one
    float at a time."""
    z = [np.tanh(sum((W1[k, j] * x[k] for k in range(len(x))), start=b1[j]))
         for j in range(len(b1))]
    out = w2[0] * z[0]
    for j in range(1, len(z)):
        out += w2[j] * z[j]
    return out + b2


@pytest.mark.parametrize("n,f,h", [(1, 1, 5), (7, 8, 30), (33, 14, 17),
                                   (1, 11, 30), (2048, 11, 30), (2048, 6, 5),
                                   (5000, 4, 30), (5000, 11, 5)])
def test_forward_follows_the_documented_order(n, f, h):
    """Bit for bit with the per-row reference, and within rounding of the
    matrix-product form it replaced."""
    rng = np.random.default_rng(n * f * h)
    X, W1 = rng.normal(size=(n, f)), rng.normal(size=(f, h))
    b1, w2, b2 = rng.normal(size=h), rng.normal(size=h), float(rng.normal())
    got = kernels.mlp_forward(X, W1, b1, w2, b2)
    want = [reference_forward_row(x, W1, b1, w2, b2) for x in X]
    assert got.tobytes() == np.array(want).tobytes()
    np.testing.assert_allclose(got, np.tanh(X @ W1 + b1) @ w2 + b2,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [120, 2048, 5000])
@pytest.mark.parametrize("h", [5, 30])
def test_forward_peak_memory_does_not_grow_with_the_width(n, h):
    """Past the inputs' transposed copy and the output row, a call holds
    the activations of ``UNIT_ROWS`` values and the terms it adds to them,
    whatever the number of hidden units, with room for as much again."""
    f = 11
    rng = np.random.default_rng(n + h)
    X, W1 = rng.normal(size=(n, f)), rng.normal(size=(f, h))
    b1, w2 = rng.normal(size=h), rng.normal(size=h)
    tracemalloc.start()
    try:
        kernels.mlp_forward(X, W1, b1, w2, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n * f + n + 4 * kernels.UNIT_ROWS)


def reference_relief_accumulate(Xn, yn, sample_idx, k, rank_w):
    """The relief accumulation with a fresh distance array per instance and
    each neighbor's feature diffs taken anew."""
    ndc = 0.0
    nda = np.zeros(Xn.shape[1])
    ndcda = np.zeros(Xn.shape[1])
    for i in sample_idx:
        dist = np.abs(Xn - Xn[i]).sum(axis=1)
        dist[i] = np.inf
        nearest = np.argsort(dist, kind="stable")[:k]
        for r in range(k):
            j = nearest[r]
            w = rank_w[r]
            dy = abs(yn[i] - yn[j])
            ndc += w * dy
            da = np.abs(Xn[i] - Xn[j])
            nda += w * da
            ndcda += w * da * dy
    return ndc, nda, ndcda


@pytest.mark.parametrize("n,f,k,ties", [(30, 4, 10, False), (30, 4, 29, False),
                                        (40, 3, 10, True), (12, 2, 11, True)])
def test_relief_accumulate_is_the_reference_loop(n, f, k, ties):
    """Bit for bit, with distances tied (values on a coarse grid, where the
    lower row index breaks each tie) and with every other row a neighbor
    (k = n - 1)."""
    rng = np.random.default_rng(n * f + k)
    X = rng.integers(0, 3, size=(n, f)) / 2.0 if ties else rng.random((n, f))
    y = rng.random(n)
    rank_w = rng.random(k)
    args = (X, y, np.arange(n), k, rank_w / rank_w.sum())
    got = kernels.relief_accumulate(*args)
    want = reference_relief_accumulate(*args)
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
