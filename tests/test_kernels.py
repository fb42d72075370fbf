"""The fused MLP training epoch against the plain per-epoch loop.

``reference_mlp_train`` and ``reference_loss_grads`` are the earlier
implementation of ``kernels.mlp_train``, kept as written: a separate forward
pass on the early-stopping shard after every update, one array per parameter,
and the hidden bias added and summed on its own.  The fused kernel folds that
bias into its matrix products through a ones column on the inputs.  With 2 to
14 input features those products round as the plain loop's did on OpenBLAS
0.3.31, so parameters, losses, epoch counts and status must match bit for
bit.  Outside that range they may differ in the last bits; there the
parameters and losses must agree to ``rtol=1e-9`` with the same epoch count
and status.
"""

from __future__ import annotations

import numpy as np
import pytest

from teayield import kernels


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


def reference_mlp_train(X, y, Xv, yv, W1, b1, w2, b2, lr, max_epochs, patience):
    W1 = W1.copy()
    b1 = b1.copy()
    w2 = w2.copy()
    b2s = b2
    use_val = Xv.shape[0] > 0
    bW1 = W1.copy()
    bb1 = b1.copy()
    bw2 = w2.copy()
    bb2 = b2s
    best_val = np.inf
    bad = 0
    losses = np.empty(max_epochs)
    n_run = 0
    for epoch in range(max_epochs):
        loss, gW1, gb1, gw2, gb2 = reference_loss_grads(X, y, W1, b1, w2, b2s)
        losses[epoch] = loss
        n_run = epoch + 1
        if not np.isfinite(loss):
            return W1, b1, w2, b2s, losses[:n_run], n_run, -1
        W1 -= lr * gW1
        b1 -= lr * gb1
        w2 -= lr * gw2
        b2s -= lr * gb2
        if use_val:
            verr = kernels.mlp_forward(Xv, W1, b1, w2, b2s) - yv
            vloss = (verr * verr).mean()
            if vloss < best_val:
                best_val = vloss
                bW1[:] = W1
                bb1[:] = b1
                bw2[:] = w2
                bb2 = b2s
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    break
    if use_val:
        return bW1, bb1, bw2, bb2, losses[:n_run], n_run, 0
    return W1, b1, w2, b2s, losses[:n_run], n_run, 0


def make_problem(seed, n, nv, f, h):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n + nv, f))
    y = np.tanh(X @ rng.normal(size=f)) + 0.3 * rng.normal(size=n + nv)
    X, Xv, y, yv = X[:n], X[n:], y[:n], y[n:]
    lim1, lim2 = 1.0 / np.sqrt(f), 1.0 / np.sqrt(h)
    return (X, y, Xv, yv, rng.uniform(-lim1, lim1, (f, h)), np.zeros(h),
            rng.uniform(-lim2, lim2, h), 0.0)


def assert_same_run(problem, lr, max_epochs, patience):
    got = kernels.mlp_train(*problem, lr, max_epochs, patience)
    want = reference_mlp_train(*problem, lr, max_epochs, patience)
    for g, w in zip(got[:5], want[:5]):
        np.testing.assert_array_equal(np.asarray(g), np.asarray(w))
    assert got[5:] == want[5:]
    return got


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


def test_early_stop_fires():
    problem = make_problem(1, 30, 8, 5, 12)
    _, _, _, _, _, epochs, status = assert_same_run(problem, 0.2, 3000, 10)
    assert status == 0 and epochs < 3000


def test_max_epochs_with_shard_uses_the_trailing_check():
    # The shard loss is still falling at the last epoch, so only the check
    # after the final update can choose the final parameters.
    problem = make_problem(2, 50, 10, 3, 6)
    got = assert_same_run(problem, 0.01, 40, 1000)
    assert got[5] == 40
    ref_one_less = reference_mlp_train(*problem, 0.01, 39, 1000)
    assert not np.array_equal(got[0], ref_one_less[0])


def test_patience_one():
    problem = make_problem(3, 25, 6, 4, 9)
    _, _, _, _, _, epochs, status = assert_same_run(problem, 0.5, 2000, 1)
    assert status == 0 and epochs < 2000


def test_divergence_keeps_the_non_finite_loss():
    problem = make_problem(4, 20, 5, 3, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, _, losses, epochs, status = assert_same_run(problem, 1e3, 500,
                                                             500)
    assert status == -1
    assert len(losses) == epochs and not np.isfinite(losses[-1])


@pytest.mark.parametrize("n,nv,f,h", [(77, 14, 6, 5), (102, 18, 9, 12),
                                      (153, 27, 4, 30), (184, 33, 11, 17),
                                      (92, 16, 2, 17), (130, 23, 14, 9)])
def test_workload_shapes(n, nv, f, h):
    problem = make_problem(n * h, n, nv, f, h)
    assert_same_run(problem, 0.05, 400, 20)


@pytest.mark.parametrize("nv", [0, 16])
@pytest.mark.parametrize("f", [1, 16, 28])
def test_feature_counts_outside_the_bit_identical_range(f, nv):
    problem = make_problem(f + nv, 92, nv, f, 17)
    got = kernels.mlp_train(*problem, 0.05, 300, 20)
    want = reference_mlp_train(*problem, 0.05, 300, 20)
    for g, w in zip(got[:5], want[:5]):
        np.testing.assert_allclose(np.asarray(g), np.asarray(w), rtol=1e-9)
    assert got[5:] == want[5:]


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
    assert_same_run(problem, 0.05, 300, 20)
