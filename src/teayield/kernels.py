"""Hot numeric kernels, written in numpy.

Two inner loops dominate runtime in this package: full-batch gradient-descent
training of the shallow networks (thousands of fits during pool training,
per-fold retraining, and repeated stability runs) and the neighbor
accumulation loop of the relief-style feature ranker.  The kernels start no
threads of their own; BLAS threads are left at the library's default.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Shallow network: one tanh hidden layer, identity output, MSE loss.
# ---------------------------------------------------------------------------

def mlp_forward(X, W1, b1, w2, b2):
    A1 = np.tanh(np.dot(X, W1) + b1)
    return np.dot(A1, w2) + b2


def mlp_loss_grads(X, y, W1, b1, w2, b2):
    # Mean-squared-error loss and its exact gradients via backpropagation.
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


def mlp_train(X, y, Xv, yv, W1, b1, w2, b2, lr, max_epochs, patience):
    """Full-batch gradient descent with optional early stopping.

    ``Xv``/``yv`` hold the held-out shard; pass zero rows to disable early
    stopping and run all epochs.  Returns the trained parameters, the
    per-epoch training losses, the number of epochs run, and a status flag
    (0 ok, -1 the loss went non-finite at the last recorded epoch).
    When early stopping is active the parameters with the best shard loss
    are restored at the end.
    """
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
        loss, gW1, gb1, gw2, gb2 = mlp_loss_grads(X, y, W1, b1, w2, b2s)
        losses[epoch] = loss
        n_run = epoch + 1
        if not np.isfinite(loss):
            return W1, b1, w2, b2s, losses[:n_run], n_run, -1
        W1 -= lr * gW1
        b1 -= lr * gb1
        w2 -= lr * gw2
        b2s -= lr * gb2
        if use_val:
            verr = mlp_forward(Xv, W1, b1, w2, b2s) - yv
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


# ---------------------------------------------------------------------------
# Relief-style accumulation for regression.
# ---------------------------------------------------------------------------

def relief_accumulate(Xn, yn, sample_idx, k, rank_w):
    """Accumulate the three relief statistics over sampled instances.

    ``Xn`` and ``yn`` are range-normalized, so per-feature value diffs and
    the target diff are already in [0, 1] and the Manhattan distance is the
    plain sum of feature diffs.  ``rank_w`` holds the k neighbor influence
    weights (summing to 1).  Distance ties resolve toward the lower row
    index (a stable sort), and neighbors are added nearest first, so the
    sums are accumulated in a fixed order.
    """
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
