"""Hot numeric kernels, written in numpy.

Two inner loops dominate runtime in this package: full-batch gradient-descent
training of the shallow networks (thousands of fits during pool training,
per-fold retraining, and repeated stability runs) and the neighbor
accumulation loop of the relief-style feature ranker.  The kernels start no
threads of their own; BLAS threads are left at the library's default.

The networks are tiny (tens to a couple of hundred rows, 5 to 30 hidden
units), so an epoch costs more in numpy call dispatch than in arithmetic.
``mlp_train`` therefore fuses each epoch.  The four parameter arrays are views
into one flat vector, the gradients are written into views of a second one
with the same layout, and the update is a single ``theta -= lr * grad``.

BLAS also does the hidden layer's bias work.  The inputs get a ones column
once per call, ``X1 = [[X; Xv] | 1]``, and since ``b1`` follows the rows of
``W1`` in the flat vector, ``[W1; b1]`` is one view.  One matrix product
``X1 @ [W1; b1]`` over the stacked fit and shard rows then serves both this
epoch's gradient and the early-stopping check of the previous update, and one
``X1[:n].T @ dZ1`` writes the gradients of ``W1`` and ``b1`` together.  The
back-propagated error starts as a rank-1 matrix product of the output error
column and the ``w2`` row.  Temporaries go into buffers allocated once per
call.

The output layer stays two matrix-vector products, one over the fit rows and
one over the shard: on OpenBLAS a single product over the stacked rows rounds
differently for many shapes, while the stacked hidden-layer product gives the
same bits as two separate ones.  The folded products round as the plain
per-epoch loop's ``X @ W1 + b1``, ``X.T @ dZ1`` and ``dZ1.sum(axis=0)`` did
for 2 to 14 input features on OpenBLAS 0.3.31, so training there is
bit-identical to that loop.  With one feature the gradient product, and
with 15 or more features the forward product for about half of the shapes,
differ in the last bits; over a few hundred epochs that moves the parameters
by less than 1e-10 relative, with the same epoch count.
``tests/test_kernels.py`` keeps the plain loop as the reference and checks
both ranges.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Shallow network: one tanh hidden layer, identity output, MSE loss.
# ---------------------------------------------------------------------------

def mlp_forward(X, W1, b1, w2, b2):
    A1 = np.tanh(np.dot(X, W1) + b1)
    return np.dot(A1, w2) + b2


def _views(buf, f, h):
    # W1, b1, w2 and b2 as views into one flat vector of f*h + 2*h + 1 values.
    return (buf[:f * h].reshape(f, h), buf[f * h:f * h + h],
            buf[f * h + h:f * h + 2 * h], buf[f * h + 2 * h:])


def mlp_train(X, y, Xv, yv, W1, b1, w2, b2, lr, max_epochs, patience):
    """Full-batch gradient descent with optional early stopping.

    ``Xv``/``yv`` hold the held-out shard; pass zero rows to disable early
    stopping and run all epochs.  Returns the trained parameters, the
    per-epoch training losses, the number of epochs run, and a status flag
    (0 ok, -1 the loss went non-finite at the last recorded epoch).
    When early stopping is active the parameters with the best shard loss
    are restored at the end.

    The shard rows of epoch ``e``'s hidden-layer pass check the update made
    in epoch ``e - 1``, before epoch ``e`` records its loss; a trailing check
    after the last epoch covers the final update.
    """
    n, f = X.shape
    nv = Xv.shape[0]
    h = W1.shape[1]
    theta = np.concatenate((np.ravel(W1), b1, w2, [b2]))
    grad = np.empty_like(theta)
    step = np.empty_like(theta)
    tW1, tb1, tw2, tb2 = _views(theta, f, h)
    gw2, gb2 = _views(grad, f, h)[2:]
    # [W1; b1] and its gradient, to multiply against the ones column.
    W1b = theta[:(f + 1) * h].reshape(f + 1, h)
    gW1b = grad[:(f + 1) * h].reshape(f + 1, h)
    w2_row = tw2[None, :]
    use_val = nv > 0
    X1 = np.ones((n + nv, f + 1))
    X1[:n, :f] = X
    X1[n:, :f] = Xv
    X1_fit_T = X1[:n].T
    Z = np.empty((n + nv, h))
    A1, Av = Z[:n], Z[n:]
    err = np.empty(n)
    sq = np.empty(n)
    verr = np.empty(nv)
    vsq = np.empty(nv)
    dout = np.empty(n)
    dout_col = dout[:, None]
    dZ1 = np.empty((n, h))
    slope = np.empty((n, h))
    best = theta.copy()
    best_val = np.inf
    bad = 0
    losses = np.empty(max_epochs)
    n_run = 0
    for epoch in range(max_epochs):
        np.dot(X1, W1b, out=Z)
        np.tanh(Z, out=Z)
        if use_val and epoch:
            np.dot(Av, tw2, out=verr)
            verr += tb2
            verr -= yv
            vloss = np.add.reduce(np.multiply(verr, verr, out=vsq)) / nv
            if vloss < best_val:
                best_val = vloss
                best[:] = theta
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    break
        np.dot(A1, tw2, out=err)
        err += tb2
        err -= y
        loss = np.add.reduce(np.multiply(err, err, out=sq)) / n
        losses[epoch] = loss
        n_run = epoch + 1
        if not math.isfinite(loss):
            return tW1, tb1, tw2, theta[-1], losses[:n_run], n_run, -1
        np.multiply(err, 2.0 / n, out=dout)
        np.dot(A1.T, dout, out=gw2)
        gb2[0] = np.add.reduce(dout)
        np.multiply(A1, A1, out=slope)
        np.subtract(1.0, slope, out=slope)
        np.dot(dout_col, w2_row, out=dZ1)
        dZ1 *= slope
        np.dot(X1_fit_T, dZ1, out=gW1b)
        theta -= np.multiply(grad, lr, out=step)
    else:
        if use_val:
            verr = mlp_forward(Xv, tW1, tb1, tw2, tb2) - yv
            if np.add.reduce(verr * verr) / nv < best_val:
                best[:] = theta
    out = best if use_val else theta
    return *_views(out, f, h)[:3], out[-1], losses[:n_run], n_run, 0


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
