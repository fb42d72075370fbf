"""Hot numeric kernels, written in numpy.

Two inner loops dominate runtime in this package: full-batch iRprop⁻
training of the shallow networks (a hundred fits per ensemble, and more in
the stage report's folds) and the neighbor accumulation loop of the
relief-style feature ranker.  The kernels start no threads of their own;
BLAS threads are left at the library's default.

``mlp_train`` is iRprop⁻ (Igel & Hüsken 2000, *Improving the Rprop learning
algorithm*).  Each parameter moves by its own step against the sign of its
gradient.  The step starts at ``DELTA0`` = 0.001; it grows by ``ETA_PLUS`` =
1.2, up to ``DELTA_MAX`` = 0.05, when the gradient keeps its sign from the
last epoch, and shrinks by ``ETA_MINUS`` = 0.5, down to ``DELTA_MIN`` =
1e-6, when the sign changes.  The "⁻" rule: after a sign change the
gradient is taken as zero, so that parameter does not move this epoch and
its step is left alone the next.  A step never exceeds ``DELTA_MAX``, so a
finite loss cannot run away; the non-finite status remains for data whose
loss overflows.

The networks are tiny (tens to a couple of hundred rows, 5 to 30 hidden
units), so an epoch costs more in numpy call dispatch than in arithmetic.
``mlp_train`` therefore fuses each epoch into 28 numpy calls, 27 in the first
epoch and without a shard, each writing into a buffer allocated once per call
and passed positionally.  The numpy functions, and the ``dot`` method of
each product's left operand, are bound to local names, and the scalars are
held as 0-d arrays, which a ufunc takes faster than Python floats.  The four
parameter arrays are views into one flat vector, and the gradients, the
steps, this epoch's and the last epoch's gradient signs are vectors of the
same layout, so each iRprop⁻ operation is one call over every parameter;
the two sign vectors swap roles after each update.  Every step is clipped to
[``DELTA_MIN``, ``DELTA_MAX``] after each epoch, which for a ``delta0`` in
that range is the same as clipping only the steps that grew or shrank.

BLAS also does the hidden layer's bias work.  The inputs get a ones column
once per call, ``X1 = [[X; Xv] | 1]``, and since ``b1`` follows the rows of
``W1`` in the flat vector, ``[W1; b1]`` is one view.  One matrix product
``X1 @ [W1; b1]`` over the stacked fit and shard rows then serves both this
epoch's gradient and the early-stopping check of the previous update, and one
``X1[:n].T @ dZ1`` writes the gradients of ``W1`` and ``b1`` together.  The
back-propagated error starts as a rank-1 matrix product of the output error
column and the ``w2`` row.

The output layer stays two matrix-vector products, one over the fit rows and
one over the shard: on OpenBLAS a single product over the stacked rows rounds
differently for many shapes, while the stacked hidden-layer product gives the
same bits as two separate ones.  The two products write into views ``err =
E[:n]`` and ``verr = E[n:]`` of one error vector, so adding ``b2``,
subtracting the stacked targets ``[y; yv]`` and squaring are one call each
for both sides.  The shard loss sums ``E[n:]``'s squares and the training
loss ``E[:n]``'s, each on its own, so a non-finite shard never reaches the
training loss.

Against a plain loop that keeps one array per parameter, computes
``X @ W1 + b1``, ``X.T @ dZ1`` and ``dZ1.sum(axis=0)`` and applies the
iRprop⁻ rule array by array (``tests/test_kernels.py``), the folded products
round the same for 2 to 14 input features on OpenBLAS 0.3.31, so training
there is bit-identical.  With one feature the gradient product, with 15 or
more features the forward product for many shapes, and with a single fit
row (where the plain loop's products are matrix-vector ones) the forward
product differ in the last bits.  A step follows only the gradient's sign,
so in every such shape tested the parameters and epoch counts are still
bit-identical and only the recorded losses differ, by about 1e-11 relative.

``mlp_forward`` (scoring, training error, last early-stopping check) calls
no BLAS, whose kernel and thread split follow the row count.  Hidden unit j
starts from ``b1[j]``, adds ``W1[k, j] * x_k`` over the inputs in order, then
``tanh``; the output adds ``w2[j] * z_j`` over the units in order, then ``b2``.
All elementwise, so a row's bits do not depend on the other rows.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Shallow network: one tanh hidden layer, identity output, MSE loss.
# ---------------------------------------------------------------------------

def mlp_forward(X, W1, b1, w2, b2):
    Z = np.repeat(b1[:, None], X.shape[0], axis=1)  # a row per hidden unit
    term = np.empty_like(Z)
    for W1k, x in zip(W1, X.T.copy()):
        np.add(Z, np.multiply(W1k[:, None], x, out=term), out=Z)
    np.multiply(np.tanh(Z, out=Z), w2[:, None], out=Z)
    for z in Z[1:]:
        np.add(Z[0], z, out=Z[0])
    return Z[0] + b2


# iRprop⁻ (Igel & Hüsken 2000): each parameter's first step, the bounds on
# its step, and the factors that grow and shrink it.
DELTA0 = 0.001
DELTA_MAX = 0.05
DELTA_MIN = 1e-6
ETA_PLUS = 1.2
ETA_MINUS = 0.5


def _views(buf, f, h):
    # W1, b1, w2 and b2 as views into one flat vector of f*h + 2*h + 1 values.
    return (buf[:f * h].reshape(f, h), buf[f * h:f * h + h],
            buf[f * h + h:f * h + 2 * h], buf[f * h + 2 * h:])


def mlp_train(X, y, Xv, yv, W1, b1, w2, b2, delta0, max_epochs, patience):
    """Full-batch iRprop⁻ training with optional early stopping.

    Every parameter starts with the step ``delta0`` (``DELTA0`` when
    ``fit_mlp`` calls this), which must lie in [``DELTA_MIN``,
    ``DELTA_MAX``].  ``Xv``/``yv`` hold the held-out shard; pass zero rows
    to disable early stopping and run all epochs.  Returns the trained
    parameters, the per-epoch training losses, the number of epochs run,
    and a status flag (0 ok, -1 the loss went non-finite at the last
    recorded epoch).  When early stopping is active the parameters with the
    best shard loss are restored at the end.

    The shard rows of epoch ``e``'s hidden-layer pass check the update made
    in epoch ``e - 1``, before epoch ``e`` records its loss; a trailing check
    after the last epoch covers the final update.
    """
    n, f = X.shape
    nv = Xv.shape[0]
    h = W1.shape[1]
    tanh, add, multiply, subtract = np.tanh, np.add, np.multiply, np.subtract
    sign, greater, less = np.sign, np.greater, np.less
    minimum, maximum = np.minimum, np.maximum
    add_reduce, isfinite = np.add.reduce, math.isfinite
    theta = np.concatenate((np.ravel(W1), b1, w2, [b2]))
    grad = np.empty_like(theta)
    tW1, tb1, tw2, tb2 = _views(theta, f, h)
    gw2, gb2 = _views(grad, f, h)[2:]
    # [W1; b1] and its gradient, to multiply against the ones column.
    W1b = theta[:(f + 1) * h].reshape(f + 1, h)
    gW1b = grad[:(f + 1) * h].reshape(f + 1, h)
    w2_row = tw2[None, :]
    # The iRprop⁻ state, in theta's layout: each parameter's step, the sign
    # of this epoch's gradient and of the last one applied, their product,
    # where that product is positive or negative, and the move.
    step = np.full_like(theta, delta0)
    sgn = np.empty_like(theta)
    last = np.zeros_like(theta)
    agree = np.empty_like(theta)
    grow = np.empty(theta.shape, dtype=bool)
    shrink = np.empty(theta.shape, dtype=bool)
    move = np.empty_like(theta)
    # Scalars as 0-d arrays: a ufunc takes them faster than Python floats.
    b2_0d = tb2.reshape(())
    one, two_by_n, zero = np.array(1.0), np.array(2.0 / n), np.array(0.0)
    eta_plus, eta_minus = np.array(ETA_PLUS), np.array(ETA_MINUS)
    step_max, step_min = np.array(DELTA_MAX), np.array(DELTA_MIN)
    use_val = nv > 0
    X1 = np.ones((n + nv, f + 1))
    X1[:n, :f] = X
    X1[n:, :f] = Xv
    Z = np.empty((n + nv, h))
    A1, Av = Z[:n], Z[n:]
    # Output errors and their squares, fit rows then shard rows.
    Y = np.concatenate((y, yv))
    E = np.empty(n + nv)
    SQ = np.empty(n + nv)
    err, verr = E[:n], E[n:]
    fit_sq, val_sq = SQ[:n], SQ[n:]
    dout = np.empty(n)
    dZ1 = np.empty((n, h))
    slope = np.empty((n, h))
    # Each matrix product's left operand is fixed for the call, so its bound
    # ``dot`` method is taken once: ``X1_dot(W1b, Z)`` is ``Z = X1 @ W1b``.
    X1_dot, A1_dot, Av_dot = X1.dot, A1.dot, Av.dot
    A1_T_dot, X1_fit_T_dot = A1.T.dot, X1[:n].T.dot
    dout_col_dot = dout[:, None].dot
    best = theta.copy()
    best_val = np.inf
    bad = 0
    losses = np.empty(max_epochs)
    n_run = 0
    for epoch in range(max_epochs):
        X1_dot(W1b, Z)
        tanh(Z, Z)
        A1_dot(tw2, err)
        Av_dot(tw2, verr)
        add(E, b2_0d, E)
        subtract(E, Y, E)
        multiply(E, E, SQ)
        if use_val and epoch:
            vloss = add_reduce(val_sq) / nv
            if vloss < best_val:
                best_val = vloss
                best[:] = theta
                bad = 0
            else:
                bad += 1
                if bad >= patience:
                    break
        loss = add_reduce(fit_sq) / n
        losses[epoch] = loss
        n_run = epoch + 1
        if not isfinite(loss):
            return tW1, tb1, tw2, theta[-1], losses[:n_run], n_run, -1
        multiply(err, two_by_n, dout)
        A1_T_dot(dout, gw2)
        gb2[0] = add_reduce(dout)
        multiply(A1, A1, slope)
        subtract(one, slope, slope)
        dout_col_dot(w2_row, dZ1)
        multiply(dZ1, slope, dZ1)
        X1_fit_T_dot(dZ1, gW1b)
        sign(grad, sgn)
        multiply(sgn, last, agree)
        greater(agree, zero, grow)
        less(agree, zero, shrink)
        multiply(step, eta_plus, step, where=grow)
        multiply(step, eta_minus, step, where=shrink)
        minimum(step, step_max, out=step)
        maximum(step, step_min, out=step)
        # The "⁻" rule: a parameter whose gradient changed sign stays put.
        multiply(sgn, zero, sgn, where=shrink)
        subtract(theta, multiply(sgn, step, move), theta)
        sgn, last = last, sgn
    else:
        if use_val:
            verr = mlp_forward(Xv, tW1, tb1, tw2, tb2) - yv
            if add_reduce(verr * verr) / nv < best_val:
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
