"""Independent oracles for the test suite.

These deliberately avoid the library's own code paths where they can: the
finite-difference harness is written from scratch rather than imported from
the package, and the references below spell each formula out directly.
Eigenvalues come from numpy's dense eigvalsh. The library uses the same
LAPACK solver, but on the N x N Gram matrix; the oracles apply it to the
d x d matrix X^T X + lam*I directly.
"""

import math
import struct
from pathlib import Path

import numpy as np


def dense_max_eig(a):
    return float(np.linalg.eigvalsh(a)[-1])


def central_diff_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        g[i] = (f((flat + bump).reshape(x.shape)) - f((flat - bump).reshape(x.shape))) / (2 * h)
    return g.reshape(x.shape)


def max_rel_err(analytic, reference):
    scale = max(np.max(np.abs(reference)), 1e-12)
    return float(np.max(np.abs(analytic - reference)) / scale)


def random_onehot(rng, n, c):
    labels = rng.integers(0, c, size=n)
    t = np.zeros((n, c))
    t[np.arange(n), labels] = 1.0
    return t, labels


# Reference formulations of the distillation step's pieces, written out the
# direct way: one array per intermediate, nothing cached, reused or done in
# place. The hoisted library code must match them bit for bit.


def class_rows(labels, c):
    return np.flatnonzero(labels == c)


def classes_short_of_rows(labels, class_count, k):
    """Class ids below `class_count` that fewer than k of `labels` name,
    counted one label at a time."""
    counts = [0] * class_count
    for y in labels:
        if y < class_count:
            counts[y] += 1
    return [c for c in range(class_count) if counts[c] < k]


def datasets_equal(a, b):
    """Same class count, and inputs and labels equal in shape and value."""
    return (
        a.class_count == b.class_count
        and a.inputs.shape == b.inputs.shape
        and np.array_equal(a.inputs, b.inputs)
        and np.array_equal(a.labels, b.labels)
    )


def write_clpf(path, inputs, labels, class_count, dtype="f64"):
    """Write a CLPF file from its documented layout, all little-endian: magic
    b"CLPF", u16 version 1, u16 flags (bit0 set: float64 payload), u64 n, u64
    dim, u32 class count, n u32 labels, then n x dim floats, row-major. Any
    payload is written as given, also one that no Dataset would hold."""
    inputs = np.asarray(inputs, dtype="<f8" if dtype == "f64" else "<f4")
    n, dim = inputs.shape
    header = struct.pack("<4sHHQQI", b"CLPF", 1, int(dtype == "f64"), n, dim, class_count)
    Path(path).write_bytes(header + np.asarray(labels, dtype="<u4").tobytes() + inputs.tobytes())


def floyd_balanced_picks(labels, class_count, b_per_class, rng):
    """Rows of a class-balanced batch, class by class, from one
    rng.random((C, b)) draw, and the number of draws Floyd's rule replaced.

    A class of n >= b rows runs Floyd's algorithm: draw k is
    floor(u * (n - b + k + 1)), replaced by n - b + k when already chosen. A
    smaller class draws floor(u * n), with replacement."""
    u = rng.random((class_count, b_per_class)).tolist()
    picks, clashes = [], 0
    for c in range(class_count):
        rows = np.flatnonzero(labels == c)
        n = rows.size
        chosen = []
        for k in range(b_per_class):
            if n < b_per_class:
                chosen.append(int(u[c][k] * n))
                continue
            j = n - b_per_class + k
            t = int(u[c][k] * (j + 1))
            if t in chosen:
                t, clashes = j, clashes + 1
            chosen.append(t)
        picks.extend(rows[chosen].tolist())
    return np.array(picks, dtype=np.intp), clashes


def distill_loop_ref(inputs, real_inputs, real_labels, class_count, cfg, loss_and_grad,
                     rng_batch, rng_augment):
    """The distillation loop drawn step by step: each step takes one
    floyd_balanced_picks batch and one sigma * standard_normal noise array,
    then one Adam step (beta1 0.9, beta2 0.999, eps 1e-8) at the
    cosine-annealed learning rate. `loss_and_grad(x_aug, x_real, labels)` is
    the outer loss and its gradient; `cfg` supplies the other hyperparameters.
    Returns the final inputs and the per-step losses."""
    m, v = np.zeros_like(inputs), np.zeros_like(inputs)
    losses = []
    for t in range(cfg.iterations):
        picks, _ = floyd_balanced_picks(real_labels, class_count, cfg.b_per_class, rng_batch)
        x_aug = inputs
        if cfg.augment_noise_sigma > 0:
            noise = cfg.augment_noise_sigma * rng_augment.standard_normal(inputs.shape)
            x_aug = noise + inputs
        loss, g = loss_and_grad(x_aug, real_inputs[picks], real_labels[picks])
        lr = 0.5 * cfg.lr * (1.0 + math.cos(math.pi * t / cfg.iterations))
        m, v, update = adam_ref(m, v, t + 1, g, lr, 0.9, 0.999, 1e-8)
        inputs = inputs - update
        losses.append(loss)
    return inputs, losses


def class_anchor_loss_ref(x, labels, w, tau):
    z = (x @ w) / tau
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    correct = z[np.arange(x.shape[0]), labels]
    return float(np.mean(lse - correct))


def class_anchor_grad_ref(x, t_onehot, w, tau):
    z = (x @ w) / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    pi = e / e.sum(axis=1, keepdims=True)
    return x.T @ (pi - t_onehot) / (x.shape[0] * tau)


def mse_loss_ref(x, t_onehot, w):
    r = x @ w - t_onehot
    return float(0.5 * np.sum(r * r) / x.shape[0])


def mse_grad_ref(x, t_onehot, w):
    r = x @ w - t_onehot
    return x.T @ r / x.shape[0]


def adam_ref(m, v, step, grad, lr, b1, b2, eps):
    """One Adam step on copies; returns (m, v, update)."""
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    return m, v, lr * m_hat / (np.sqrt(v_hat) + eps)


def mlp1_vjp_ref(weights, x, upstream):
    w1, b1, w2, _ = weights
    h = np.tanh(x @ w1 + b1)
    return ((upstream @ w2.T) * (1.0 - h * h)) @ w1.T


def softmax_probe_ref(x, labels, class_count, epochs, lr, batch_size, seed):
    """Softmax linear probe trained with Adam, mini-batches gathered every epoch."""
    n, d = x.shape
    t_all = np.zeros((n, class_count))
    t_all[np.arange(n), labels] = 1.0
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((d, class_count)) / np.sqrt(d)
    m, v = np.zeros_like(w), np.zeros_like(w)
    step = 0
    for _ in range(epochs):
        order = np.arange(n) if n <= batch_size else rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, tb = x[idx], t_all[idx]
            z = xb @ w
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            g = xb.T @ (e / e.sum(axis=1, keepdims=True) - tb) / idx.size
            step += 1
            m, v, update = adam_ref(m, v, step, g, lr, 0.9, 0.999, 1e-8)
            w = w - update
    return w
