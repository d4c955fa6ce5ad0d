"""Distill one synthetic point per class on an anisotropic blob task.

Five overlapping 16-dimensional Gaussian classes, 200 train samples each, get
compressed into five learnable rows. Each iteration solves the induced ridge
probe in closed form, scores it on a fresh class-balanced real batch, and the
analytic gradient moves the synthetic inputs. The distilled set is then scored
exactly like any real-sample selection: train a fresh linear probe on it.
"""

import numpy as np

from clpdd import (
    AdamState,
    Dataset,
    DistillConfig,
    augment_noise,
    balanced_batches,
    distill_step,
    gen_blobs,
    run_distill,
    select_centroid,
    select_random,
    train_linear_probe,
)

train, ev = gen_blobs(
    5, 16, 250, center_scale=0.1, cluster_std=0.15, seed=0, anisotropic=True
)
print(f"task: {train.class_count} classes, d={train.dim}, "
      f"{train.n} train / {ev.n} eval samples")

cfg = DistillConfig(iterations=1000, seed=0)
syn, curve = run_distill(cfg, train, ev)

print("\ndistillation trace (loss is the class-anchor outer objective):")
for m in curve:
    if m.eval_acc is not None:
        print(f"  iter {m.iteration + 1:4d}: outer loss {m.outer_loss:.4f}, "
              f"closed-form eval acc {m.eval_acc:.3f}")

# the identity encoder's features are the rows themselves, so every set is
# probed as it is
def probe_acc(selected):
    return train_linear_probe(selected, ev, epochs=500, seed=1).eval_acc

distilled = probe_acc(syn)
random_sel = select_random(train, ipc=1, seed=0)
centroid_sel = select_centroid(train, ipc=1)

print("\ntrained-probe eval accuracy from 5 rows (1 per class):")
print(f"  distilled : {distilled:.3f}")
print(f"  centroid  : {probe_acc(centroid_sel):.3f}")
print(f"  random    : {probe_acc(random_sel):.3f}")
print(f"\n(one seed; `clpdd compare` averages five and adds neighbor + the MSE ablation)")

# run_distill is this loop plus its input checks, seeded streams and the eval
# monitor: one stream of class-balanced real batches, one of augmentation
# noise, and one distill_step per iteration
enc = cfg.build_encoder(train.dim)
inputs = np.random.default_rng(1).standard_normal((5, train.dim))
y_onehot = np.eye(5)
adam = AdamState.like(inputs)
batches = balanced_batches(train, cfg.b_per_class, np.random.default_rng(2))
noise = augment_noise(inputs.shape, cfg.augment_noise_sigma, np.random.default_rng(3))
for t in range(cfg.iterations):
    inputs, metrics = distill_step(inputs, y_onehot, adam, cfg, enc, batches, noise, t)
by_hand = Dataset(inputs, np.arange(5), 5)
print(f"\nthe same loop written out, other seeds: final outer loss "
      f"{metrics.outer_loss:.4f}, distilled probe accuracy {probe_acc(by_hand):.3f}")
