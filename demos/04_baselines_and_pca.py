"""Where do distilled points sit relative to the real clusters?

Runs a short distillation, selects the centroid and nearest-neighbor
baselines, and projects everything to 2-D with the eigendecomposition PCA.
Unlike centroid picks, the distilled rows do not sit on class means: they
drift outward along discriminative directions (a temperature-scaled softmax
gains confidence by growing anchor norms), and the neighbor baseline then
snaps each one back to its closest same-class real sample.
"""

import numpy as np

from clpdd import (
    DistillConfig,
    gen_blobs,
    pca_project_2d,
    run_distill,
    select_centroid,
    select_neighbor,
)

train, ev = gen_blobs(
    3, 16, 100, center_scale=0.1, cluster_std=0.15, seed=2, anisotropic=True
)
cfg = DistillConfig(iterations=600, seed=2)
syn, _ = run_distill(cfg, train, ev)

# the default identity encoder: train and syn are already feature sets
centroid = select_centroid(train, ipc=1)
neighbor = select_neighbor(train, syn)

# one joint projection so every set lands in the same coordinates
stacked = np.vstack([train.inputs, syn.inputs, centroid.inputs, neighbor.inputs])
proj, explained = pca_project_2d(stacked)
print(f"top-2 PCA explains {explained[0]:.2f} + {explained[1]:.2f} of the variance")

n = train.n
real_p, syn_p = proj[:n], proj[n : n + 3]
cent_p, nbr_p = proj[n + 3 : n + 6], proj[n + 6 :]

for c in range(3):
    mean = real_p[train.labels == c].mean(axis=0)
    spread = real_p[train.labels == c].std(axis=0).mean()
    def fmt(pt):
        return f"({pt[0]: .3f}, {pt[1]: .3f})"
    print(f"\nclass {c}: real cluster mean {fmt(mean)}, spread {spread:.3f}")
    print(f"  distilled point  {fmt(syn_p[c])}  "
          f"(distance from mean {np.linalg.norm(syn_p[c] - mean):.3f})")
    print(f"  centroid pick    {fmt(cent_p[c])}  "
          f"(distance from mean {np.linalg.norm(cent_p[c] - mean):.3f})")
    print(f"  neighbor pick    {fmt(nbr_p[c])}")

print("\nthe same projection is what `clpdd export-embeddings` writes as CSV")
print("(columns x, y, label, origin) for plotting elsewhere.")
