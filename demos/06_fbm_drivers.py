# Fractional Brownian drivers
#
# The covariance (s^{2H} + t^{2H} - |t-s|^{2H})/2 is realised exactly
# (to roundoff) by circulant embedding of the increment covariance, two
# FFTs per sample.  H > 1/2 puts the sample paths in the Young regime:
# finite p-variation for every p > 1/H.

import numpy as np

from youngflow import FbmSpec, SampledPath, fbm_covariance_defect, fbm_sample, metric_d, p_variation

spec = FbmSpec(hurst=0.75, horizon=1.0, samples=513, seed=12)
path = fbm_sample(spec)
print("w_0 =", path.values[0, 0], " w_T =", f"{path.values[-1, 0]:.4f}")
print("covariance defect:", fbm_covariance_defect(spec))

# p above vs below 1/H = 4/3: discrete p-variation stabilises vs grows
big = fbm_sample(FbmSpec(hurst=0.75, horizon=1.0, samples=4097, seed=42))
for p in (1.5, 1.2):
    vals = [p_variation(SampledPath(big.times[::s], big.values[::s]), p) for s in (4, 2, 1)]
    trend = "stable " if vals[-1] / vals[0] < 1.05 else "growing"
    print(f"p={p}: {[f'{v:.3f}' for v in vals]}  ({trend})")

# the whole-line metric compares drivers across expanding windows
ts = np.linspace(-3.0, 3.0, 601)
w1 = SampledPath(ts, np.interp(np.abs(ts), big.times, big.values[:, 0])[:, None])
w2 = SampledPath(ts, 0.9 * w1.values)
print("metric d (cap 3):", f"{metric_d(w1, w2, 3, 1.5):.4f}",
      " truncation error <= 2^-3 =", 2.0 ** -3)
