"""The per-segment trace sampler: the reference for `tracelab._sampled_powers`.

Draws, for every analysis segment of the requested windows in time order,
the kernel pair sigma C g, plus amp K^T tone on a gated segment (C C^T =
K^T K, g two standard normals from Philox channel 0 of the seed), and
averages each window's band powers.  `_sampled_powers` draws each window's
summed power from its exact distribution instead; the tests compare the two
over seeds.
"""

import numpy as np

from mzinet import tracelab


def per_segment_powers(sigma, amp, params, seed, rbw, windows):
    """Mean band power of each window in `windows` (False: gated, True:
    idle), drawn one normal pair per segment."""
    length = tracelab._check_analysis(params, rbw)
    kernel, norm = tracelab._bin_kernel(params.sample_rate, params.drive_freq, rbw)
    starts = []
    for invert in windows:
        layout = tracelab._segment_layout(params, length, invert)
        starts.append(np.concatenate([a + length * np.arange(count)
                                      for a, count in layout]))
    every = np.concatenate(starts)
    order = np.argsort(every)
    window = np.repeat(np.arange(len(starts)), [s.size for s in starts])[order]
    factor = tracelab._noise_factor(kernel.T @ kernel).T
    parts = sigma * tracelab._channel_rng(seed, 0).standard_normal((every.size, 2)) @ factor
    # the drive runs throughout each gated segment and in no idle one
    gated = ~np.asarray(windows)[window]
    parts[gated] += amp * tracelab._tone_parts(every[order][gated], kernel, params)
    powers = tracelab._band_powers(parts, norm, rbw)
    return [float(powers[window == k].mean()) for k in range(len(starts))]
