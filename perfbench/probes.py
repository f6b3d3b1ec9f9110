"""Machine record and the fixed probes every run takes outside its timed region.

- `interp_probe_s`: the interpolation probe of acceptance criterion 13, one
  trilinear `map_coordinates` pass over a random 160^3 volume, taken before
  and after the runs so runs on different machines can be compared.
- `warp_error_max_vox`: accuracy of `upsample_svf` followed by
  `integrate_svf` against this file's own many-substep Euler oracle.
- `fit_loglik_per_voxel`: the mean final EM log-likelihood per voxel of
  `em_fit_1d` on the label regions of one fixed generated pair.

The accuracy probes use fixed seeds, so on unchanged code they read the same
in every run and on every workload.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.ndimage import map_coordinates

INTERP_PROBE_SIZE = 160
INTERP_PROBE_SLABS = 8  # coordinates are built a slab at a time to keep memory low

WARP_GRID = 64  # voxels per axis of the integrated field
WARP_SEEDS = (4,)  # velocity seed under the default priors (std 2.83, near the 3.0 cap)
WARP_STRIDE = 4  # oracle trajectories start at every 4th voxel per axis
WARP_EULER_STEPS = 256

FIT_SEED = 11
FIT_CROP = 32  # the probe pair is a 32^3 crop of a 40^3 demo phantom
FIT_PHANTOM = 40
FIT_BG_CLASSES = 4
FIT_FG_CLASSES = 2


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return sizes


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def available_mb() -> int:
    """MemAvailable from /proc/meminfo, in MB (a large number if unknown)."""
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) // 1024
    except OSError:
        pass
    return 1 << 30


def machine_record() -> dict:
    return {
        "nproc": nproc(),
        "mem_available_mb": available_mb(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def interp_probe_s(seed: int = 0) -> float:
    """Seconds for one trilinear pass over a random 160^3 volume at
    fractional coordinates (the criterion-13 access pattern)."""
    n = INTERP_PROBE_SIZE
    volume = np.random.default_rng(seed).standard_normal((n, n, n))
    step = n // INTERP_PROBE_SLABS
    elapsed = 0.0
    for lo in range(0, n, step):
        coords = np.indices((step, n, n), dtype=np.float64) + 0.3
        coords[0] += lo
        started = time.perf_counter()
        map_coordinates(volume, coords, order=1, mode="nearest")
        elapsed += time.perf_counter() - started
    return elapsed


def _control_velocity(grid: np.ndarray, points: np.ndarray, n: int) -> np.ndarray:
    """Velocity at continuous voxel positions, straight from the control grid.

    Positions clamp to the dense grid, then map to control-grid coordinates
    with the package's centre-aligned convention; trilinear interpolation of
    the control values is the field that the dense upsampling samples.
    """
    k = grid.shape[0]
    coords = (np.clip(points, 0.0, n - 1.0) + 0.5) * (k / n) - 0.5
    return np.stack(
        [map_coordinates(grid[..., c], coords, order=1, mode="nearest") for c in range(3)]
    )


def warp_error_max_vox(vs) -> float:
    """Largest displacement error, in voxels, of the package's upsample and
    integrate against a forward-Euler integration of the control field."""
    cfg = vs.GeneratorConfig()
    n = WARP_GRID
    worst = 0.0
    for seed in WARP_SEEDS:
        svf = vs.sample_svf(cfg, np.random.default_rng(seed))
        field = vs.integrate_svf(vs.upsample_svf(svf, (n, n, n))).displacement
        start = np.indices((n, n, n), dtype=np.float64)[:, ::WARP_STRIDE, ::WARP_STRIDE, ::WARP_STRIDE]
        start = start.reshape(3, -1)
        pos = start.copy()
        dt = 1.0 / WARP_EULER_STEPS
        for _ in range(WARP_EULER_STEPS):
            pos += dt * _control_velocity(svf.grid, pos, n)
        fast = field[:, ::WARP_STRIDE, ::WARP_STRIDE, ::WARP_STRIDE].reshape(3, -1)
        worst = max(worst, float(np.abs(fast - (pos - start)).max()))
    return worst


def fit_loglik_per_voxel(vs) -> float:
    """Sum of the final EM log-likelihoods over the regions of a fixed
    generated pair, divided by its voxel count; background regions get
    `FIT_BG_CLASSES` components and the others `FIT_FG_CLASSES`, as in the
    subdivide workload."""
    cfg = vs.GeneratorConfig(seed=FIT_SEED, crop_size=FIT_CROP)
    pair = vs.generate_sample([vs.demo_phantom(FIT_PHANTOM)], cfg, 0)
    image = np.asarray(pair.image.data, dtype=np.float64)
    labels = pair.target.data
    total = 0.0
    for label in np.unique(labels):
        k = FIT_BG_CLASSES if label == 0 else FIT_FG_CLASSES
        values = image[labels == label]
        if values.size >= k:
            total += vs.em_fit_1d(values, k).log_likelihood
    return total / labels.size
