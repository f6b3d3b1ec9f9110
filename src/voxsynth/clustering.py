"""1-D Gaussian-mixture fitting and intensity-driven label subdivision.

Splitting every region of a label map into intensity clusters lets a single
broad label (for instance an unlabelled background) be modelled as several
narrower Gaussian classes. Each sub-label remembers its parent so target maps
can be reset to the original labels afterwards.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .volume import Volume, relabel

__all__ = [
    "Gmm1D",
    "em_fit_1d",
    "subdivide_labels",
    "apply_parent_mapping",
    "SUBLABEL_STRIDE",
]

SUBLABEL_STRIDE = 1000  # sub-label id = parent * stride + component index (1-based)
_STD_FLOOR_FRACTION = 1e-3
_STD_FLOOR_ABS = 1e-12


@dataclass(frozen=True)
class Gmm1D:
    """Fitted mixture: component weights, means, stds, and the log-likelihood
    trace across iterations (non-decreasing)."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    log_likelihoods: tuple[float, ...]

    @property
    def log_likelihood(self) -> float:
        return self.log_likelihoods[-1]

    def log_responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Unnormalised per-component log posteriors, shape (k, len(x))."""
        return _log_resp(x, self.weights, self.means, self.stds)

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Hard assignment of each sample to its most responsible component."""
        return np.argmax(self.log_responsibilities(x), axis=0)


def _log_resp(x, weights: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)[None, :]
    mu = means[:, None]
    sigma = stds[:, None]
    log_pdf = -0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
    return log_pdf + np.log(weights[:, None])


def _e_step(log_resp: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood of the samples, the unnormalised responsibilities
    exp(log_resp - peak) and their column sums, from one pass of exp."""
    peak = log_resp.max(axis=0)
    resp = np.exp(log_resp - peak)
    total = resp.sum(axis=0)
    return float(np.sum(peak + np.log(total))), resp, total


def em_fit_1d(samples, k: int, max_iters: int = 200, tol: float = 1e-7) -> Gmm1D:
    """Fit a k-component 1-D Gaussian mixture by expectation-maximisation.

    Means start at evenly spaced sample quantiles (the (i + 0.5)/k levels), so
    the fit is deterministic. Iteration stops when the log-likelihood improves
    by less than `tol` or after `max_iters` passes; the trace is
    non-decreasing. Component collapse is prevented by flooring stds at a
    small fraction of the sample range rather than failing.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if x.size < k:
        raise ValueError(f"need at least k={k} samples, got {x.size}")

    span = float(x.max() - x.min())
    floor = max(_STD_FLOOR_FRACTION * span, _STD_FLOOR_ABS)

    if span == 0.0:
        weights = np.full(k, 1.0 / k)
        means = np.full(k, float(x[0]))
        stds = np.full(k, floor)
        return Gmm1D(weights, means, stds, (_e_step(_log_resp(x, weights, means, stds))[0],))

    # means at evenly spaced quantiles; stds and weights from the partition of
    # samples by nearest initial mean, so separated modes stay separated
    quantiles = (np.arange(k) + 0.5) / k
    means = np.quantile(x, quantiles)
    nearest = np.argmin(np.abs(x[None, :] - means[:, None]), axis=0)
    stds = np.full(k, floor)
    weights = np.full(k, 1.0 / x.size)
    for j in range(k):
        chunk = x[nearest == j]
        if chunk.size:
            stds[j] = max(float(chunk.std()), floor)
            weights[j] = chunk.size / x.size
    weights = weights / weights.sum()

    trace: list[float] = []
    for _ in range(max_iters):
        log_likelihood, resp, total = _e_step(_log_resp(x, weights, means, stds))
        trace.append(log_likelihood)
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            break

        resp /= total

        counts = resp.sum(axis=1)
        new_means = means.copy()
        new_stds = stds.copy()
        for j in range(k):
            if counts[j] <= _STD_FLOOR_ABS:
                new_stds[j] = floor  # starved component: keep mean, shrink
                continue
            new_means[j] = float(resp[j] @ x) / counts[j]
            var = float(resp[j] @ (x - new_means[j]) ** 2) / counts[j]
            new_stds[j] = max(np.sqrt(var), floor)
        means, stds = new_means, new_stds
        weights = np.maximum(counts / x.size, 1e-12)  # weights stay positive
        weights = weights / weights.sum()
    else:
        # iteration budget exhausted after an update: record its likelihood
        trace.append(_e_step(_log_resp(x, weights, means, stds))[0])

    return Gmm1D(weights, means, stds, tuple(trace))


def _split_region(values: np.ndarray, k: int) -> np.ndarray:
    """Cluster one region's intensities; components are ranked by mean so the
    lowest sub-label index is the darkest cluster."""
    gmm = em_fit_1d(values, k)
    assignment = gmm.assign(values)
    order = np.argsort(gmm.means, kind="stable")
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k)
    return rank[assignment]


def subdivide_labels(
    image: Volume,
    labels: Volume,
    fg_k: int = 2,
    bg_k_range: tuple[int, int] = (3, 10),
    rng=None,
) -> tuple[Volume, dict[int, int]]:
    """Split every label into intensity clusters of the co-registered image.

    Each foreground label is divided into `fg_k` clusters; the background is
    divided into N clusters with N drawn uniformly from `bg_k_range`
    (inclusive). Sub-labels are numbered parent * 1000 + index, and the
    returned mapping sends every sub-label back to its parent, so the original
    map is recoverable bit-exactly. Regions smaller than their cluster count
    are left unsplit with a warning.
    """
    if image.dims != labels.dims:
        raise ValueError(f"image dims {image.dims} do not match labels dims {labels.dims}")
    if not labels.is_labels:
        raise ValueError("subdivide_labels needs an integer label volume")
    if rng is None:
        rng = np.random.default_rng()

    lo, hi = (int(v) for v in bg_k_range)
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid background class range {bg_k_range}")
    bg_k = int(rng.integers(lo, hi + 1))

    data = labels.data
    out = np.zeros(labels.dims, dtype=np.int64)
    mapping: dict[int, int] = {}
    intensities = np.asarray(image.data, dtype=np.float64)

    for parent in labels.labels_present():
        k = bg_k if parent == 0 else int(fg_k)
        mask = data == parent
        values = intensities[mask]
        if values.size < k:
            warnings.warn(
                f"label {parent} has {values.size} voxels, fewer than {k} clusters; left unsplit",
                RuntimeWarning,
                stacklevel=2,
            )
            out[mask] = parent
            mapping[parent] = parent
            continue
        clusters = _split_region(values, k)
        out[mask] = parent * SUBLABEL_STRIDE + clusters + 1
        for index in range(k):
            mapping[parent * SUBLABEL_STRIDE + index + 1] = parent

    return labels.with_data(out), mapping


def apply_parent_mapping(sub_labels: Volume, mapping: dict[int, int]) -> Volume:
    """Collapse sub-labels back to their parents (reset to the initial
    labels), keeping the dtype of `sub_labels`."""
    missing = [v for v in sub_labels.labels_present() if v not in mapping and v != 0]
    if missing:
        raise ValueError(f"sub-labels {missing} have no parent mapping")
    return sub_labels.with_data(relabel(sub_labels.data, mapping))
