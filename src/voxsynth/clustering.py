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
_HALF_LOG_2PI = 0.5 * np.log(2 * np.pi)
_BLOCK = 8192  # samples per E-step block; keeps its (k, block) temporaries in cache
_BINS = 4000  # bins per region: 4 per std floor, so a bin is at most a quarter of it
_TOL = 1e-7  # EM stops when the binned objective improves by less than this


@dataclass(frozen=True)
class Gmm1D:
    """Fitted mixture: component weights, means and stds, the trace of the
    binned EM objective across iterations (non-decreasing), and the exact
    log-likelihood of the samples under the returned fit."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    log_likelihoods: tuple[float, ...]
    log_likelihood: float

    def assign(self, x: np.ndarray) -> np.ndarray:
        """Hard assignment of each sample to its most responsible component,
        taken block by block so no (k, len(x)) array is built."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.size, dtype=np.intp)
        for start, stop, lr in _density_blocks(x, self.weights, self.means, self.stds):
            lr.argmax(axis=0, out=out[start:stop])
        return out


def _log_density(x: np.ndarray, weights, means, stds, out: np.ndarray) -> np.ndarray:
    """Fill `out` (k, len(x)) with log(w) + the Gaussian log-density of each
    sample under each component, operation by operation in the order
    ``-0.5 * ((x - mu) / sigma) ** 2 - log sigma - 0.5 log 2pi + log w``."""
    sigma = stds[:, None]
    np.subtract(x, means[:, None], out=out)
    out /= sigma
    np.square(out, out=out)
    out *= -0.5
    out -= np.log(sigma)
    out -= _HALF_LOG_2PI
    out += np.log(weights[:, None])
    return out


def _density_blocks(x: np.ndarray, weights, means, stds):
    """Yield ``(start, stop, lr)`` for blocks of `_BLOCK` samples, `lr` the
    (k, stop - start) :func:`_log_density` of ``x[start:stop]`` in one small
    buffer that the next block overwrites, so no (k, len(x)) array is held."""
    k, n = means.size, x.size
    scratch = np.empty(k * min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        block = scratch[: k * (stop - start)].reshape(k, -1)
        yield start, stop, _log_density(x[start:stop], weights, means, stds, block)


def _sample_log_likelihood(x: np.ndarray, weights, means, stds) -> float:
    """Exact log-likelihood of the samples.

    The column max `peak` of each block's log-density and the sum `total` of
    ``exp(lr - peak)`` are the values the whole-array arithmetic gives; the
    log-likelihood ``sum(peak + log(total))`` is summed over the whole
    arrays, in the whole-array order.
    """
    peak = np.empty(x.size)
    total = np.empty(x.size)
    for start, stop, lr in _density_blocks(x, weights, means, stds):
        lr.max(axis=0, out=peak[start:stop])
        lr -= peak[start:stop]
        np.exp(lr, out=lr)
        lr.sum(axis=0, out=total[start:stop])
    np.log(total, out=total)
    total += peak  # the same bits as peak + log(total), without a third array
    return float(np.sum(total))


def _bin_statistics(x: np.ndarray, lo: float, span: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count, mean and scatter (sum of squared deviations from the bin mean)
    of every non-empty bin of `_BINS` equal bins over ``[lo, lo + span]``.

    The index is ``(x - lo) / span * _BINS``: a subnormal span divides
    without overflow, where ``_BINS / span`` would be infinite.
    """
    t = x - lo
    t /= span
    t *= _BINS
    index = t.astype(np.intp)
    np.minimum(index, _BINS - 1, out=index)  # x == hi lands in the last bin
    counts = np.bincount(index, minlength=_BINS).astype(np.float64)
    full_means = np.bincount(index, weights=x, minlength=_BINS)
    occupied = counts > 0
    full_means[occupied] /= counts[occupied]
    np.take(full_means, index, out=t, mode="clip")  # "raise" would copy into a temporary
    np.subtract(x, t, out=t)
    np.square(t, out=t)
    scatter = np.bincount(index, weights=t, minlength=_BINS)
    return counts[occupied], full_means[occupied], scatter[occupied]


def _binned_e_step(counts, bin_means, half_spread, weights, means, stds, resp: np.ndarray) -> float:
    """Binned EM objective and the per-bin responsibilities, written into
    `resp` (k, bins).

    Samples of one bin share their responsibilities, so a component's log
    weight is its log-density at the bin mean minus ``scatter / (2 n sigma^2)``
    (`half_spread` is ``scatter / (2 n)``). The objective, the sum over bins
    of ``n * log(sum_j exp(.))``, is a lower bound on the sample
    log-likelihood, and EM does not decrease it.
    """
    _log_density(bin_means, weights, means, stds, resp)
    resp -= half_spread / np.square(stds)[:, None]
    peak = resp.max(axis=0)
    resp -= peak
    np.exp(resp, out=resp)
    total = resp.sum(axis=0)
    resp /= total
    return float(counts @ (peak + np.log(total)))


def em_fit_1d(samples, k: int, max_iters: int = 200) -> Gmm1D:
    """Fit a k-component 1-D Gaussian mixture by expectation-maximisation.

    The samples are binned once into `_BINS` equal bins over their range,
    keeping each bin's count, mean and scatter; every iteration then runs on
    the bins, with the samples of a bin sharing their responsibilities.
    Means start at evenly spaced sample quantiles (the (i + 0.5)/k levels), so
    the fit is deterministic. Iteration stops when the binned objective
    improves by less than `_TOL` or after `max_iters` passes; its trace is
    non-decreasing. One exact pass over the samples gives the returned
    log-likelihood. Component collapse is prevented by flooring stds at a
    small fraction of the sample range rather than failing. Non-finite
    samples, and a range whose square overflows, raise ``ValueError``.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if x.size < k:
        raise ValueError(f"need at least k={k} samples, got {x.size}")

    lo, hi = float(x.min()), float(x.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("samples must be finite, got NaN or infinity")
    span = hi - lo
    if not np.isfinite(span * span):
        raise ValueError(f"sample range [{lo!r}, {hi!r}] is too wide: its square overflows")
    floor = max(_STD_FLOOR_FRACTION * span, _STD_FLOOR_ABS)

    if span == 0.0:
        weights = np.full(k, 1.0 / k)
        means = np.full(k, float(x[0]))
        stds = np.full(k, floor)
        log_likelihood = _sample_log_likelihood(x, weights, means, stds)
        return Gmm1D(weights, means, stds, (log_likelihood,), log_likelihood)

    counts, bin_means, scatter = _bin_statistics(x, lo, span)
    half_spread = scatter / (2.0 * counts)

    # means at evenly spaced quantiles; stds and weights from the partition of
    # bins by nearest initial mean, so separated modes stay separated
    quantiles = (np.arange(k) + 0.5) / k
    means = np.quantile(x, quantiles)
    nearest = np.argmin(np.abs(bin_means[None, :] - means[:, None]), axis=0)
    stds = np.full(k, floor)
    weights = np.full(k, 1.0 / x.size)
    for j in range(k):
        member = nearest == j
        size = counts[member].sum()
        if size:
            centre = counts[member] @ bin_means[member] / size
            var = (scatter[member].sum() + counts[member] @ np.square(bin_means[member] - centre)) / size
            stds[j] = max(float(np.sqrt(var)), floor)
            weights[j] = size / x.size
    weights = weights / weights.sum()

    trace: list[float] = []
    resp = np.empty((k, counts.size))
    for _ in range(max_iters):
        trace.append(_binned_e_step(counts, bin_means, half_spread, weights, means, stds, resp))
        if len(trace) > 1 and trace[-1] - trace[-2] < _TOL:
            break

        members = resp * counts  # expected samples of each component per bin
        sizes = members.sum(axis=1)
        new_means = means.copy()
        new_stds = stds.copy()
        for j in range(k):
            if sizes[j] <= _STD_FLOOR_ABS:
                new_stds[j] = floor  # starved component: keep mean, shrink
                continue
            new_means[j] = float(members[j] @ bin_means) / sizes[j]
            var = float(resp[j] @ scatter + members[j] @ np.square(bin_means - new_means[j])) / sizes[j]
            new_stds[j] = max(np.sqrt(var), floor)
        means, stds = new_means, new_stds
        weights = np.maximum(sizes / x.size, 1e-12)  # weights stay positive
        weights = weights / weights.sum()
    else:
        # iteration budget exhausted after an update: record its objective
        trace.append(_binned_e_step(counts, bin_means, half_spread, weights, means, stds, resp))

    return Gmm1D(weights, means, stds, tuple(trace), _sample_log_likelihood(x, weights, means, stds))


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
    *,
    rng: np.random.Generator,
) -> tuple[Volume, dict[int, int]]:
    """Split every label into intensity clusters of the co-registered image.

    Each foreground label is divided into `fg_k` clusters; the background is
    divided into N clusters with N drawn uniformly from `bg_k_range`
    (inclusive) by `rng`. Sub-labels are numbered parent * 1000 + index, and the
    returned mapping sends every sub-label back to its parent, so the original
    map is recoverable bit-exactly. Regions smaller than their cluster count
    are left unsplit with a warning.
    """
    if image.dims != labels.dims:
        raise ValueError(f"image dims {image.dims} do not match labels dims {labels.dims}")
    if not labels.is_labels:
        raise ValueError("subdivide_labels needs an integer label volume")

    lo, hi = (int(v) for v in bg_k_range)
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid background class range {bg_k_range}")
    fg_k = int(fg_k)
    if fg_k < 1:
        raise ValueError(f"fg_k (clusters per foreground label) must be >= 1, got {fg_k}")
    bg_k = int(rng.integers(lo, hi + 1))

    data = labels.data
    out = np.zeros(labels.dims, dtype=np.int64)
    mapping: dict[int, int] = {}
    intensities = np.asarray(image.data, dtype=np.float64)

    for parent in labels.labels_present():
        k = bg_k if parent == 0 else fg_k
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
        try:
            clusters = _split_region(values, k)
        except ValueError as err:
            raise ValueError(f"label {parent}: {err}") from err
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
