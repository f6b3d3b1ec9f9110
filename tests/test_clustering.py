import tracemalloc

import numpy as np
import pytest

from voxsynth import clustering
from voxsynth.clustering import (
    _BINS,
    _BLOCK,
    _bin_statistics,
    apply_parent_mapping,
    em_fit_1d,
    subdivide_labels,
)

from conftest import make_image, make_labels


def whole_log_resp(x, weights, means, stds):
    """The log-density of every sample under every component as one
    whole-array expression: the reference for the blocked arithmetic."""
    x = np.asarray(x, dtype=np.float64)[None, :]
    mu, sigma = means[:, None], stds[:, None]
    log_pdf = -0.5 * ((x - mu) / sigma) ** 2 - np.log(sigma) - 0.5 * np.log(2 * np.pi)
    return log_pdf + np.log(weights[:, None])


def whole_e_step(x, weights, means, stds):
    """The E-step on whole (k, n) arrays: the log-likelihood of the samples
    and their normalised responsibilities."""
    log_resp = whole_log_resp(x, weights, means, stds)
    peak = log_resp.max(axis=0)
    resp = np.exp(log_resp - peak)
    total = resp.sum(axis=0)
    log_likelihood = float(np.sum(peak + np.log(total)))
    resp /= total
    return log_likelihood, resp


def per_sample_em_fit(samples, k, max_iters=200, tol=1e-7):
    """EM on every sample, as `em_fit_1d` ran before it binned: the
    reference for the binned fit. Returns weights, means and stds."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    floor = max(1e-3 * span, 1e-12)
    means = np.quantile(x, (np.arange(k) + 0.5) / k)
    nearest = np.argmin(np.abs(x[None, :] - means[:, None]), axis=0)
    stds = np.full(k, floor)
    weights = np.full(k, 1.0 / x.size)
    for j in range(k):
        chunk = x[nearest == j]
        if chunk.size:
            stds[j] = max(float(chunk.std()), floor)
            weights[j] = chunk.size / x.size
    weights = weights / weights.sum()
    trace = []
    for _ in range(max_iters):
        log_likelihood, resp = whole_e_step(x, weights, means, stds)
        trace.append(log_likelihood)
        if len(trace) > 1 and trace[-1] - trace[-2] < tol:
            break
        counts = resp.sum(axis=1)
        new_means = means.copy()
        new_stds = stds.copy()
        for j in range(k):
            if counts[j] <= 1e-12:
                new_stds[j] = floor
                continue
            new_means[j] = float(resp[j] @ x) / counts[j]
            var = float(resp[j] @ (x - new_means[j]) ** 2) / counts[j]
            new_stds[j] = max(np.sqrt(var), floor)
        means, stds = new_means, new_stds
        weights = np.maximum(counts / x.size, 1e-12)
        weights = weights / weights.sum()
    return weights, means, stds


def mixture(rng, n):
    comps = [rng.normal(m, s, n) for m, s in ((20.0, 4.0), (60.0, 9.0), (130.0, 15.0))]
    return np.choose(rng.integers(0, 3, n), comps)


def assert_blocked_equals_whole(x, gmm):
    """The fit's blocked log-likelihood and hard assignment keep the bits of
    the whole-array arithmetic."""
    params = (gmm.weights, gmm.means, gmm.stds)
    assert gmm.log_likelihood == whole_e_step(x, *params)[0]
    assert np.array_equal(gmm.assign(x), whole_log_resp(x, *params).argmax(axis=0))


class TestEmFit:
    def test_k1_closed_form(self, rng):
        x = rng.normal(5.0, 2.0, 500)
        gmm = em_fit_1d(x, k=1)
        assert gmm.means[0] == pytest.approx(x.mean(), abs=1e-9)
        assert gmm.stds[0] == pytest.approx(x.std(), abs=1e-9)  # population form
        assert gmm.weights[0] == pytest.approx(1.0)

    def test_two_separated_clusters_recovered(self, rng):
        x = np.concatenate([rng.normal(0, 1, 5000), rng.normal(10, 1, 5000)])
        rng.shuffle(x)
        gmm = em_fit_1d(x, k=2)
        means = np.sort(gmm.means)
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 10.0) < 0.1
        assert np.all(np.abs(gmm.weights - 0.5) < 0.05)

    def test_log_likelihood_monotone(self, rng):
        for _ in range(10):
            x = np.concatenate(
                [
                    rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 2), 300),
                    rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 2), 300),
                    rng.uniform(-10, 10, 100),
                ]
            )
            gmm = em_fit_1d(x, k=3)
            trace = np.array(gmm.log_likelihoods)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_trace_ends_at_the_returned_fit(self, rng):
        x = np.concatenate([rng.normal(0, 1, 400), rng.normal(6, 2, 600)])
        converged = em_fit_1d(x, k=2)
        exhausted = em_fit_1d(x, k=3, max_iters=3)
        assert len(converged.log_likelihoods) < 200 and len(exhausted.log_likelihoods) == 4
        for gmm in (converged, exhausted):
            assert gmm.log_likelihood == whole_e_step(x, gmm.weights, gmm.means, gmm.stds)[0]

    def test_weights_sum_to_one(self, rng):
        gmm = em_fit_1d(rng.uniform(0, 1, 200), k=4)
        assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(gmm.weights > 0)

    def test_constant_samples_do_not_collapse(self):
        gmm = em_fit_1d(np.full(50, 3.0), k=2)
        assert np.all(gmm.stds > 0)
        assert np.all(gmm.means == 3.0)
        # every sample lands in one component under hard assignment
        assert len(set(gmm.assign(np.full(50, 3.0)))) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            em_fit_1d([1.0, 2.0, bad, 4.0], k=2)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            em_fit_1d([1.0, 2.0], k=3)
        with pytest.raises(ValueError, match="k"):
            em_fit_1d([1.0, 2.0], k=0)


class TestBlockedEStep:
    """The exact log-likelihood and the hard assignment run on blocks of
    `_BLOCK` samples; both must keep the bits of the whole-array arithmetic."""

    @pytest.mark.parametrize(
        "block, n",
        [(1, 23), (7, 7), (7, 50), (None, _BLOCK - 1), (None, _BLOCK), (None, _BLOCK + 1), (None, 3 * _BLOCK + 5)],
    )
    def test_fit_equals_the_whole_array_e_step(self, rng, monkeypatch, block, n):
        if block is not None:
            monkeypatch.setattr(clustering, "_BLOCK", block)
        x = mixture(rng, n)
        for k in (1, 2, 3):
            assert_blocked_equals_whole(x, em_fit_1d(x, k))

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_starved_component_and_constant_samples(self, rng, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(clustering, "_BLOCK", block)
        # the middle quantile falls in the gap between two tight clusters, so
        # its component gets no responsibility and keeps its mean
        gap = np.concatenate([rng.normal(0.0, 1.0, 500), rng.normal(100.0, 1.0, 500)])
        for x, k in ((gap, 3), (np.full(50, 3.0), 2)):
            assert_blocked_equals_whole(x, em_fit_1d(x, k))
        starved = em_fit_1d(gap, 3)
        assert 10.0 < starved.means[1] < 90.0
        assert starved.stds[1] == 1e-3 * (gap.max() - gap.min())

    def test_fit_holds_few_k_by_n_arrays(self, rng):
        n, k = 200_000, 4
        x = rng.normal(0.0, 1.0, n) * rng.choice([1.0, 5.0, 20.0, 60.0], n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            em_fit_1d(x, k, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * k * n * 8


class TestBinnedFit:
    """EM runs on `_BINS` bins of each region; the exact log-likelihood of a
    binned fit may trail the per-sample fit's by at most 1e-5 nats a sample."""

    TOLERANCE = 1e-5  # nats per sample, named before measuring

    def assert_close_to_the_reference(self, x, k):
        x = np.asarray(x, dtype=np.float64)
        lo, hi = float(x.min()), float(x.max())
        assert _bin_statistics(x, lo, hi - lo)[0].sum() == x.size
        binned = em_fit_1d(x, k)
        assert binned.log_likelihood == whole_e_step(x, binned.weights, binned.means, binned.stds)[0]
        reference = whole_e_step(x, *per_sample_em_fit(x, k))[0]
        assert binned.log_likelihood / x.size >= reference / x.size - self.TOLERANCE
        # the binned objective is a lower bound on the exact likelihood
        assert binned.log_likelihoods[-1] <= binned.log_likelihood + 1e-9 * abs(binned.log_likelihood)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [50, 500, 5000, 50000])
    def test_mixture_against_the_per_sample_fit(self, rng, n, k):
        self.assert_close_to_the_reference(mixture(rng, n), k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_far_outlier(self, rng, k):
        self.assert_close_to_the_reference(np.append(mixture(rng, 5000), 1e5), k)

    @pytest.mark.parametrize("k", [2, 4])
    def test_fewer_samples_than_bins(self, rng, k):
        x = mixture(rng, _BINS // 3)
        counts, _, scatter = _bin_statistics(x, float(x.min()), float(np.ptp(x)))
        assert counts.size <= x.size and scatter.min() >= 0.0
        self.assert_close_to_the_reference(x, k)

    def test_fit_holds_no_k_by_n_array(self, rng):
        n, k = 200_000, 8
        x = mixture(rng, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            em_fit_1d(x, k, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * 8  # three sample-sized arrays; one (k, n) array is eight

    @pytest.mark.parametrize(
        "samples",
        [[-1e308, 1e308, 0.0, 1.0], [1e300, 1.0000001e300, 1.0000002e300]],
    )
    def test_range_whose_square_overflows_rejected(self, samples):
        with pytest.raises(ValueError, match="range .* square overflows"):
            em_fit_1d(samples, 2)

    def test_subnormal_range_fits(self):
        x = np.array([0.0, 5e-324, 0.0, 5e-324])
        assert _bin_statistics(x, 0.0, 5e-324)[0].tolist() == [2.0, 2.0]
        gmm = em_fit_1d(x, 2)
        for values in (gmm.weights, gmm.means, gmm.stds, gmm.log_likelihoods):
            assert np.all(np.isfinite(values))
        assert np.isfinite(gmm.log_likelihood)
        assert gmm.weights.sum() == pytest.approx(1.0)


class TestBlockedAssign:
    @pytest.mark.parametrize("block", [7, None])
    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, 3 * _BLOCK + 5])
    def test_assign_equals_the_whole_array_argmax(self, rng, monkeypatch, block, n):
        if block is not None:
            monkeypatch.setattr(clustering, "_BLOCK", block)
        x = mixture(rng, n)
        for k in (1, 3, 4):
            gmm = em_fit_1d(x, k)
            expected = np.argmax(whole_log_resp(x, gmm.weights, gmm.means, gmm.stds), axis=0)
            assert gmm.assign(x).tobytes() == expected.tobytes()

    def test_assign_holds_no_k_by_n_array(self, rng):
        n, k = 200_000, 4
        x = mixture(rng, n)
        gmm = em_fit_1d(x, k)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gmm.assign(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * k * n * 8


class TestSubdivide:
    def test_partition_and_recovery(self, rng):
        labels = make_labels(rng.integers(0, 3, size=(10, 10, 10)))
        image = make_image(rng.uniform(0, 100, (10, 10, 10)))
        sub, mapping = subdivide_labels(image, labels, rng=rng)
        # sub-label masks partition each parent mask
        for parent in (0, 1, 2):
            parent_mask = labels.data == parent
            subs = np.unique(sub.data[parent_mask])
            assert all(mapping[int(s)] == parent for s in subs)
        restored = apply_parent_mapping(sub, mapping)
        assert np.array_equal(restored.data, labels.data)

    def test_constant_region_effectively_unsplit(self, rng):
        data = np.zeros((6, 6, 6), dtype=np.int32)
        data[2:, :, :] = 1
        image_data = rng.uniform(0, 1, (6, 6, 6))
        image_data[data == 1] = 42.0  # constant inside label 1
        sub, mapping = subdivide_labels(make_image(image_data), make_labels(data), rng=rng)
        used = np.unique(sub.data[data == 1])
        assert len(used) == 1
        assert mapping[int(used[0])] == 1

    def test_bimodal_region_splits_at_bayes_boundary(self, rng):
        data = np.ones((12, 12, 12), dtype=np.int32)
        low = rng.normal(10, 1, data.size // 2)
        high = rng.normal(30, 1, data.size - low.size)
        values = np.concatenate([low, high])
        rng.shuffle(values)
        image = make_image(values.reshape(data.shape))
        sub, mapping = subdivide_labels(image, make_labels(data), fg_k=2, rng=rng)
        used = sorted(int(v) for v in np.unique(sub.data))
        assert len(used) == 2
        # sub-labels ordered by component mean: the darker cluster gets index 1
        dark, bright = used
        boundary = 20.0  # equal-weight equal-std midpoint
        misassigned = ((image.data < boundary) & (sub.data == bright)) | (
            (image.data > boundary) & (sub.data == dark)
        )
        assert misassigned.mean() < 1e-3  # ~10 sigma from both means

    def test_forced_background_plateaus_split_exactly(self, rng):
        data = np.zeros((9, 9, 9), dtype=np.int32)  # all background
        image_data = np.zeros((9, 9, 9))
        image_data[0:3] = 5.0
        image_data[3:6] = 50.0
        image_data[6:9] = 500.0
        sub, mapping = subdivide_labels(
            make_image(image_data), make_labels(data), bg_k_range=(3, 3), rng=rng
        )
        for plateau, band in ((5.0, 1), (50.0, 2), (500.0, 3)):
            values = np.unique(sub.data[image_data == plateau])
            assert len(values) == 1 and values[0] == band  # parent 0, ranked by mean

    def test_small_region_left_unsplit_with_warning(self, rng):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[0, 0, 0] = 1  # single voxel, cannot hold 2 clusters
        image = make_image(rng.uniform(0, 1, (4, 4, 4)))
        with pytest.warns(RuntimeWarning, match="label 1"):
            sub, mapping = subdivide_labels(image, make_labels(data), rng=rng)
        assert sub.data[0, 0, 0] == 1
        assert mapping[1] == 1

    def test_background_class_count_in_range(self, rng):
        labels = make_labels(np.zeros((8, 8, 8)))
        image = make_image(rng.uniform(0, 1, (8, 8, 8)))
        for _ in range(20):
            sub, mapping = subdivide_labels(image, labels, rng=rng)
            n_classes = len([s for s in mapping if mapping[s] == 0])
            assert 3 <= n_classes <= 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_names_the_label(self, rng, bad):
        image = make_image(np.array([1.0, 2.0, bad, 4.0]).reshape(4, 1, 1))
        with pytest.raises(ValueError, match="label 0: samples must be finite"):
            subdivide_labels(image, make_labels(np.zeros((4, 1, 1))), bg_k_range=(3, 3), rng=rng)

    def test_zero_foreground_classes_rejected_before_any_fit(self, rng, monkeypatch):
        fits = []
        monkeypatch.setattr(clustering, "em_fit_1d", lambda *a, **kw: fits.append(a))
        labels = make_labels(rng.integers(0, 3, size=(6, 6, 6)))
        with pytest.raises(ValueError, match="fg_k .* must be >= 1, got 0"):
            subdivide_labels(make_image(rng.uniform(0, 1, (6, 6, 6))), labels, fg_k=0, rng=rng)
        assert fits == []

    def test_geometry_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="dims"):
            subdivide_labels(make_image(np.zeros((3, 3, 3))), make_labels(np.zeros((4, 4, 4))), rng=rng)

    def test_parent_mapping_keeps_the_dtype(self):
        data = np.array([0, 1001, 1002, 2001], dtype=np.int32).reshape(4, 1, 1)
        restored = apply_parent_mapping(make_labels(data), {1001: 1, 1002: 1, 2001: 2})
        assert restored.dtype == np.int32
        assert restored.data.ravel().tolist() == [0, 1, 1, 2]

    def test_negative_labels_rejected_by_parent_mapping(self):
        data = make_labels(np.array([0, 0, 3]).reshape(3, 1, 1))
        # a table indexed by -1 would write its last entry, the parent of 3
        with pytest.raises(ValueError, match="negative label -1"):
            apply_parent_mapping(data, {3: 1, -1: 5})
        with pytest.raises(ValueError, match="negative label -2"):
            apply_parent_mapping(make_labels(np.array([-2, 0, 3]).reshape(3, 1, 1)), {-2: 1, 3: 1})
