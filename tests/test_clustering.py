import numpy as np
import pytest

from voxsynth.clustering import _e_step, apply_parent_mapping, em_fit_1d, subdivide_labels

from conftest import make_image, make_labels


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
            assert gmm.log_likelihoods[-1] == _e_step(gmm.log_responsibilities(x))[0]

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

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            em_fit_1d([1.0, 2.0], k=3)
        with pytest.raises(ValueError, match="k"):
            em_fit_1d([1.0, 2.0], k=0)


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
