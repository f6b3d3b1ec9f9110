import numpy as np
import pytest

from voxsynth.schema import SchemaError, load_schema, parse_schema_csv
from voxsynth.target import (
    STRIP_FULL,
    STRIP_KEEP_CSF,
    STRIP_NONE,
    apply_lesion_dropout,
    apply_skullstrip,
    build_target,
    draw_lesion_keep,
    draw_strip_branch,
)

from conftest import make_labels


def head_map():
    """Layered test map: background 0, husk 4, fluid 5, tissue 1/2/3, spots 6/7."""
    data = np.zeros((8, 8, 8), dtype=np.int32)
    data[1:7, 1:7, 1:7] = 4  # extracerebral husk
    data[2:6, 2:6, 2:6] = 5  # csf
    data[3:5, 3:5, 3:5] = 3  # neutral tissue
    data[3, 3, 3] = 1
    data[4, 3, 3] = 2
    data[3, 4, 4] = 6  # lesion in left tissue
    data[4, 4, 4] = 7  # lesion in right tissue
    return make_labels(data)


class TestSkullstrip:
    def test_none_branch_unchanged(self, tiny_schema):
        v = head_map()
        out = apply_skullstrip(v, tiny_schema, STRIP_NONE)
        assert np.array_equal(out.data, v.data)

    def test_full_branch_removes_husk_and_fluid(self, tiny_schema):
        out = apply_skullstrip(head_map(), tiny_schema, STRIP_FULL)
        assert 4 not in out.data
        assert 5 not in out.data
        assert (out.data == 3).sum() == (head_map().data == 3).sum()

    def test_imperfect_branch_keeps_fluid(self, tiny_schema):
        v = head_map()
        out = apply_skullstrip(v, tiny_schema, STRIP_KEEP_CSF)
        assert 4 not in out.data
        assert (out.data == 5).sum() == (v.data == 5).sum()

    def test_volume_without_extracerebral_unchanged_everywhere(self, tiny_schema):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[1:3, 1:3, 1:3] = 3
        v = make_labels(data)
        for branch in (STRIP_NONE, STRIP_FULL, STRIP_KEEP_CSF):
            out = apply_skullstrip(v, tiny_schema, branch)
            assert np.array_equal(out.data, v.data)

    def test_branch_frequencies_within_3_sigma(self):
        n = 10_000
        rng = np.random.default_rng(202)
        counts = {STRIP_NONE: 0, STRIP_FULL: 0, STRIP_KEEP_CSF: 0}
        for _ in range(n):
            counts[draw_strip_branch(rng)] += 1
        for branch, p in ((STRIP_NONE, 0.5), (STRIP_FULL, 0.25), (STRIP_KEEP_CSF, 0.25)):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[branch] - n * p) < 3 * sigma, branch

    def test_only_designated_labels_touched(self, tiny_schema, rng):
        v = head_map()
        out = apply_skullstrip(v, tiny_schema, draw_strip_branch(rng))
        untouched = ~np.isin(v.data, [4, 5])
        assert np.array_equal(out.data[untouched], v.data[untouched])


class TestLesionDropout:
    def test_keep_branch_unchanged(self, tiny_schema):
        v = head_map()
        out = apply_lesion_dropout(v, tiny_schema, keep=True)
        assert np.array_equal(out.data, v.data)

    def test_drop_branch_relabels_to_host(self, tiny_schema):
        v = head_map()
        out = apply_lesion_dropout(v, tiny_schema, keep=False)
        assert 6 not in out.data and 7 not in out.data
        assert out.data[3, 4, 4] == 1  # host of left spot
        assert out.data[4, 4, 4] == 2  # host of right spot
        others = ~np.isin(v.data, [6, 7])
        assert np.array_equal(out.data[others], v.data[others])

    def test_keep_frequency_within_3_sigma(self):
        n = 10_000
        rng = np.random.default_rng(77)
        kept = sum(draw_lesion_keep(rng) for _ in range(n))
        sigma = np.sqrt(n * 0.25)
        assert abs(kept - n / 2) < 3 * sigma


class TestBuildTarget:
    def test_only_target_labels_survive(self, tiny_schema):
        v = head_map()
        out = build_target(v, tiny_schema)
        assert set(np.unique(out.data)) <= {0, 1, 2, 3}
        kept = np.isin(v.data, [1, 2, 3])
        assert np.array_equal(out.data[kept], v.data[kept])
        assert np.all(out.data[~kept] == 0)

    def test_pure_target_map_unchanged(self, tiny_schema):
        data = np.zeros((4, 4, 4), dtype=np.int32)
        data[0] = 1
        data[1] = 2
        data[2] = 3
        v = make_labels(data)
        out = build_target(v, tiny_schema)
        assert np.array_equal(out.data, v.data)

    def test_empty_map_stays_empty(self, tiny_schema):
        v = make_labels(np.zeros((3, 3, 3)))
        out = build_target(v, tiny_schema)
        assert np.all(out.data == 0)

    def test_label_outside_schema_becomes_background(self, tiny_schema):
        data = np.zeros((3, 3, 3), dtype=np.int32)
        data[0] = 1
        data[1] = 42
        out = build_target(make_labels(data), tiny_schema)
        assert np.array_equal(out.data, np.where(data == 42, 0, data))
        assert out.dtype == np.int32

    def test_idempotent(self, tiny_schema):
        v = head_map()
        once = build_target(v, tiny_schema)
        twice = build_target(once, tiny_schema)
        assert np.array_equal(once.data, twice.data)


class TestSchema:
    def test_builtin_brain_schema_loads(self):
        schema = load_schema("brain")
        assert 0 not in schema.target_labels
        assert schema.csf_label == 24
        assert schema.lesion_hosts[78] == 2 and schema.lesion_hosts[79] == 41
        assert 509 in schema.extracerebral_labels
        assert schema.flips[2] == 41 and schema.flips[41] == 2
        assert schema.flips[16] == 16
        assert schema.evaluated_labels <= schema.target_labels

    def test_csv_round_trip_of_custom_schema(self, tmp_path):
        text = (
            "label,name,category,flip,host,predict,evaluate,fill\n"
            "0,background,background,0,,yes,no,no\n"
            "1,thing,brain,1,,yes,yes,yes\n"
        )
        path = tmp_path / "schema.csv"
        path.write_text(text)
        schema = load_schema(path)
        assert schema.target_labels == {1}
        assert schema.fillable_labels == {1}

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError, match="missing columns"):
            parse_schema_csv("label,name\n0,background\n")

    def test_duplicate_label_rejected(self):
        text = (
            "label,name,category,flip,host,predict,evaluate,fill\n"
            "1,a,brain,1,,yes,no,no\n"
            "1,b,brain,1,,yes,no,no\n"
        )
        with pytest.raises(SchemaError, match="twice"):
            parse_schema_csv(text)

    def test_asymmetric_flip_rejected(self):
        text = (
            "label,name,category,flip,host,predict,evaluate,fill\n"
            "1,a,brain,2,,yes,no,no\n"
            "2,b,brain,2,,yes,no,no\n"
        )
        with pytest.raises(SchemaError, match="asymmetric"):
            parse_schema_csv(text)

    def test_lesion_without_host_rejected(self):
        text = (
            "label,name,category,flip,host,predict,evaluate,fill\n"
            "6,spot,lesion,6,,no,no,no\n"
        )
        with pytest.raises(SchemaError, match="host"):
            parse_schema_csv(text)

    def test_unknown_labels_reported(self, tiny_schema):
        with pytest.raises(SchemaError, match="99"):
            tiny_schema.check_labels_known([0, 1, 99])
