import numpy as np
import pytest

from langtrack.data_io import (
    AnnotationSet,
    InstanceAttributes,
    MotRecord,
    SceneAttributes,
    compose_instance_description,
    compose_scene_description,
    read_annotations,
    read_appearance,
    read_embedding_fixture,
    read_mot,
    to_detections,
    write_annotations,
    write_appearance,
    write_embedding_fixture,
    write_mot,
    write_result,
)
from langtrack.graph import Detection
from langtrack.guidance import LanguageEmbeddingStore
from langtrack.inference import TrackResult


class TestReadMot:
    def test_parses_positional_fields(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,2,100,200,50,120,1,1,1.0\n")
        (rec,) = read_mot(p)
        assert rec.frame == 1
        assert rec.id == 2
        assert rec.box == (100.0, 200.0, 50.0, 120.0)
        assert rec.conf == 1.0
        assert rec.class_id == 1
        assert rec.visibility == 1.0

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert read_mot(p) == []

    def test_short_row_defaults(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("3,7,1,2,3,4,0.5\n")
        (rec,) = read_mot(p)
        assert rec.class_id == -1
        assert rec.visibility == -1.0

    def test_trailing_fields_ignored(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1,0,0,5,5,1,-1,-1,-1,99,98\n")
        (rec,) = read_mot(p)
        assert rec.visibility == -1.0

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("2,1,0,0,5,5,1\n1,1,0,0,5,5,1\n")
        frames = [r.frame for r in read_mot(p)]
        assert frames == [2, 1]

    @pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
    def test_infinite_class_field_reports_line(self, tmp_path, value):
        p = tmp_path / "det.txt"
        p.write_text(f"1,1,0,0,5,5,1,1,1.0\n1,2,0,0,5,5,1,{value},1.0\n")
        with pytest.raises(ValueError, match="line 2: cannot convert float infinity"):
            read_mot(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1,0,0,5,5,1\n1,x,0,0,5,5,1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_mot(p)

    def test_too_few_fields(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1,0,0\n")
        with pytest.raises(ValueError, match="at least 7"):
            read_mot(p)

    def test_bad_visibility_rejected(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,1,0,0,5,5,1,-1,2.0\n")
        with pytest.raises(ValueError, match="visibility"):
            read_mot(p)


class TestWriters:
    def test_mot_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            MotRecord(
                frame=int(rng.integers(1, 100)),
                id=int(rng.integers(1, 50)),
                left=float(rng.normal(0, 40)),
                top=float(rng.normal(0, 40)),
                width=float(rng.uniform(0.1, 30)),
                height=float(rng.uniform(0.1, 30)),
                conf=float(rng.uniform(0, 1)),
                class_id=int(rng.integers(-1, 5)),
                visibility=float(rng.uniform(0, 1)),
            )
            for _ in range(60)
        ]
        p = tmp_path / "gt.txt"
        write_mot(p, records)
        assert read_mot(p) == records

    def test_result_round_trip_and_order(self, tmp_path):
        dets = {
            2: [Detection(3, (1.25, 2.0, 3.0, 4.0), np.zeros(2), 0.75, 1.0)],
            1: [
                Detection(1, (0.0, 0.0, 5.0, 5.0), np.zeros(2), 1.0, 1.0),
                Detection(3, (0.5, 0.5, 5.0, 5.0), np.zeros(2), 0.5, 1.0),
            ],
        }
        result = TrackResult(dets)
        p = tmp_path / "res.txt"
        write_result(p, result)
        lines = p.read_text().strip().split("\n")
        assert lines[0].startswith("1,1,")
        assert lines[1].startswith("3,1,") or lines[1].startswith("3,2,")
        assert [ln.split(",")[:2] for ln in lines] == [["1", "1"], ["3", "1"], ["3", "2"]]
        back = read_mot(p)
        assert {(r.frame, r.id, r.box) for r in back} == {
            (d.frame, tid, d.box) for tid, dl in dets.items() for d in dl
        }
        assert all(ln.endswith(",-1,-1,-1") for ln in lines)

    def test_empty_result_empty_file(self, tmp_path):
        p = tmp_path / "res.txt"
        write_result(p, TrackResult({}))
        assert p.read_text() == ""

    def test_float_boxes_survive_exactly(self, tmp_path):
        box = (0.1 + 0.2, 1e-7, 3.333333333333333, 7.000000001)
        result = TrackResult({1: [Detection(1, box, np.zeros(1), 1.0, 1.0)]})
        p = tmp_path / "res.txt"
        write_result(p, result)
        (rec,) = read_mot(p)
        assert rec.box == box


class TestAppearance:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(7, 5))
        p = tmp_path / "app.txt"
        write_appearance(p, feats)
        back = read_appearance(p)
        assert back.shape == (7, 5)
        assert np.array_equal(back, feats)

    def test_empty_rows(self, tmp_path):
        p = tmp_path / "app.txt"
        write_appearance(p, np.zeros((0, 4)))
        back = read_appearance(p)
        assert back.shape == (0, 4)

    def test_header_required(self, tmp_path):
        p = tmp_path / "app.txt"
        p.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_appearance(p)

    def test_row_width_checked(self, tmp_path):
        p = tmp_path / "app.txt"
        write_appearance(p, np.zeros((2, 3)))
        p.write_text(p.read_text() + "1.0,2.0\n")
        with pytest.raises(ValueError, match="expected 3"):
            read_appearance(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, bad):
        p = tmp_path / "app.txt"
        write_appearance(p, np.zeros((2, 3)))
        lines = p.read_text().splitlines()
        lines[2] = f"0.0,{bad},0.0"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3.*finite"):
            read_appearance(p)


class TestToDetections:
    def test_builds_detections_with_appearance(self):
        records = [
            MotRecord(1, 4, 0.0, 0.0, 5.0, 5.0, 0.9, -1, 0.8),
            MotRecord(2, 4, 1.0, 0.0, 5.0, 5.0, 1.5, -1, -1.0),
        ]
        feats = np.arange(6.0).reshape(2, 3)
        dets = to_detections(records, feats, use_gt_ids=True)
        assert dets[0].gt_id == 4
        assert dets[0].visibility == 0.8
        assert np.array_equal(dets[0].appearance, feats[0])
        assert dets[1].confidence == 1.0  # clipped
        assert dets[1].visibility == 1.0  # absent -> fully visible

    def test_without_gt_ids(self):
        records = [MotRecord(1, 4, 0.0, 0.0, 5.0, 5.0, 1.0)]
        (det,) = to_detections(records)
        assert det.gt_id is None

    def test_row_count_mismatch(self):
        records = [MotRecord(1, 1, 0.0, 0.0, 5.0, 5.0, 1.0)]
        with pytest.raises(ValueError, match="appearance rows"):
            to_detections(records, np.zeros((2, 3)))


class TestDescriptions:
    def test_instance_template(self):
        attrs = InstanceAttributes("male", "red", "black")
        assert compose_instance_description(attrs) == (
            "A male person wearing a red shirt and black pants"
        )

    def test_instance_template_other_values(self):
        attrs = InstanceAttributes("female", "blue", "white")
        assert compose_instance_description(attrs) == (
            "A female person wearing a blue shirt and white pants"
        )

    def test_scene_template(self):
        attrs = SceneAttributes("medium", "static", "on a sunny day")
        assert compose_scene_description(attrs) == (
            "A scene captured by a static camera from a medium viewpoint on a sunny day"
        )

    def test_scene_template_other_values(self):
        attrs = SceneAttributes("low", "moving", "at night")
        assert compose_scene_description(attrs) == (
            "A scene captured by a moving camera from a low viewpoint at night"
        )

    def test_missing_attribute_rejected(self):
        with pytest.raises(ValueError, match="shirt_color"):
            InstanceAttributes("male", "", "black")

    def test_empty_condition_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            SceneAttributes("low", "static", "  ")

    def test_bad_viewpoint_rejected(self):
        with pytest.raises(ValueError, match="viewpoint"):
            SceneAttributes("overhead", "static", "at night")

    def test_injective_over_vocabulary(self):
        genders = ("male", "female")
        colors = ("red", "blue", "green", "black", "white", "yellow")
        seen = set()
        for g in genders:
            for s in colors:
                for p in colors:
                    seen.add(compose_instance_description(InstanceAttributes(g, s, p)))
        assert len(seen) == len(genders) * len(colors) ** 2


class TestAnnotations:
    def make_set(self):
        return AnnotationSet(
            scene=SceneAttributes("high", "moving", "indoor"),
            instances={
                3: InstanceAttributes("female", "green", "black"),
                1: InstanceAttributes("male", "red", "white"),
            },
        )

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ann.json"
        original = self.make_set()
        write_annotations(p, original)
        back = read_annotations(p)
        assert back == original

    def test_duplicate_track_id_rejected(self, tmp_path):
        p = tmp_path / "ann.json"
        p.write_text(
            '{"format": "langtrack-annotations", "version": 1,'
            ' "scene": {"viewpoint": "low", "camera": "static", "condition": "x"},'
            ' "instances": {"1": {"gender": "male", "shirt_color": "red", "pant_color": "black"},'
            '               "1": {"gender": "female", "shirt_color": "blue", "pant_color": "white"}}}'
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_annotations(p)

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "ann.json"
        p.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError, match="format"):
            read_annotations(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "ann.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            read_annotations(p)


class TestEmbeddingFixture:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        store = LanguageEmbeddingStore({
            "A male person wearing a red shirt and black pants": rng.normal(size=6),
            "A scene captured by a static camera from a low viewpoint at night": rng.normal(size=6),
        })
        p = tmp_path / "emb.json"
        write_embedding_fixture(p, store)
        back = read_embedding_fixture(p)
        assert back.descriptions() == store.descriptions()
        for desc in store.descriptions():
            assert np.array_equal(back.lookup(desc), store.lookup(desc))

    def test_mixed_dims_rejected(self, tmp_path):
        p = tmp_path / "emb.json"
        p.write_text(
            '{"format": "langtrack-embeddings", "version": 1,'
            ' "entries": {"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]}}'
        )
        with pytest.raises(ValueError):
            read_embedding_fixture(p)

    def test_empty_fixture_rejected(self, tmp_path):
        p = tmp_path / "emb.json"
        p.write_text('{"format": "langtrack-embeddings", "version": 1, "entries": {}}')
        with pytest.raises(ValueError, match="no entries"):
            read_embedding_fixture(p)
