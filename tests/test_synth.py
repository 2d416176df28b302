import numpy as np
import pytest

from langtrack.data_io import (
    InstanceAttributes,
    SceneAttributes,
    compose_instance_description,
)
from langtrack.synth import (
    COLORS,
    GENDERS,
    SynthConfig,
    apply_domain_shift,
    attribute_prototype,
    embedding_store_for,
    gen_sequence,
    identity_profile,
    pseudo_text_encoder,
    rotation_profile,
)

SCENE = SceneAttributes("medium", "static", "on a sunny day")


def center(det):
    left, top, width, height = det.box
    return (left + width / 2.0, top + height / 2.0)


def small_cfg(**kw):
    base = dict(num_objects=3, num_frames=20, appearance_dim=8, seed=7)
    base.update(kw)
    return SynthConfig(**base)


def default_domain(dim=8):
    return identity_profile("outdoor-A", SCENE, dim)


class TestConfig:
    def test_rates_must_be_below_one(self):
        with pytest.raises(ValueError, match="occlusion_rate"):
            small_cfg(occlusion_rate=1.0)

    def test_num_objects_positive(self):
        with pytest.raises(ValueError, match="num_objects"):
            small_cfg(num_objects=0)

    def test_negative_velocity_scale_rejected(self):
        with pytest.raises(ValueError, match="velocity_scale"):
            small_cfg(velocity_scale=-1.0)

    @pytest.mark.parametrize("name", [
        "arena_width", "arena_height", "velocity_scale", "appearance_noise",
        "occlusion_rate", "detection_drop_rate", "box_jitter",
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_float_fields_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_cfg(**{name: value})


class TestGenSequence:
    def test_deterministic_per_seed(self):
        cfg = small_cfg()
        domain = default_domain()
        dets_a, ann_a = gen_sequence(cfg, domain)
        dets_b, ann_b = gen_sequence(cfg, domain)
        assert ann_a == ann_b
        assert len(dets_a) == len(dets_b)
        for a, b in zip(dets_a, dets_b):
            assert a.frame == b.frame
            assert a.gt_id == b.gt_id
            assert a.box == b.box
            assert np.array_equal(a.appearance, b.appearance)

    def test_zero_rates_full_coverage(self):
        dets, _ = gen_sequence(small_cfg(), default_domain())
        assert len(dets) == 3 * 20
        per_object = {}
        for d in dets:
            per_object.setdefault(d.gt_id, set()).add(d.frame)
        assert all(frames == set(range(1, 21)) for frames in per_object.values())

    def test_boxes_stay_inside_arena(self):
        cfg = small_cfg(num_frames=100, velocity_scale=25.0)
        dets, _ = gen_sequence(cfg, default_domain())
        for d in dets:
            left, top, w, h = d.box
            assert left >= 0.0 and top >= 0.0
            assert left + w <= cfg.arena_width + 1e-9
            assert top + h <= cfg.arena_height + 1e-9

    def test_box_jitter_varies_sizes_around_fixed_centers(self):
        plain, _ = gen_sequence(small_cfg(), default_domain())
        jittered, _ = gen_sequence(small_cfg(box_jitter=0.15), default_domain())
        sizes = {}
        for p, j in zip(plain, jittered):
            assert p.frame == j.frame and p.gt_id == j.gt_id
            pc, jc = center(p), center(j)
            assert pc[0] == pytest.approx(jc[0], abs=1e-9)
            assert pc[1] == pytest.approx(jc[1], abs=1e-9)
            assert 0.85 * p.box[2] - 1e-9 <= j.box[2] <= 1.15 * p.box[2] + 1e-9
            sizes.setdefault(j.gt_id, set()).add(round(j.box[2], 6))
        assert all(len(widths) > 1 for widths in sizes.values())

    def test_zero_jitter_keeps_sizes_constant(self):
        dets, _ = gen_sequence(small_cfg(), default_domain())
        sizes = {}
        for d in dets:
            sizes.setdefault(d.gt_id, set()).add(d.box[2:])
        assert all(len(s) == 1 for s in sizes.values())

    def test_bad_jitter_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(box_jitter=0.6)
        with pytest.raises(ValueError):
            small_cfg(box_jitter=-0.1)

    def test_one_box_per_frame_per_object(self):
        dets, _ = gen_sequence(small_cfg(detection_drop_rate=0.2), default_domain())
        seen = set()
        for d in dets:
            key = (d.frame, d.gt_id)
            assert key not in seen
            seen.add(key)

    def test_occlusion_removes_episodes(self):
        cfg = small_cfg(num_frames=60, occlusion_rate=0.3)
        dets, _ = gen_sequence(cfg, default_domain())
        assert len(dets) < 3 * 60
        # hidden stretches span at least 3 consecutive frames
        for gt_id in (1, 2, 3):
            frames = sorted(d.frame for d in dets if d.gt_id == gt_id)
            gaps = [b - a for a, b in zip(frames, frames[1:]) if b - a > 1]
            assert all(g - 1 >= 3 for g in gaps)

    def test_attributes_unique_per_sequence(self):
        cfg = small_cfg(num_objects=10)
        _, ann = gen_sequence(cfg, default_domain())
        tuples = [(a.gender, a.shirt_color, a.pant_color) for a in ann.instances.values()]
        assert len(set(tuples)) == len(tuples)
        assert set(ann.instances) == set(range(1, 11))
        assert ann.scene == SCENE

    def test_same_attributes_same_prototype_across_sequences(self):
        # two sequences with different seeds: objects sharing an attribute
        # tuple must still be closer in appearance than unrelated objects
        proto_a = attribute_prototype(InstanceAttributes("male", "red", "black"), 16)
        proto_b = attribute_prototype(InstanceAttributes("male", "red", "black"), 16)
        proto_c = attribute_prototype(InstanceAttributes("female", "blue", "white"), 16)
        assert np.array_equal(proto_a, proto_b)
        assert abs(proto_a @ proto_c) < 0.9

    def test_shared_shirt_color_correlates_prototypes(self):
        same_shirt = [
            attribute_prototype(InstanceAttributes(g, "red", p), 32)
            for g in GENDERS for p in COLORS[:3]
        ]
        sims = [
            float(a @ b)
            for i, a in enumerate(same_shirt)
            for b in same_shirt[i + 1:]
        ]
        assert np.mean(sims) > 0.3

    def test_domain_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            gen_sequence(small_cfg(), default_domain(dim=16))


class TestPseudoTextEncoder:
    def test_deterministic(self):
        a = pseudo_text_encoder("A male person wearing a red shirt and black pants", 64, 3)
        b = pseudo_text_encoder("A male person wearing a red shirt and black pants", 64, 3)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for desc in ("abc", "", "A female person wearing a blue shirt and white pants"):
            v = pseudo_text_encoder(desc, 32, 0)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_distinct_descriptions_nearly_orthogonal(self):
        vecs = [pseudo_text_encoder(f"description number {i}", 512, 0) for i in range(100)]
        sims = []
        for i in range(100):
            for j in range(i + 1, 100):
                sims.append(abs(float(vecs[i] @ vecs[j])))
        assert float(np.mean(sims)) < 0.15

    def test_master_seed_changes_vectors(self):
        a = pseudo_text_encoder("same words", 32, 0)
        b = pseudo_text_encoder("same words", 32, 1)
        assert not np.allclose(a, b)

    def test_dim_validated(self):
        with pytest.raises(ValueError, match="dim"):
            pseudo_text_encoder("x", 1, 0)


class TestDomainShift:
    def test_same_profile_is_identity(self):
        dets, _ = gen_sequence(small_cfg(), default_domain())
        domain = default_domain()
        out = apply_domain_shift(dets, domain, domain)
        for a, b in zip(dets, out):
            assert np.array_equal(a.appearance, b.appearance)
            assert a.box == b.box

    def test_shift_then_inverse_recovers(self):
        cfg = small_cfg()
        src = default_domain()
        dst = rotation_profile("indoor-B", SceneAttributes("low", "moving", "indoor"), 8, 47.0)
        dets, _ = gen_sequence(cfg, src)
        there = apply_domain_shift(dets, src, dst)
        back = apply_domain_shift(there, dst, src)
        for a, b in zip(dets, back):
            assert np.allclose(a.appearance, b.appearance, atol=1e-9)
            assert a.gt_id == b.gt_id

    def test_geometry_and_ids_untouched(self):
        cfg = small_cfg()
        src = default_domain()
        dst = rotation_profile("indoor-B", SCENE, 8, 60.0)
        dets, _ = gen_sequence(cfg, src)
        out = apply_domain_shift(dets, src, dst)
        for a, b in zip(dets, out):
            assert a.box == b.box
            assert a.frame == b.frame
            assert a.gt_id == b.gt_id
            assert not np.allclose(a.appearance, b.appearance)

    def test_sixty_degree_rotation_decorrelates(self):
        # rotation alone pins the cosine at cos(60 deg) = 0.5; the profile's
        # translation pushes typical appearances strictly below it
        cfg = small_cfg(appearance_dim=32)
        src = identity_profile("outdoor-A", SCENE, 32)
        dst = rotation_profile("indoor-B", SCENE, 32, 60.0, translation_scale=1.5)
        dets, _ = gen_sequence(cfg, src)
        out = apply_domain_shift(dets, src, dst)
        cosines = [
            float(a.appearance @ b.appearance)
            / (np.linalg.norm(a.appearance) * np.linalg.norm(b.appearance))
            for a, b in zip(dets, out)
        ]
        assert float(np.mean(cosines)) < 0.5

    @pytest.mark.parametrize("degrees, scale", [
        (np.nan, 1.0), (np.inf, 1.0), (60.0, np.nan), (60.0, -np.inf),
    ])
    def test_non_finite_rotation_rejected(self, degrees, scale):
        with pytest.raises(ValueError, match="finite"):
            rotation_profile("shifted", SCENE, 8, degrees, translation_scale=scale)

    def test_dim_mismatch_rejected(self):
        src = default_domain(8)
        dst = default_domain(8)
        dets, _ = gen_sequence(small_cfg(), src)
        with pytest.raises(ValueError, match="dim"):
            apply_domain_shift(dets, src, identity_profile("x", SCENE, 16))
        with pytest.raises(ValueError, match="dim"):
            apply_domain_shift(dets, identity_profile("x", SCENE, 16), dst)


class TestEmbeddingStore:
    def test_covers_all_descriptions(self):
        _, ann = gen_sequence(small_cfg(), default_domain())
        store = embedding_store_for([ann], 16, master_seed=5)
        for attrs in ann.instances.values():
            desc = compose_instance_description(attrs)
            assert desc in store
            assert np.array_equal(store.lookup(desc), pseudo_text_encoder(desc, 16, 5))

    def test_regenerates_bit_identically(self):
        _, ann = gen_sequence(small_cfg(), default_domain())
        a = embedding_store_for([ann], 16, master_seed=5)
        b = embedding_store_for([ann], 16, master_seed=5)
        assert a.descriptions() == b.descriptions()
        for desc in a.descriptions():
            assert np.array_equal(a.lookup(desc), b.lookup(desc))

    def test_empty_annotations_rejected(self):
        with pytest.raises(ValueError, match="no annotations"):
            embedding_store_for([], 16)
