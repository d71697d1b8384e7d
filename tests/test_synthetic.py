"""Synthetic data generator tests: determinism, correlation, split discipline."""

import numpy as np
import pytest

from facestream.fileio import DataError, read_features, read_motion
from facestream.synthetic import (
    SplitEntry,
    band_limited_noise,
    default_topology,
    generate_pair,
    make_splits,
    read_manifest,
    write_dataset,
)


class TestTopology:
    def test_basis_respects_regions(self):
        topo = default_topology()
        non_lip = np.setdiff1d(np.arange(topo.num_vertices), topo.lip_indices)
        assert np.all(topo.basis["mouth_open"][non_lip] == 0)
        assert np.all(topo.basis["lip_round"][non_lip] == 0)
        non_upper = np.setdiff1d(np.arange(topo.num_vertices),
                                 topo.upper_face_indices)
        assert np.all(topo.basis["brow_raise"][non_upper] == 0)

    def test_mouth_open_moves_pair_apart(self):
        topo = default_topology()
        upper, lower = topo.mouth_pair
        gap = topo.basis["mouth_open"][upper] - topo.basis["mouth_open"][lower]
        assert np.linalg.norm(gap) > 0

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            default_topology(num_vertices=5)

    @pytest.mark.parametrize("num_vertices", [20.5, 30.0, True])
    def test_non_integer_vertex_count_rejected(self, num_vertices):
        """A float leaked numpy's ``TypeError`` from ``np.zeros``."""
        with pytest.raises(ValueError, match="num_vertices must be an integer"):
            default_topology(num_vertices)


class TestGeneratePair:
    def test_deterministic(self):
        topo = default_topology()
        a_feat, a_motion = generate_pair(3, 50, topo, 3, 1)
        b_feat, b_motion = generate_pair(3, 50, topo, 3, 1)
        np.testing.assert_array_equal(a_feat.features, b_feat.features)
        np.testing.assert_array_equal(a_motion.offsets, b_motion.offsets)

    def test_shapes(self):
        topo = default_topology()
        feats, motion = generate_pair(0, 37, topo, 3, 0, feature_width=16)
        assert motion.offsets.shape == (37, 30, 3)
        assert feats.features.shape == (37, 16)

    def test_mouth_envelope_correlates_with_opening(self):
        """The generated mouth opening must track the mouth-open envelope."""
        topo = default_topology()
        _, motion = generate_pair(5, 500, topo, 3, 0)
        upper, lower = topo.mouth_pair
        opening = np.linalg.norm(motion.offsets[:, upper] - motion.offsets[:, lower],
                                 axis=1)
        # reconstruct the envelope's shape from the opening itself is circular;
        # instead check against an independently regenerated envelope stream
        from facestream.synthetic import _ENVELOPE_TAG
        rng = np.random.default_rng([5, _ENVELOPE_TAG])
        env = band_limited_noise(rng, 500, 25.0)
        env = env - env.min()
        rho = np.corrcoef(env, opening)[0, 1]
        assert rho > 0.9

    def test_speakers_shift_features(self):
        topo = default_topology()
        a, _ = generate_pair(1, 40, topo, 3, 0)
        b, _ = generate_pair(1, 40, topo, 3, 2)
        assert np.abs(a.features - b.features).max() > 0

    def test_bad_speaker_rejected(self):
        topo = default_topology()
        with pytest.raises(ValueError):
            generate_pair(0, 10, topo, 2, 5)

    @pytest.mark.parametrize("name, num_frames, speaker", [
        ("num_frames", 2.5, 0), ("num_frames", True, 0),
        ("speaker_index", 10, 1.0), ("speaker_index", 10, True)])
    def test_non_integer_arguments_rejected(self, name, num_frames, speaker):
        """A float or bool count leaked numpy's ``TypeError``, and
        ``speaker_index=True`` made a pair for speaker 1."""
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            generate_pair(1, num_frames, default_topology(), 3, speaker)

    @pytest.mark.parametrize("name, value, error", [
        ("num_speakers", 2.5, "an integer"), ("num_speakers", True, "an integer"),
        ("num_speakers", 0, ">= 1"), ("feature_width", 2.5, "an integer"),
        ("feature_width", 0, ">= 1"), ("seed", 2.5, "an integer"),
        ("seed", True, "an integer"), ("seed", -1, ">= 0"),
        ("dataset_seed", 2.5, "an integer"), ("dataset_seed", True, "an integer"),
        ("dataset_seed", -1, ">= 0")])
    def test_bad_counts_and_seeds_rejected(self, name, value, error):
        """``num_speakers=2.5`` made a pair, and a float feature width or
        seed leaked numpy's ``TypeError``."""
        args = {"seed": 1, "num_frames": 10, "topology": default_topology(),
                "num_speakers": 3, "speaker_index": 0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be {error}"):
            generate_pair(**args)

    @pytest.mark.parametrize("fps", ["25", np.nan, np.inf, 0.0, -25.0, True])
    def test_bad_fps_rejected(self, fps):
        """``fps="25"`` leaked a ``TypeError``, and ``fps=nan`` "cannot
        convert float NaN to integer"."""
        with pytest.raises(ValueError, match="fps must be finite and positive"):
            generate_pair(1, 10, default_topology(), 3, 0, fps=fps)


class TestBandLimitedNoise:
    def test_high_frequency_energy_suppressed(self):
        rng = np.random.default_rng(0)
        x = band_limited_noise(rng, 2000, fps=25.0)   # 4 Hz cutoff
        spectrum = np.abs(np.fft.rfft(x - x.mean())) ** 2
        freqs = np.fft.rfftfreq(2000, d=1 / 25.0)
        low = spectrum[freqs <= 4.0].sum()
        high = spectrum[freqs > 8.0].sum()
        assert low > 10 * high

    def test_unit_scale(self):
        rng = np.random.default_rng(1)
        x = band_limited_noise(rng, 1000, 25.0)
        assert x.std() == pytest.approx(1.0, abs=1e-9)


class TestSplits:
    def test_default_counts(self):
        entries = make_splits()
        by_split = {"train": 0, "val": 0, "test": 0}
        for e in entries:
            by_split[e.split] += 1
            assert e.num_frames == 240
        assert by_split == {"train": 8, "val": 2, "test": 2}

    def test_disjoint_ids_and_seeds(self):
        entries = make_splits()
        ids = [e.sequence_id for e in entries]
        seeds = [e.seed for e in entries]
        assert len(set(ids)) == len(ids)
        assert len(set(seeds)) == len(seeds)

    def test_unseen_speaker_in_test(self):
        entries = make_splits(num_speakers=3)
        train_speakers = {e.speaker_index for e in entries if e.split == "train"}
        test_speakers = {e.speaker_index for e in entries if e.split == "test"}
        assert test_speakers - train_speakers  # at least one held out

    def test_dataset_write_is_reproducible(self, tmp_path):
        topo = default_topology()
        entries = make_splits(num_train=2, num_val=1, num_test=1, num_frames=20)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_dataset(dir_a, entries, topo, num_speakers=3)
        write_dataset(dir_b, entries, topo, num_speakers=3)
        for f in sorted(dir_a.iterdir()):
            assert (dir_b / f.name).read_bytes() == f.read_bytes()

    def test_manifest_round_trip(self, tmp_path):
        topo = default_topology()
        entries = make_splits(num_train=2, num_val=1, num_test=1, num_frames=20)
        write_dataset(tmp_path, entries, topo, num_speakers=3)
        loaded = read_manifest(tmp_path)
        assert [e.sequence_id for e in loaded] == [e.sequence_id for e in entries]
        assert [e.seed for e in loaded] == [e.seed for e in entries]

    def test_dataset_files_read_back(self, tmp_path):
        """Each entry's motion and feature files hold ``generate_pair``'s
        arrays cast to float32, and the rate the dataset was written at."""
        topo = default_topology()
        entries = make_splits(num_train=2, num_val=1, num_test=1, num_frames=20)
        write_dataset(tmp_path, entries, topo, num_speakers=3, fps=30.0, feature_width=8,
                      dataset_seed=4)
        assert read_manifest(tmp_path) == entries
        for e in entries:
            feats, motion = generate_pair(e.seed, e.num_frames, topo, 3, e.speaker_index,
                                          fps=30.0, feature_width=8, dataset_seed=4)
            for read, path, expected in (
                    (read_motion, f"{e.sequence_id}.sgmo", motion.offsets),
                    (read_features, f"{e.sequence_id}.sgaf", feats.features)):
                values, rate = read(tmp_path / path)
                assert rate == 30.0
                assert values.dtype == np.float64
                assert values.tobytes() == expected.astype(np.float32).astype(np.float64).tobytes()

    @pytest.mark.parametrize("entries", [
        [SplitEntry("a", "train", 1, 0, 20), SplitEntry("a", "test", 2, 1, 20)],
        [SplitEntry("a", "train", 1, 0, 20), SplitEntry("b", "bogus", 2, 1, 20)],
        [SplitEntry("a b", "train", 1, 0, 20)],
        [SplitEntry("#a", "train", 1, 0, 20)],
        [SplitEntry("../a", "train", 1, 0, 20)],
    ], ids=["repeated id", "unknown split", "id with a space", "comment id",
            "id with a separator"])
    def test_dataset_that_does_not_read_back_rejected(self, tmp_path, entries):
        """The repeated id wrote ``a.sgmo`` twice, the second over the first,
        the separator wrote ``a.sgmo`` beside the dataset's directory, and
        each wrote a manifest that ``read_manifest`` rejects or reads as
        other entries."""
        with pytest.raises(DataError):
            write_dataset(tmp_path / "data", entries, default_topology(), num_speakers=3)
        assert list(tmp_path.iterdir()) == []

    def test_refused_pair_leaves_no_file(self, tmp_path):
        """``y``'s speaker is out of range: ``x.sgaf`` and ``x.sgmo`` were
        written before ``generate_pair`` refused it."""
        entries = [SplitEntry("x", "train", 1, 0, 20), SplitEntry("y", "train", 2, 7, 20)]
        with pytest.raises(ValueError, match="speaker index out of range"):
            write_dataset(tmp_path / "data", entries, default_topology(), num_speakers=3)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["num_train", "num_val", "num_test",
                                       "num_speakers", "num_frames"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_non_integer_counts_rejected(self, field, value):
        """``num_train=2.5`` leaked a ``TypeError`` from ``range``, and a
        float speaker count gave float speaker indices."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_splits(**{field: value})

    @pytest.mark.parametrize("value, error", [(2.5, "an integer"), (True, "an integer"),
                                              (-1, ">= 0")])
    def test_bad_base_seed_rejected(self, value, error):
        with pytest.raises(ValueError, match=f"base_seed must be {error}"):
            make_splits(base_seed=value)

    @pytest.mark.parametrize("field", ["num_train", "num_val", "num_test", "num_frames"])
    def test_empty_split_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            make_splits(**{field: 0})

    @pytest.mark.parametrize("second", ["a train 1 0 240", "a test 2 5 240"])
    def test_repeated_sequence_id_rejected(self, tmp_path, second):
        """Both rows would write ``a.sgmo``, the second over the first."""
        (tmp_path / "manifest.txt").write_text(
            f"# id split seed speaker frames\na train 1 0 240\n{second}\n",
            encoding="utf-8")
        with pytest.raises(DataError, match="'a' repeats") as caught:
            read_manifest(tmp_path)
        assert second in str(caught.value)

    @pytest.mark.parametrize("row", ["a train x 0 240", "a train 1 0 2.5",
                                     "a train 1 0", "a train 1 0 240 extra",
                                     "a train -1 -3 0", "a train -1 0 240",
                                     "a train 1 -3 240", "a train 1 0 0",
                                     "a bogus 2 5 240", "a Train 2 5 240",
                                     "../a train 1 0 240"])
    def test_bad_manifest_row_rejected(self, tmp_path, row):
        path = tmp_path / "manifest.txt"
        path.write_text(f"# id split seed speaker frames\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError) as caught:
            read_manifest(tmp_path)
        assert str(path) in str(caught.value)
        assert row in str(caught.value)
