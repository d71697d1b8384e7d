"""File format round trips and determinism of writers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facestream.codec import CodecConfig, MotionCodec
from facestream.fileio import (
    DataError,
    check_real,
    parse_manifest,
    read_checkpoint,
    read_features,
    read_motion,
    write_checkpoint,
    write_csv,
    write_features,
    write_motion,
)


class TestCheckReal:
    @pytest.mark.parametrize("value", [25.0, 16000, np.float32(25.0), np.int64(16000)])
    def test_finite_positive_reals_accepted(self, value):
        check_real(value, "rate")

    def test_zero_only_with_zero_ok(self):
        """Zero passes only with ``zero_ok``; the message names the bound
        and the refused value."""
        check_real(0.0, "weight decay", zero_ok=True)
        with pytest.raises(ValueError, match=r"^rate must be finite and positive, got 0\.0$"):
            check_real(0.0, "rate")
        with pytest.raises(ValueError,
                           match="^weight decay must be finite and non-negative, got -1$"):
            check_real(-1, "weight decay", zero_ok=True)


F32_MOTION = np.zeros((2, 3, 3), dtype=np.float32)
F32_RATE = np.float32(25.0)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory for tests that run many examples."""
    return tmp_path_factory.mktemp("scratch")


class TestMotionFormat:
    def test_round_trip(self, tmp_path):
        offsets = np.random.default_rng(0).normal(size=(7, 5, 3))
        path = tmp_path / "m.sgmo"
        write_motion(path, offsets, 25.0)
        loaded, rate = read_motion(path)
        assert rate == 25.0
        np.testing.assert_allclose(loaded, offsets, atol=1e-6)  # f32 payload

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError):
            read_motion(path)

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_motion(tmp_path / "x.sgmo", np.zeros((3, 4)), 25.0)

    def test_stored_as_a_checkpoint(self, tmp_path):
        """A float32 (T, V, 3) ``offsets`` and a 0-d float32 ``rate``, no manifest."""
        write_motion(tmp_path / "m", np.ones((2, 3, 3)), 30.0)
        tensors, manifest = read_checkpoint(tmp_path / "m")
        assert manifest == {}
        assert {name: (t.dtype, t.shape) for name, t in tensors.items()} == {
            "offsets": (np.float32, (2, 3, 3)), "rate": (np.float32, ())}
        assert tensors["rate"] == 30.0

    def test_feature_file_and_model_checkpoint_rejected(self, tmp_path):
        write_features(tmp_path / "f", np.zeros((3, 2)), 25.0)
        codec = MotionCodec(CodecConfig(vertices=3, width=8, codebook_size=4,
                                        components=2, layers=1, heads=2, ff=16))
        write_checkpoint(tmp_path / "ck", codec.store.state(), {"width": 8})
        for path in (tmp_path / "f", tmp_path / "ck"):
            with pytest.raises(DataError, match="not a motion file"):
                read_motion(path)
        write_motion(tmp_path / "m", np.zeros((2, 3, 3)), 25.0)
        with pytest.raises(DataError, match="not a feature file"):
            read_features(tmp_path / "m")

    @pytest.mark.parametrize("tensors, manifest", [
        ({"offsets": F32_MOTION.astype(np.float64), "rate": F32_RATE}, {}),
        ({"offsets": F32_MOTION.reshape(2, 9), "rate": F32_RATE}, {}),
        ({"offsets": F32_MOTION[None], "rate": F32_RATE}, {}),
        ({"offsets": F32_MOTION[..., :2], "rate": F32_RATE}, {}),
        ({"offsets": F32_MOTION, "rate": np.full(1, F32_RATE)}, {}),
        ({"offsets": F32_MOTION, "rate": np.float64(25.0)}, {}),
        ({"offsets": F32_MOTION}, {}),
        ({"offsets": F32_MOTION, "rate": F32_RATE, "extra": F32_RATE}, {}),
        ({"offsets": F32_MOTION, "rate": F32_RATE}, {"fps": 25}),
    ], ids=["float64 payload", "rank 2", "rank 4", "last extent 2", "rank-1 rate",
            "float64 rate", "no rate", "extra tensor", "manifest"])
    def test_other_archives_rejected(self, tensors, manifest, tmp_path):
        write_checkpoint(tmp_path / "m", tensors, manifest)
        with pytest.raises(DataError, match="not a motion file"):
            read_motion(tmp_path / "m")


class TestFeatureFormat:
    def test_round_trip(self, tmp_path):
        feats = np.random.default_rng(1).normal(size=(9, 4))
        path = tmp_path / "f.sgaf"
        write_features(path, feats, 25.0)
        loaded, rate = read_features(path)
        assert rate == 25.0
        np.testing.assert_allclose(loaded, feats, atol=1e-6)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "f.sgaf"
        write_features(path, np.zeros((4, 4)), 25.0)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(DataError):
            read_features(path)


class TestCheckpointFormat:
    def test_bit_exact_round_trip(self, tmp_path):
        r = np.random.default_rng(2)
        tensors = {
            "b.weights": r.normal(size=(3, 4)),
            "a.bias": r.normal(size=5),
            "idx": np.arange(6, dtype=np.int64),
            "scalar0": r.normal(size=()),
        }
        manifest = {"width": 64, "profile": "synthetic-small"}
        path = tmp_path / "ck.sgck"
        write_checkpoint(path, tensors, manifest)
        loaded, mf = read_checkpoint(path)
        assert mf == {"width": "64", "profile": "synthetic-small"}
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            np.testing.assert_array_equal(loaded[name], arr)

    def test_identical_state_identical_bytes(self, tmp_path):
        tensors = {"w": np.ones((2, 2)), "v": np.zeros(3)}
        a, b = tmp_path / "a", tmp_path / "b"
        write_checkpoint(a, tensors, {"k": 1})
        write_checkpoint(b, {k: v.copy() for k, v in tensors.items()}, {"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_float32_payload(self, tmp_path):
        tensors = {"w": np.ones((2, 2), dtype=np.float32)}
        path = tmp_path / "c"
        write_checkpoint(path, tensors, {})
        loaded, _ = read_checkpoint(path)
        assert loaded["w"].dtype == np.float32

    @pytest.mark.parametrize("tensors, manifest", [
        ({"a": np.zeros(2), "b": np.zeros(2, dtype=np.int32)}, {}),
        ({"a": np.zeros(2)}, {"k=v": 2, "note": "x\nevil = 1"}),
        ({"a": np.zeros(2)}, {1: "a", "1": "b"}),
        ({"a": np.zeros(2)}, {"note": "\ud800"}),
        ({"a": np.zeros(2)}, {"#k": 1}),
        ({"a": np.zeros(2)}, {"k": " v"}),
        ({1: np.zeros(2), "1": np.zeros(2)}, {}),
        ({"\ud800": np.zeros(2)}, {}),
        ({"a" * 2**16: np.zeros(2)}, {}),
        ({"a": np.zeros((0, 2**32))}, {}),
    ], ids=["int32 after float64", "line break", "keys 1 and '1'", "lone surrogate",
            "comment key", "padded value", "tensor names 1 and '1'", "surrogate name",
            "name beyond u16", "extent beyond u32"])
    def test_refused_write_leaves_no_file(self, tensors, manifest, tmp_path):
        """Everything is checked before the file opens: an int32 after a
        float64 left a truncated file, the line break wrote a manifest that
        read back as three other keys, and the two sets of keys 1 and '1' and
        the surrogate leaked ``TypeError`` and ``UnicodeEncodeError``."""
        with pytest.raises(DataError):
            write_checkpoint(tmp_path / "ck", tensors, manifest)
        assert not (tmp_path / "ck").exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(manifest=st.dictionaries(
        st.one_of(st.text(max_size=6), st.integers()),
        st.one_of(st.text(max_size=6), st.integers(), st.floats(allow_nan=False))))
    def test_accepted_manifest_reads_back(self, manifest, scratch):
        """The writer writes a manifest only if it reads back as
        ``{str(key): str(value)}``, and otherwise leaves no file."""
        path = scratch / "manifest"
        path.unlink(missing_ok=True)
        try:
            write_checkpoint(path, {}, manifest)
        except DataError:
            assert not path.exists()
            return
        assert read_checkpoint(path) == ({}, {str(k): str(v) for k, v in manifest.items()})


class TestManifestAndCSV:
    def test_manifest_parse(self):
        parsed = parse_manifest("a = 1\n# note\nb = two words\n")
        assert parsed == {"a": "1", "b": "two words"}

    def test_bad_manifest_line(self):
        with pytest.raises(DataError):
            parse_manifest("not a pair\n")

    @pytest.mark.parametrize("text", ["a = 1\na = 2\n", "a = 1\n a=1\n"])
    def test_repeated_manifest_key_rejected(self, text):
        """The last value of a repeated key won."""
        with pytest.raises(DataError, match="repeated manifest key 'a'"):
            parse_manifest(text)

    def test_csv_deterministic_full_precision(self, tmp_path):
        rows = [[1, 0.1 + 0.2, "x"], [2, 1e-17, "y"]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["i", "v", "s"], rows)
        write_csv(b, ["i", "v", "s"], [list(r) for r in rows])
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.splitlines()[0] == "i,v,s"
        assert repr(0.1 + 0.2) in text  # round-trippable float formatting


class TestNonFiniteInput:
    """A non-finite payload value, or a rate that is not finite and positive,
    raises ``DataError``: the writers refuse it before opening the file, and
    the readers reject a file that holds it."""

    BAD_RATE = r"rate \S+ is not finite and positive"   # the test's path holds "rate"

    # writer, reader, payload shape, payload tensor name
    WRITERS = {"motion": (write_motion, read_motion, (2, 3, 3), "offsets"),
               "features": (write_features, read_features, (3, 2), "features")}

    def forge(self, kind, path, payload, rate):
        """A file that stores ``payload`` and ``rate``, which the writer refuses."""
        name = self.WRITERS[kind][3]
        write_checkpoint(path, {name: np.asarray(payload, dtype="<f4"),
                                "rate": np.float32(rate)}, {})

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    @pytest.mark.parametrize("rate", [0.0, -25.0, np.nan, np.inf, -np.inf])
    def test_bad_rate_rejected(self, kind, rate, tmp_path):
        write, read, shape, _ = self.WRITERS[kind]
        with pytest.raises(DataError, match=self.BAD_RATE):
            write(tmp_path / kind, np.zeros(shape), rate)
        assert not (tmp_path / kind).exists()
        self.forge(kind, tmp_path / kind, np.zeros(shape), rate)
        with pytest.raises(DataError, match=self.BAD_RATE):
            read(tmp_path / kind)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, kind, value, tmp_path):
        write, read, shape, _ = self.WRITERS[kind]
        payload = np.zeros(shape)
        payload.flat[-1] = value
        with pytest.raises(DataError, match="non-finite payload"):
            write(tmp_path / kind, payload, 25.0)
        assert not (tmp_path / kind).exists()
        self.forge(kind, tmp_path / kind, payload, 25.0)
        with pytest.raises(DataError, match="non-finite payload"):
            read(tmp_path / kind)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_float32_overflow_rejected_by_the_writer(self, kind, tmp_path):
        """Values are checked as stored: finite float64 that overflows float32."""
        write, _, shape, _ = self.WRITERS[kind]
        payload = np.zeros(shape)
        payload.flat[0] = -1e300
        with pytest.raises(DataError, match="non-finite payload"):
            write(tmp_path / kind, payload, 25.0)
        with pytest.raises(DataError, match=self.BAD_RATE):
            write(tmp_path / kind, np.zeros(shape), 1e39)
        assert not (tmp_path / kind).exists()

    def test_writer_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.sgmo"
        with pytest.raises(DataError):
            write_motion(path, np.full((1, 1, 3), np.inf), -1.0)
        assert not path.exists()


class TestCorruptInput:
    """Every prefix of a valid file, and any byte flips, either parse or
    raise ``DataError``; no parser error leaks."""

    READERS = {"motion": read_motion, "features": read_features,
               "checkpoint": read_checkpoint}

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("valid")
        r = np.random.default_rng(3)
        write_motion(root / "motion", r.normal(size=(2, 3, 3)), 25.0)
        write_features(root / "features", r.normal(size=(3, 2)), 25.0)
        write_checkpoint(root / "checkpoint",
                         {"w": r.normal(size=(2, 2)), "idx": np.arange(3),
                          "h": np.ones(2, dtype=np.float32), "s": r.normal(size=())},
                         {"width": 2, "name": "tiny"})
        return root, {kind: (root / kind).read_bytes() for kind in self.READERS}

    def parses_or_rejects(self, kind, data, path):
        """A parsed motion or feature file holds finite values and a finite,
        positive rate."""
        path.write_bytes(data)
        try:
            parsed = self.READERS[kind](path)
        except DataError:
            return
        if kind != "checkpoint":
            values, rate = parsed
            assert np.isfinite(values).all() and np.isfinite(rate) and rate > 0

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_prefix(self, kind, valid):
        root, files = valid
        for end in range(len(files[kind])):
            self.parses_or_rejects(kind, files[kind][:end], root / "cut")

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_truncation_rejected(self, kind, valid):
        root, files = valid
        for keep in (6, 10, 20, len(files[kind]) - 5, len(files[kind]) - 1):
            (root / "cut").write_bytes(files[kind][:keep])
            with pytest.raises(DataError):
                self.READERS[kind](root / "cut")

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_lowered_count_rejected(self, kind, valid):
        """An archive whose tensor count is one less leaves bytes no field
        reads; it would read as one tensor fewer."""
        root, files = valid
        data = bytearray(files[kind])
        # the u32 tensor count follows the u64 manifest length and the manifest
        at = 16 + int.from_bytes(data[8:16], "little")
        data[at:at + 4] = (int.from_bytes(data[at:at + 4], "little") - 1).to_bytes(4, "little")
        (root / "short").write_bytes(bytes(data))
        with pytest.raises(DataError, match="bytes after"):
            self.READERS[kind](root / "short")

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("extra", [1, 4, 8])
    def test_trailing_bytes_rejected(self, kind, extra, valid):
        root, files = valid
        (root / "long").write_bytes(files[kind] + bytes(extra))
        with pytest.raises(DataError, match=f"{extra} bytes after"):
            self.READERS[kind](root / "long")

    def test_repeated_tensor_name_rejected(self, tmp_path):
        """The second of two tensors named "a" replaced the first."""
        path = tmp_path / "ckpt"
        write_checkpoint(path, {"a": np.zeros(2), "b": np.ones(2)}, {})
        data = path.read_bytes()
        assert data.count(b"\x01\x00b") == 1   # u16 name length, then the name
        path.write_bytes(data.replace(b"\x01\x00b", b"\x01\x00a"))
        with pytest.raises(DataError, match="repeated tensor name 'a'"):
            read_checkpoint(path)

    def test_unknown_dtype_code_rejected(self, valid):
        root, files = valid
        data = bytearray(files["checkpoint"])
        # the first tensor after the manifest and the count is "h": u16 length,
        # the name, then the dtype code
        start = 16 + int.from_bytes(data[8:16], "little") + 4
        data[start + 2 + 1] = 9
        (root / "bad").write_bytes(bytes(data))
        with pytest.raises(DataError, match="dtype code"):
            read_checkpoint(root / "bad")

    def test_empty_tensor_with_overflowing_shape_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        write_checkpoint(path, {"e": np.zeros((0, 2, 2))}, {})
        data = bytearray(path.read_bytes())
        # u16 name length, the name "e", dtype code and rank, then three u32 extents
        extents = 16 + int.from_bytes(data[8:16], "little") + 4 + 2 + 1 + 2
        data[extents + 4:extents + 12] = (2**31).to_bytes(4, "little") * 2
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="too large"):
            read_checkpoint(path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_single_byte_flip(self, kind, valid):
        """Each byte, flipped in its lowest and highest bit: an exhaustive
        sweep, so it explores the same inputs at every commit."""
        root, files = valid
        for where in range(len(files[kind])):
            for mask in (0x01, 0x80):
                data = bytearray(files[kind])
                data[where] ^= mask
                self.parses_or_rejects(kind, bytes(data), root / "flip")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(READERS)),
           flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                    st.integers(1, 255)), min_size=1, max_size=4))
    def test_byte_flips(self, kind, flips, valid):
        root, files = valid
        data = bytearray(files[kind])
        for where, mask in flips:
            data[int(where * len(data))] ^= mask
        self.parses_or_rejects(kind, bytes(data), root / "flip")
