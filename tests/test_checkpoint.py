"""FDQ1 container: bit-exact round trips and corruption handling."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdq.checkpoint import MAGIC, load_tensors, save_tensors
from fdq.errors import CheckpointError
from fdq.seq2seq import Seq2Seq
from fdq.value import (BackwardRegressor, LengthRegressor, OutcomePredictor,
                       PartialBackwardEnsemble)


def sample_tensors(seed=0):
    r = np.random.default_rng(seed)
    return {
        "enc/w_ih": r.normal(size=(8, 3)).astype(np.float32),
        "enc/b": r.normal(size=(8,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
        "empty": np.zeros((0,), dtype=np.float32),
    }


class TestRoundTrip:
    def test_values_and_shapes(self, tmp_path):
        path = tmp_path / "m.fdq"
        tensors = sample_tensors()
        save_tensors(path, tensors)
        back = load_tensors(path)
        assert list(back) == list(tensors)
        for name in tensors:
            assert back[name].shape == tensors[name].shape
            np.testing.assert_array_equal(back[name], tensors[name])

    def test_bytes_stable_through_round_trip(self, tmp_path):
        a, b = tmp_path / "a.fdq", tmp_path / "b.fdq"
        save_tensors(a, sample_tensors())
        save_tensors(b, load_tensors(a))
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.fdq"
        save_tensors(path, {"x": np.ones((2,), dtype=np.float32)})
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<I", raw[4:8])[0] == 1
        assert struct.unpack("<Q", raw[8:16])[0] == 1
        assert struct.unpack("<Q", raw[16:24])[0] == 1  # len("x")
        assert raw[24:25] == b"x"
        # rank 1, dim 2, then two f32 ones
        assert struct.unpack("<Q", raw[25:33])[0] == 1
        assert struct.unpack("<Q", raw[33:41])[0] == 2
        np.testing.assert_array_equal(
            np.frombuffer(raw[41:49], dtype="<f4"), [1.0, 1.0])
        assert len(raw) == 49

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_random_payloads(self, tmp_path_factory, seed):
        r = np.random.default_rng(seed)
        tensors = {
            f"t{i}": r.normal(size=tuple(r.integers(1, 4, size=r.integers(0, 3)))).astype(np.float32)
            for i in range(int(r.integers(1, 5)))
        }
        path = tmp_path_factory.mktemp("ckpt") / "m.fdq"
        save_tensors(path, tensors)
        back = load_tensors(path)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(back[name], arr)


class TestTypeTags:
    def test_tag_round_trip(self, tmp_path):
        path = tmp_path / "q.fdq"
        reg = LengthRegressor(2, seed=1)
        reg.save(path)
        named = load_tensors(path)
        assert list(named)[0] == "__type__/length_q"
        assert named["__type__/length_q"].shape == (0,)
        assert list(named)[1:] == list(reg.to_named())
        assert LengthRegressor.load(path).hidden == 2

    def test_untagged_rejected(self, tmp_path):
        path = tmp_path / "q.fdq"
        save_tensors(path, LengthRegressor(2, seed=1).to_named())
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: type tags []")):
            LengthRegressor.load(path)

    def test_double_tag_rejected(self, tmp_path):
        path = tmp_path / "q.fdq"
        save_tensors(path, {"__type__/length_q": np.zeros(0),
                            "__type__/b": np.zeros(0),
                            **LengthRegressor(2, seed=1).to_named()})
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: type tags ['length_q', 'b']")):
            LengthRegressor.load(path)


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fdq"
        save_tensors(path, {"x": np.ones(1, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_tensors(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.fdq"
        save_tensors(path, {"x": np.ones(1, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_tensors(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "m.fdq"
        save_tensors(path, {"x": np.ones((4,), dtype=np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.fdq"
        save_tensors(path, {"x": np.ones(1, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_tensors(path)


class TestModelFormat:
    @pytest.mark.parametrize("model", [
        Seq2Seq(6, 7, hidden=4, seed=1),
        LengthRegressor(4, seed=1),
        OutcomePredictor(6, 7, hidden=4, seed=1),
        PartialBackwardEnsemble(((1, None),), {0: Seq2Seq(7, 6, hidden=4)}),
    ], ids=lambda m: type(m).__name__)
    def test_missing_meta_is_checkpoint_error(self, tmp_path, model):
        path = tmp_path / "m.fdq"
        model.save(path)
        named = load_tensors(path)
        del named["meta"]
        save_tensors(path, named)
        with pytest.raises(CheckpointError, match="meta"):
            type(model).load(path)

    @pytest.mark.parametrize("model", [
        Seq2Seq(6, 7, hidden=4, seed=1),
        LengthRegressor(4, seed=1),
        BackwardRegressor(4, seed=1),
        OutcomePredictor(6, 7, hidden=4, seed=1),
        PartialBackwardEnsemble(((1, None),), {0: Seq2Seq(7, 6, hidden=4)}),
    ], ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("damage", ["drop_parameter", "empty_meta",
                                        "extra_meta", "non_integral_meta",
                                        "extra_tensor", "scalar_meta"])
    def test_broken_model_file_names_the_file(self, tmp_path, model, damage):
        # the meta damages and the extra tensor leave every tensor the
        # model wants in place, with the shape it wants
        path = tmp_path / "m.fdq"
        model.save(path)
        named = load_tensors(path)
        if damage == "empty_meta":
            named["meta"] = np.zeros(0, dtype=np.float32)
        elif damage == "extra_meta":
            named["meta"] = np.append(named["meta"], np.float32([99, 7]))
        elif damage == "non_integral_meta":
            named["meta"][0] += 0.5  # e.g. hidden 4.5 for a regression head
        elif damage == "extra_tensor":
            named["junk/w"] = np.zeros(2, dtype=np.float32)
        elif damage == "scalar_meta":
            named["meta"] = named["meta"][0]
        else:
            del named[[k for k in named if k != "meta"
                       and not k.startswith("__type__/")][-1]]
        save_tensors(path, named)
        with pytest.raises(CheckpointError, match=f"{path}: not a "):
            type(model).load(path)

    def test_group_for_an_empty_bucket_names_the_file(self, tmp_path):
        # bucket 1 is marked empty in meta, yet the file holds a b1/ group
        model = PartialBackwardEnsemble(((1, 2), (3, None)),
                                        {0: Seq2Seq(7, 6, hidden=4)})
        path = tmp_path / "m.fdq"
        model.save(path)
        named = load_tensors(path)
        named.update({"b1/" + k[3:]: v for k, v in list(named.items())
                      if k.startswith("b0/")})
        save_tensors(path, named)
        with pytest.raises(CheckpointError, match=f"{path}: not a .*b1/"):
            PartialBackwardEnsemble.load(path)


class TestFuzz:
    @pytest.mark.parametrize("model", [
        Seq2Seq(5, 6, hidden=1, seed=1),
        LengthRegressor(1, seed=1),
        BackwardRegressor(1, seed=1),
        OutcomePredictor(5, 6, hidden=1, seed=1),
        PartialBackwardEnsemble(((1, 2), (3, None)),
                                {1: Seq2Seq(6, 5, hidden=1)}),
    ], ids=lambda m: type(m).__name__)
    def test_every_truncation_and_byte_flip_loads_or_is_refused(
            self, tmp_path, model):
        path = tmp_path / "m.fdq"
        model.save(path)
        raw = path.read_bytes()
        damaged = [raw[:n] for n in range(len(raw))]
        damaged += [raw[:i] + bytes([raw[i] ^ 0x80]) + raw[i + 1:]
                    for i in range(len(raw))]
        loaded = 0
        for blob in damaged:
            path.write_bytes(blob)
            try:
                type(model).load(path)
                loaded += 1
            except CheckpointError:
                pass
        # a sign flip in a weight still loads
        assert 0 < loaded < len(raw)
