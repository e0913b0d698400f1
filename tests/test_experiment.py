"""The orientation-only ablation is data: every magnitude byte is 128,
which stacks to exactly the full volume with its magnitude channels 0.0."""

import numpy as np

from conftest import random_pairs
from mostream import fusion
from mostream.augment import apply_crop, random_multiscale_crop
from mostream.experiment import orientation_only_dataset
from mostream.fusion import PredictParams, predict_from_pairs
from mostream.mos import MosPair
from mostream.net import TinyNet, desk_net_config
from mostream.pipeline import Clip, ClipDataset, TrainPipeline
from mostream.raster import make_rng
from mostream.volume import StackSpec, sample_train_start, stack_volume


def random_clip(seed, video_id="clip", class_index=0, count=12, side=24):
    return Clip(video_id, class_index, random_pairs(seed, count, side, side))


def ablate(clip):
    return orientation_only_dataset(ClipDataset(["a"], [[clip]], [])).train_by_class[0][0]


def zeroed_magnitude_volume(pairs, start, spec):
    """Reference: the full volume with its magnitude channels set to 0.0."""
    vol = stack_volume(pairs, start, spec)
    vol[0::2] = 0.0
    return vol


def test_dataset_keeps_all_but_magnitude():
    train = [[random_clip(1, "a/0", 0)], [random_clip(2, "b/0", 1)]]
    test = [random_clip(3, "a/1", 0, side=16)]
    dataset = ClipDataset(["a", "b"], train, test)
    ablated = orientation_only_dataset(dataset)
    assert ablated.classes == ["a", "b"]
    assert [(c.video_id, c.class_index) for c in ablated.clips] == [(c.video_id, c.class_index) for c in dataset.clips]
    blanks = {}
    for full, clip in zip(dataset.clips, ablated.clips):
        for (mag, ori), pair in zip(full.pairs, clip.pairs):
            assert isinstance(pair, MosPair) and pair.orientation is ori
            assert pair.magnitude.dtype == np.uint8 and pair.magnitude.shape == mag.shape
            assert np.all(pair.magnitude == 128) and np.any(mag != 128)
            blanks.setdefault(mag.shape, set()).add(id(pair.magnitude))
    assert {shape: len(ids) for shape, ids in blanks.items()} == {(24, 24): 1, (16, 16): 1}


def test_train_volume_equals_zeroed_full_volume():
    spec = StackSpec(10)
    pipe = TrainPipeline(stack=spec, out_side=16)
    for seed in range(20):
        clip = random_clip(seed)
        vol = pipe.make_volume(ablate(clip), make_rng(100 + seed))
        rng = make_rng(100 + seed)
        start = sample_train_start(len(clip.pairs), spec.stack_length, rng)
        reference = zeroed_magnitude_volume(clip.pairs, start, spec)
        expected = apply_crop(reference, random_multiscale_crop(24, 24, rng, 16))
        assert vol.tobytes() == expected.tobytes()  # signed zeros included


def test_predicted_scores_equal_zeroed_full_volume(monkeypatch):
    clip = random_clip(21)
    model = TinyNet(desk_net_config(input_shape=(20, 16, 16), num_classes=4), make_rng(22))
    params = PredictParams(stack=StackSpec(10), out_side=16)
    scores = predict_from_pairs(model, ablate(clip).pairs, params).scores
    monkeypatch.setattr(fusion, "stack_volume", zeroed_magnitude_volume)
    expected = predict_from_pairs(model, clip.pairs, params).scores
    assert scores.tobytes() == expected.tobytes()
