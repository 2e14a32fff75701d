"""Scene generator and NetPBM round trips: exact ground truth is the whole point."""

import re

import numpy as np
import pytest

from fusiondepth import autodiff as ad
from fusiondepth import netpbm
from fusiondepth.network import image_batch
from fusiondepth.scenes import (
    BASELINE,
    FOCAL,
    Layer,
    SceneError,
    SceneSpec,
    StereoSample,
    load_dataset,
    nonoccluded_mask,
    random_scene,
    read_manifest,
    render_stereo,
    write_dataset,
)

BF = BASELINE * FOCAL  # the rig's calibration product, disparity = 240 / depth


class TestNetpbm:
    def test_ppm_header_bytes(self, tmp_path):
        path = tmp_path / "img.ppm"
        netpbm.write_ppm(path, np.zeros((48, 64, 3)))
        assert path.read_bytes().startswith(b"P6\n64 48\n255\n")

    def test_ppm_round_trip_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (16, 20, 3))
        path = tmp_path / "img.ppm"
        netpbm.write_ppm(path, img)
        back = netpbm.read_ppm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_ppm_clips_out_of_range(self, tmp_path):
        img = np.array([[[-0.5, 0.5, 1.5]]])
        path = tmp_path / "img.ppm"
        netpbm.write_ppm(path, img)
        back = netpbm.read_ppm(path)
        assert back[0, 0, 0] == 0.0 and back[0, 0, 2] == 1.0

    def test_pgm16_integer_disparity_exact(self, tmp_path):
        disp = np.full((8, 8), 4.0)
        path = tmp_path / "disp.pgm"
        netpbm.write_pgm16(path, disp)
        assert np.array_equal(netpbm.read_pgm16(path), disp)

    def test_pgm16_big_endian_payload(self, tmp_path):
        path = tmp_path / "one.pgm"
        netpbm.write_pgm16(path, np.array([[1.0]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n1 1\n65535\n")
        assert raw[-2:] == (256).to_bytes(2, "big")

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "img.ppm"
        body = bytes(12)
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + body)
        assert netpbm.read_ppm(path).shape == (2, 2, 3)

    def test_wrong_magic_rejected(self, tmp_path):
        assert_rejected_in_both_formats(tmp_path, "P3\n2 2\n{maxval}\n", 4, "expected {magic} magic, found b'P3'")

    def test_wrong_maxval_rejected(self, tmp_path):
        assert_rejected_in_both_formats(tmp_path, "{magic}\n2 2\n127\n", 4, "only maxval {maxval} supported, got 127")

    def test_truncated_payload_rejected(self, tmp_path):
        assert_rejected_in_both_formats(tmp_path, "{magic}\n4 4\n{maxval}\n", 10, "payload holds")

    def test_non_numeric_header_field_rejected(self, tmp_path):
        assert_rejected_in_both_formats(tmp_path, "{magic}\n2 x2\n{maxval}\n", 4, "non-numeric header field b'x2'")

    def test_missing_whitespace_before_payload_rejected(self, tmp_path):
        assert_rejected_in_both_formats(tmp_path, "{magic}\n2 2\n{maxval}#", 4, "missing whitespace before payload")


# reader, magic, maxval and bytes per pixel of each netpbm format
NETPBM = {"ppm": (netpbm.read_ppm, "P6", 255, 3), "pgm": (netpbm.read_pgm16, "P5", 65535, 2)}


def assert_rejected_in_both_formats(tmp_path, header, pixels, message):
    """Each format's reader rejects `header` (its {magic} and {maxval} filled
    in) plus `pixels` zero pixels with FileFormatError naming the file."""
    for fmt, (read, magic, maxval, depth) in NETPBM.items():
        path = tmp_path / f"img.{fmt}"
        path.write_bytes(header.format(magic=magic, maxval=maxval).encode("ascii") + bytes(pixels * depth))
        expected = f"{path}: {message.format(magic=magic, maxval=maxval)}"
        with pytest.raises(netpbm.FileFormatError, match=re.escape(expected)):
            read(path)


def single_layer_spec(seed=0, depth=BF / 4, size=64):
    layer = Layer(depth=depth, texture="noise", rect=(0, 0, size, size))
    return SceneSpec(seed=seed, layers=[layer], height=size, width=size)


class TestSceneValidation:
    def test_disparity_over_width_budget(self):
        # depth 10 m gives 24 px, over 30 percent of a 64 px image... use width 64: 0.3*64=19.2
        spec = single_layer_spec(depth=BF / 24)
        with pytest.raises(SceneError):
            render_stereo(spec)

    def test_non_integer_disparity(self):
        spec = single_layer_spec(depth=BF / 4.5)
        with pytest.raises(SceneError):
            render_stereo(spec)

    def test_rect_outside_image(self):
        layer = Layer(depth=BF / 4, texture="noise", rect=(0, 60, 8, 8))
        with pytest.raises(SceneError):
            SceneSpec(seed=0, layers=[layer], height=64, width=64)

    def test_duplicate_depths(self):
        layers = [
            Layer(depth=BF / 4, texture="noise", rect=(0, 0, 64, 64)),
            Layer(depth=BF / 4, texture="checker", rect=(8, 8, 16, 16)),
        ]
        with pytest.raises(SceneError):
            SceneSpec(seed=0, layers=layers, height=64, width=64)

    def test_unknown_texture(self):
        with pytest.raises(SceneError):
            SceneSpec(seed=0, layers=[Layer(depth=BF / 4, texture="plaid", rect=(0, 0, 64, 64))],
                      height=64, width=64)

    def test_no_layers(self):
        with pytest.raises(SceneError):
            SceneSpec(seed=0, layers=[], height=64, width=64)


class TestStereoSample:
    def test_extent_mismatch_rejected(self):
        with pytest.raises(SceneError, match="stereo images differ"):
            StereoSample(np.zeros((8, 8, 3)), np.zeros((8, 16, 3)), np.zeros((8, 8)))

    def test_disparity_extent_mismatch_rejected(self):
        with pytest.raises(SceneError, match=r"disparity map is \(8, 16\), images are \(8, 8\)"):
            StereoSample(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)), np.zeros((8, 16)))


class TestRenderStereo:
    def test_single_layer_ground_truth(self):
        sample = render_stereo(single_layer_spec())
        gt = sample.gt_disparity
        assert np.array_equal(gt, np.full((64, 64), 4.0))

    def test_images_in_unit_range(self):
        sample = render_stereo(single_layer_spec(seed=3))
        for img in (sample.left, sample.right):
            assert img.min() >= 0.0 and img.max() <= 1.0
            assert img.shape == (64, 64, 3)

    def test_deterministic(self):
        a = render_stereo(single_layer_spec(seed=7))
        b = render_stereo(single_layer_spec(seed=7))
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.gt_disparity, b.gt_disparity)

    def test_seed_changes_content(self):
        a = render_stereo(single_layer_spec(seed=1))
        b = render_stereo(single_layer_spec(seed=2))
        assert not np.array_equal(a.left, b.left)

    def test_two_layer_composition(self):
        layers = [
            Layer(depth=BF / 4, texture="noise", rect=(0, 0, 64, 64)),
            Layer(depth=BF / 8, texture="checker", rect=(16, 24, 24, 20)),
        ]
        sample = render_stereo(SceneSpec(seed=5, layers=layers, height=64, width=64))
        gt = sample.gt_disparity
        assert np.array_equal(gt[16:40, 24:44], np.full((24, 20), 8.0))
        outside = gt.copy()
        outside[16:40, 24:44] = 4.0
        assert np.array_equal(outside, np.full((64, 64), 4.0))

    def test_right_image_shifted_content(self):
        # the right view of a full-frame layer is its texture shifted by d
        sample = render_stereo(single_layer_spec(seed=9))
        assert np.array_equal(sample.right[:, : 64 - 4], sample.left[:, 4:])

    def test_warp_consistency(self):
        for seed in range(5):
            spec = random_scene(seed, width=64, height=64, two_layer=seed % 2 == 1)
            sample = render_stereo(spec)
            gt = sample.gt_disparity
            offsets = ad.Tensor(-gt[None, None] / 64.0)
            recon = ad.grid_sample_bilinear(image_batch(sample.right[None]), offsets)
            mask = nonoccluded_mask(gt)
            err = np.abs(recon.values - image_batch(sample.left[None]).values)[0, :, mask].max()
            assert err < 1e-12, f"seed {seed}: warp error {err}"


class TestNonoccludedMask:
    def test_single_layer_left_strip(self):
        sample = render_stereo(single_layer_spec())
        mask = nonoccluded_mask(sample.gt_disparity)
        assert not mask[:, :4].any()  # targets fall off the left edge
        assert mask[:, 4:].all()

    def test_matches_brute_force(self):
        for seed in range(6):
            gt = render_stereo(random_scene(seed, width=64, height=64, two_layer=True)).gt_disparity
            mask = nonoccluded_mask(gt)
            h, w = gt.shape
            for i in range(h):
                for j in range(w):
                    t = j - int(round(gt[i, j]))
                    visible = t >= 0
                    if visible:
                        for k in range(w):
                            if k != j and k - int(round(gt[i, k])) == t and gt[i, k] > gt[i, j]:
                                visible = False
                                break
                    assert mask[i, j] == visible, (seed, i, j)

    def test_occlusion_band_left_of_foreground(self):
        layers = [
            Layer(depth=BF / 4, texture="noise", rect=(0, 0, 64, 64)),
            Layer(depth=BF / 8, texture="checker", rect=(0, 32, 64, 16)),
        ]
        spec = SceneSpec(seed=0, layers=layers, height=64, width=64)
        mask = nonoccluded_mask(render_stereo(spec).gt_disparity)
        # background pixels whose targets the nearer layer steals: columns 28..31
        assert not mask[:, 28:32].any()
        assert mask[:, 24:28].all()


class TestRandomScene:
    def test_disparities_in_range(self):
        for seed in range(20):
            spec = random_scene(seed, width=64, height=64, two_layer=seed % 3 == 0)
            gt = render_stereo(spec).gt_disparity
            vals = np.unique(gt)
            assert all(4 <= v <= 9 and v == int(v) for v in vals), (seed, vals)

    def test_two_layer_flag(self):
        assert len(random_scene(0, width=64, height=64, two_layer=False).layers) == 1
        assert len(random_scene(0, width=64, height=64, two_layer=True).layers) == 2


class TestDataset:
    def specs(self):
        return [random_scene(s, width=64, height=64, two_layer=s == 1) for s in range(3)]

    def test_round_trip(self, tmp_path):
        specs = self.specs()
        write_dataset(tmp_path, specs)
        samples, baseline, focal, indices = load_dataset(tmp_path)
        assert (baseline, focal) == (0.5, 480.0)
        assert indices == ["000000", "000001", "000002"]
        assert len(samples) == 3
        for spec, sample in zip(specs, samples):
            fresh = render_stereo(spec)
            assert np.abs(sample.left - fresh.left).max() <= 1.0 / 255.0
            assert np.array_equal(sample.gt_disparity, fresh.gt_disparity)

    def test_manifest_contents(self, tmp_path):
        write_dataset(tmp_path, self.specs())
        baseline, focal, indices = read_manifest(tmp_path)
        assert baseline == 0.5 and focal == 480.0
        assert indices == ["000000", "000001", "000002"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="gen-data"):
            read_manifest(tmp_path)

    @pytest.mark.parametrize("content, lineno, reason", [
        (b"000000\nbaseline=abc\nfocal=480\n", 2, "could not convert"),
        (b"baseline=0.5\nfocal=480\n\xff\xfe00\n", 3, "utf-8"),
        (b"baseline=0.5\nfocal=480\ncolor=red\n", 3, "unknown manifest key"),
        (b"baseline=nan\nfocal=480\n000000\n", 1, "baseline must be positive and finite, got 'nan'"),
        (b"baseline=0.5\nfocal=0\n000000\n", 2, "focal must be positive and finite, got '0'"),
        (b"000000\nbaseline=-1\nfocal=480\n", 2, "baseline must be positive and finite, got '-1'"),
    ])
    def test_malformed_manifest_names_line(self, tmp_path, content, lineno, reason):
        (tmp_path / "manifest.txt").write_bytes(content)
        where = f"{tmp_path / 'manifest.txt'}:{lineno}: "
        with pytest.raises(SceneError, match=re.escape(where) + f".*{reason}"):
            read_manifest(tmp_path)

    def test_empty_dataset(self, tmp_path):
        write_dataset(tmp_path, [])
        with pytest.raises(SceneError, match=re.escape(f"{tmp_path / 'manifest.txt'} lists no scenes")):
            load_dataset(tmp_path)
