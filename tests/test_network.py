"""Structural tests for the pyramid network, fusion, coordconv, refinement,
and the checkpoint format."""

import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import retained
from fusiondepth import autodiff as ad
from fusiondepth import network as nw


def small_cfg(**overrides):
    base = dict(num_levels=3, widths=(4, 6, 8))
    base.update(overrides)
    return nw.ArchConfig(**base)


def rand_image(seed, h=32, w=32):
    return ad.Tensor(np.random.default_rng(seed).uniform(0, 1, (1, 3, h, w)))


class TestArchConfig:
    def test_rejects_short_pyramid(self):
        with pytest.raises(nw.ConfigError):
            nw.ArchConfig(num_levels=2, widths=(4, 4))

    def test_rejects_width_mismatch(self):
        with pytest.raises(nw.ConfigError):
            nw.ArchConfig(num_levels=3, widths=(4, 4))


class TestEncoder:
    def test_default_shapes_to_level5(self):
        net = nw.DepthNet(nw.ArchConfig(), seed=0)
        pyramid = net.encode(rand_image(0, 64, 64))
        assert [t.shape for t in pyramid] == [
            (1, 16, 32, 32),
            (1, 32, 16, 16),
            (1, 64, 8, 8),
            (1, 128, 4, 4),
            (1, 256, 2, 2),
        ]

    def test_l3_shapes(self):
        net = nw.DepthNet(small_cfg(), seed=0)
        pyramid = net.encode(rand_image(1, 32, 32))
        assert [t.shape[2:] for t in pyramid] == [(16, 16), (8, 8), (4, 4)]

    def test_indivisible_extents_error_names_multiple(self):
        net = nw.DepthNet(small_cfg(), seed=0)
        with pytest.raises(nw.ConfigError, match="2\\^3 = 8"):
            net.encode(ad.Tensor(np.zeros((1, 3, 20, 20))))

    def test_zero_image_gives_constant_interior_activations(self):
        net = nw.DepthNet(small_cfg(), seed=3)
        level1 = net.encode(ad.Tensor(np.zeros((1, 3, 32, 32))))[0]
        interior = level1.values[:, :, 2:-2, 2:-2]
        per_channel = interior.reshape(interior.shape[1], -1)
        assert np.all(per_channel == per_channel[:, :1])


class TestCoordChannels:
    def test_radius_zero_at_center(self):
        base = nw.coord_channels(4, 4)
        assert base[0, 2, 2, 2] == 0.0

    def test_corner_radius_before_normalization(self):
        h = w = 4
        base = nw.coord_channels(h, w)
        corners = [(0, 0), (0, w - 1.0), (h - 1.0, 0), (h - 1.0, w - 1.0)]
        rmax = max(np.hypot(r - h / 2, c - w / 2) for r, c in corners)
        assert base[0, 2, 0, 0] * rmax == pytest.approx(np.sqrt(4.0 + 4.0), abs=1e-12)
        assert base[0, 2].max() <= 1.0 and base[0, 2].min() >= 0.0

    def test_row_ramp_h3(self):
        base = nw.coord_channels(3, 5)
        assert np.array_equal(base[0, 0, :, 0], np.array([-1.0, 0.0, 1.0]))

    def test_column_ramp_spans_unit_interval(self):
        base = nw.coord_channels(3, 5)
        assert base[0, 1, 0, 0] == -1.0 and base[0, 1, 0, -1] == 1.0

    def test_augment_appends_exactly_three(self):
        feat = rand_image(2, 8, 8)
        out = nw.coordconv_augment(feat)
        assert out.shape == (1, 6, 8, 8)
        assert np.array_equal(out.values[:, :3], feat.values)

    def test_channels_are_weight_independent(self):
        feat = rand_image(3, 8, 8)
        a = nw.coordconv_augment(feat).values[:, 3:]
        b = nw.coordconv_augment(rand_image(4, 8, 8)).values[:, 3:]
        assert np.array_equal(a, b)


class TestFusion:
    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_boundary_law(self, L):
        for p in range(1, L + 1):
            members = nw.fusion_members(p, L)
            assert len(members) == min(p + 1, L) - max(p - 1, 1) + 1
            assert members == sorted(members)

    def test_level1_drops_missing_lower_neighbor(self):
        assert nw.fusion_members(1, 5) == [1, 2]
        assert nw.fusion_members(5, 5) == [4, 5]
        assert nw.fusion_members(3, 5) == [2, 3, 4]

    def test_budgets_consume_width_exactly(self):
        same, per = nw.channel_budgets(16, 2)
        assert same == 8 and per == 4
        assert same + 2 * per == 16

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 256), st.integers(1, 2))
    def test_reservation_keeps_same_level_widest(self, width, n):
        same, per = nw.channel_budgets(width, n)
        assert same + n * per == width
        assert per >= 1
        assert same >= per

    def test_fused_extents_match_level(self):
        net = nw.DepthNet(small_cfg(), seed=0)
        pyramid = net.encode(rand_image(5, 32, 32))
        augmented = [nw.coordconv_augment(f) for f in pyramid]
        for p, block in enumerate(net.fusion, start=1):
            fused = block(augmented)
            assert fused.shape == pyramid[p - 1].shape

    def test_disabled_fusion_is_single_conv(self):
        net = nw.DepthNet(small_cfg(fusion=False), seed=0)
        names = [name for name, _ in net.parameters()]
        assert not any(".proj_" in n for n in names)
        assert "fusion.1.conv.weight" in names
        out = net.forward(rand_image(6, 32, 32))
        assert out.maps[0].shape == (1, 1, 32, 32)


class TestDecoderAndHeads:
    def test_four_scale_shapes(self):
        net = nw.DepthNet(nw.ArchConfig(), seed=0)
        out = net.forward(rand_image(7, 64, 64))
        assert [m.shape[2:] for m in out.maps] == [(64, 64), (32, 32), (16, 16), (8, 8)]

    def test_values_inside_d_max(self):
        assert nw.ArchConfig.d_max == 0.3
        out = nw.DepthNet(small_cfg(), seed=1).forward(rand_image(8, 32, 32))
        for m in out.maps:
            assert m.values.min() > 0.0 and m.values.max() < nw.ArchConfig.d_max

    def test_no_coordconv_shrinks_each_stage_by_three(self):
        with_cc = nw.DepthNet(small_cfg(), seed=0)
        without = nw.DepthNet(small_cfg(coordconv=False), seed=0)
        for p in with_cc.decoder:
            if p >= 1:
                gap = with_cc.decoder[p].weight.shape[1] - without.decoder[p].weight.shape[1]
                assert gap == 3

    @pytest.mark.parametrize("L,size", [(3, 32), (4, 32), (5, 64)])
    def test_four_scales_for_all_depths(self, L, size):
        widths = tuple(4 * 2 ** i for i in range(L))
        net = nw.DepthNet(nw.ArchConfig(num_levels=L, widths=widths), seed=0)
        out = net.forward(rand_image(9, size, size))
        assert [m.shape[2:] for m in out.maps] == [(size >> s, size >> s) for s in range(4)]

    def test_forward_deterministic(self):
        net = nw.DepthNet(small_cfg(), seed=2)
        img = rand_image(10, 32, 32)
        a = net.forward(img)
        b = net.forward(img)
        for ma, mb in zip(a.maps, b.maps):
            assert np.array_equal(ma.values, mb.values)


class TestRefinement:
    def test_doubles_extents(self):
        net = nw.DepthNet(small_cfg(), seed=0)
        out = net.forward(rand_image(11, 32, 32))
        for s in range(3):
            assert out.maps[s].shape[2] == 2 * out.maps[s + 1].shape[2]

    def test_channel_trace(self):
        net = nw.DepthNet(small_cfg(), seed=0)
        for s in (2, 1, 0):
            module = net.refine[s]
            assert module.res1.weight.shape[0] == 32
            assert module.res2.weight.shape[0] == 32
            assert module.res3.weight.shape[0] == 16
            assert module.res4.weight.shape[0] == 4
        out = net.forward(rand_image(12, 32, 32))
        assert all(m.shape[1] == 1 for m in out.maps)

    def test_zero_residual_branch_is_identity(self):
        rng = np.random.default_rng(13)
        coarse = ad.Tensor(rng.uniform(-3.0, 3.0, (1, 1, 8, 8)))  # logits
        features = [ad.Tensor(rng.uniform(-1.0, 1.0, (1, 4, 8, 8))) for _ in range(2)]

        # trained-like weights, then both correction tails zeroed: the features drop out
        module = nw.DepthNet(small_cfg(), seed=4).refine[0]
        for layer in (module.sr, module.res1, module.res2, module.res3, module.res4, module.post1, module.post2):
            layer.weight.values += rng.normal(0.0, 0.1, layer.weight.shape)
            layer.bias.values += rng.normal(0.0, 0.1, layer.bias.shape)
        for tail in (module.res4, module.post2):
            tail.weight.values[...] = 0.0
            tail.bias.values[...] = 0.0
        a, b = (module(coarse, f).values for f in features)
        assert np.array_equal(a, b)

        # a fresh module starts at nearest upsampling of the logits, exactly
        fresh = nw.DepthNet(small_cfg(), seed=4).refine[0]
        refined = fresh(coarse, features[0]).values
        assert np.array_equal(refined, np.repeat(np.repeat(coarse.values, 2, axis=2), 2, axis=3))

    def test_fresh_refinement_upsamples_the_coarsest_map(self):
        # one sigmoid per scale over nearest-upsampled logits: every finer map repeats maps[3]
        maps = [m.values for m in nw.DepthNet(small_cfg(), seed=5).forward(rand_image(15, 32, 32)).maps]
        for s in (2, 1, 0):
            factor = 1 << (3 - s)
            assert np.array_equal(maps[s], np.repeat(np.repeat(maps[3], factor, axis=2), factor, axis=3))

    def test_disabled_refinement_uses_direct_heads(self):
        net = nw.DepthNet(small_cfg(refinement=False), seed=0)
        names = [name for name, _ in net.parameters()]
        assert not any(n.startswith("refine.") for n in names)
        assert {"head.0.conv.weight", "head.1.conv.weight", "head.2.conv.weight", "head.3.conv.weight"} <= set(names)
        out = net.forward(rand_image(14, 32, 32))
        assert out.maps[0].shape == (1, 1, 32, 32)


class TestTapeRetention:
    def test_forward_holds_only_its_tensors_values(self):
        net = nw.DepthNet(nw.ArchConfig(), seed=0)
        image = rand_image(9, 64, 64)
        net.forward(image)  # fills the coordinate-channel cache
        out, held = retained(lambda: net.forward(image))
        values, seen, stack = {}, set(), list(out.maps)
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                if t._op != "leaf":
                    values[id(t.values)] = t.values.nbytes
                stack.extend(t._parents)
        assert held <= 1.1 * sum(values.values())


class TestParameterAudit:
    def names(self, **overrides):
        return {name for name, _ in nw.DepthNet(small_cfg(**overrides), seed=0).parameters()}

    def test_fusion_flag_touches_only_fusion_projections(self):
        delta = self.names() ^ self.names(fusion=False)
        assert delta and all(".proj_" in n for n in delta)

    def test_coordconv_flag_touches_no_names(self):
        assert self.names() == self.names(coordconv=False)

    def test_refinement_flag_swaps_heads_for_refiners(self):
        delta = self.names() ^ self.names(refinement=False)
        expected_prefixes = ("refine.", "head.0.", "head.1.", "head.2.", "decoder.0.")
        assert delta and all(n.startswith(expected_prefixes) for n in delta)

    # sha256 of repr([(name, shape), ...]) in construction order
    @pytest.mark.parametrize("cfg,digest", [
        (nw.ArchConfig(), "ee26d61c84b2e81ad3f316a290f7bf5860cb62be50cda55ae0f3fcea9411dbd4"),
        (nw.ArchConfig(coordconv=False), "e2d01a14cdd9ea6f68ead2c9c917efe5ea120e87eabb22a74917aa5815359d45"),
        (nw.ArchConfig(fusion=False), "6011e13676ddfefe0b5be096ca28cd3a2e8ce2ef61b9738af052d2480be9a3bc"),
        (nw.ArchConfig(refinement=False), "a4d475d5743ac9ac75aec50a15db991279420996f2fd470cd35873c43aa406c5"),
        (small_cfg(), "be59c76b66172e2fa2e5390a7d876f2f52a1faa9725db5243247519098407388"),
    ], ids=["default_arch", "no_coordconv", "no_fusion", "no_refinement", "small"])
    def test_table_is_the_checkpoint_format(self, cfg, digest):
        # a checkpoint stores only payloads in this order, so a reordered,
        # renamed or reshaped parameter would load silently into the wrong layer
        table = [(name, t.shape) for name, t in nw.DepthNet(cfg, seed=0).parameters()]
        assert hashlib.sha256(repr(table).encode()).hexdigest() == digest, (
            "the parameter table changed, which changes the checkpoint format: "
            "bump network.CHECKPOINT_MAGIC and update this digest")


class TestCheckpoint:
    def roundtrip(self, tmp_path, cfg, tag="net"):
        net = nw.DepthNet(cfg, seed=5)
        img = rand_image(15, 32, 32)
        before = net.forward(img)
        path = tmp_path / f"{tag}.fdpt"
        nw.save_checkpoint(path, net)
        (hlen,) = struct.unpack_from("<I", path.read_bytes(), 5)
        assert path.stat().st_size == 9 + hlen + 8 * sum(t.values.size for _, t in net.parameters())
        loaded = nw.load_checkpoint(path)
        after = loaded.forward(img)
        for ma, mb in zip(before.maps, after.maps):
            assert np.array_equal(ma.values, mb.values)
        assert loaded.cfg == cfg
        return loaded

    def test_roundtrip_bit_exact(self, tmp_path):
        self.roundtrip(tmp_path, small_cfg())

    @pytest.mark.parametrize("cfg", [nw.ArchConfig(num_levels=4, widths=(4, 6, 8, 10)), nw.ArchConfig()],
                             ids=["four_levels", "default_arch"])
    def test_roundtrip_stores_arch(self, tmp_path, cfg):
        self.roundtrip(tmp_path, cfg)

    def test_roundtrip_infers_ablated_configs(self, tmp_path):
        loaded = self.roundtrip(tmp_path, small_cfg(fusion=False), tag="nofuse")
        assert not loaded.cfg.fusion
        loaded = self.roundtrip(tmp_path, small_cfg(coordconv=False), tag="nocc")
        assert not loaded.cfg.coordconv
        loaded = self.roundtrip(tmp_path, small_cfg(refinement=False), tag="noref")
        assert not loaded.cfg.refinement

    def test_load_keeps_every_record(self, tmp_path):
        # trained-like weights: the refinement modules no longer sit at the identity
        net = nw.DepthNet(small_cfg(), seed=5)
        rng = np.random.default_rng(1)
        for _, t in net.parameters():
            t.values += rng.normal(0.0, 0.1, t.shape)
        path = tmp_path / "moved.fdpt"
        nw.save_checkpoint(path, net)
        loaded = nw.load_checkpoint(path)
        assert [n for n, _ in loaded.parameters()] == [n for n, _ in net.parameters()]
        for (_, a), (_, b) in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a.values, b.values)

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path):
        path = tmp_path / "net.fdpt"
        net = nw.DepthNet(small_cfg(), seed=0)
        nw.save_checkpoint(path, net)
        before = path.read_bytes()
        broken = nw.DepthNet(small_cfg(), seed=1)
        broken.parameters()[-1][1].values = None  # fails after every other record is written
        with pytest.raises(AttributeError):
            nw.save_checkpoint(path, broken)
        assert os.listdir(tmp_path) == ["net.fdpt"]
        assert path.read_bytes() == before
        for (_, a), (_, b) in zip(net.parameters(), nw.load_checkpoint(path).parameters()):
            assert np.array_equal(a.values, b.values)

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.fdpt"
        path.write_bytes(b"NOPE1234")
        with pytest.raises(nw.CheckpointError, match="magic"):
            nw.read_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        net = nw.DepthNet(small_cfg(), seed=0)
        path = tmp_path / "trunc.fdpt"
        nw.save_checkpoint(path, net)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(nw.CheckpointError):
            nw.read_checkpoint(path)

    def test_short_payload_read_rejected(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken: only the payload read's byte count shows it
        path = tmp_path / "shrunk.fdpt"
        nw.save_checkpoint(path, nw.DepthNet(small_cfg(), seed=0))
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat

        def fstat_before_shrinking(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], st.st_size + 8, *st[7:]))

        monkeypatch.setattr(os, "fstat", fstat_before_shrinking)
        with pytest.raises(nw.CheckpointError, match=r"payload of 'refine.0.post2.bias' at byte \d+ runs past end"):
            nw.read_checkpoint(path)

    def test_read_holds_the_file_once(self, tmp_path):
        path = tmp_path / "default.fdpt"
        nw.save_checkpoint(path, nw.DepthNet(nw.ArchConfig(), seed=0))
        tracemalloc.start()
        try:
            nw.read_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * path.stat().st_size

    @pytest.mark.parametrize("corrupt,match", [
        pytest.param(lambda h, r: b"FDPT1" + r, r"bad magic b'FDPT1', expected b'FDPT5'", id="fdpt1"),
        pytest.param(lambda h, r: b"FDPT2" + join(h, r)[5:], r"bad magic b'FDPT2', expected b'FDPT5'", id="fdpt2"),
        pytest.param(lambda h, r: b"FDPT3" + join(h + b"arch.d_max = 0.3\n", r)[5:],
                     r"bad magic b'FDPT3', expected b'FDPT5'", id="fdpt3"),
        pytest.param(lambda h, r: b"FDPT4" + join(h, fdpt4_records(r))[5:],
                     r"bad magic b'FDPT4', expected b'FDPT5'", id="fdpt4"),
        pytest.param(lambda h, r: join(h, r)[:7], "truncated header length at byte 5", id="short_header_length"),
        pytest.param(lambda h, r: nw.CHECKPOINT_MAGIC + struct.pack("<I", 1 << 20) + h + r,
                     "header at byte 9 runs past end", id="header_past_end"),
        pytest.param(lambda h, r: join(h + b"\xff\n", r), "header at byte 9: .*utf-8", id="header_not_utf8"),
        pytest.param(lambda h, r: join(h + b"arch.depth = 2\n", r), "byte 9: .*unknown key 'arch.depth'",
                     id="unknown_header_key"),
        pytest.param(lambda h, r: join(h.replace(b"levels = 3", b"levels = three"), r),
                     "byte 9: .*bad value for arch.num_levels", id="bad_header_value"),
        pytest.param(lambda h, r: join(h.replace(b"levels = 3", b"levels = 2"), r),
                     "byte 9: header:1: arch.num_levels: need at least 3 levels, got 2", id="invalid_arch"),
        pytest.param(lambda h, r: join(h.replace(b"arch.refinement", b"# arch.refinement"), r),
                     "byte 9: missing arch.refinement", id="missing_header_key"),
        pytest.param(lambda h, r: join(h.replace(b"widths = 4,", b"widths = 1,"), r),
                     "stored architecture cannot be built: level 1 width 1 too narrow", id="unbuildable_arch"),
        # the no-fusion net has 42 fewer values, so its last payload ends 336 bytes early
        pytest.param(lambda h, r: join(h.replace(b"fusion = true", b"fusion = false"), r),
                     r"336 trailing bytes at byte \d+, after the last payload", id="header_disagrees_with_records"),
        # the (4e9, 3, 3, 3) array would need 864 GB: its size is checked against the file first
        pytest.param(lambda h, r: join(h.replace(b"widths = 4,", b"widths = 4000000000,"), r),
                     r"payload of 'encoder.1.conv1.weight' at byte \d+ runs past end", id="huge_extents"),
        pytest.param(lambda h, r: join(h, r[:-8]),
                     r"payload of 'refine.0.post2.bias' at byte \d+ runs past end", id="truncated_payload"),
        pytest.param(lambda h, r: join(h, r + bytes(8)), r"8 trailing bytes at byte \d+", id="trailing_bytes"),
    ])
    def test_malformed_rejected_with_path_and_offset(self, tmp_path, corrupt, match):
        path = tmp_path / "bad.fdpt"
        nw.save_checkpoint(path, nw.DepthNet(small_cfg(), seed=0))
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 5)
        path.write_bytes(corrupt(blob[9:9 + hlen], blob[9 + hlen:]))
        tracemalloc.start()
        try:
            with pytest.raises(nw.CheckpointError, match=match) as info:
                nw.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(path) in str(info.value)
        assert peak < len(blob) + 2**20  # no array sized by the header's widths alone


# helpers over the two parts of a saved small_cfg() checkpoint after its magic
# and header length: the header text h and the payload bytes r


def join(header, records):
    return nw.CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header + records


def fdpt4_records(records):
    """The FDPT4 form of the payloads: each led by a uint16 name length, the name and 4 uint64 extents."""
    out, off = [], 0
    for name, t in nw.DepthNet(small_cfg(), seed=0).parameters():
        end = off + t.values.nbytes
        out += [struct.pack("<H", len(name)), name.encode(), struct.pack("<4Q", *t.shape), records[off:end]]
        off = end
    return b"".join(out)
