import numpy as np
import pytest

from atsvit.dataset import (DatasetManifest, generate, load_pgm, render_sample,
                            save_pgm)
from atsvit.numerics import Rng


class TestGenerate:
    def test_same_seed_bitwise_identical(self):
        m = DatasetManifest(seed=3, n_train=32, n_val=16)
        a_train, a_val = generate(m)
        b_train, b_val = generate(m)
        for a, b in zip(a_train + a_val, b_train + b_val):
            assert np.array_equal(a.image, b.image)
            assert a.label == b.label and a.clutter == b.clutter

    def test_different_seeds_differ(self):
        a, _ = generate(DatasetManifest(seed=1, n_train=8, n_val=1))
        b, _ = generate(DatasetManifest(seed=2, n_train=8, n_val=1))
        assert any(not np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_val_split_without_train_is_identical(self):
        m = DatasetManifest(seed=3, n_train=24, n_val=12)
        _, val = generate(m)
        no_train, val_only = generate(m, train=False)
        assert no_train == []
        for a, b in zip(val, val_only, strict=True):
            assert a.image.tobytes() == b.image.tobytes()
            assert a.label == b.label and a.clutter == b.clutter

    def test_train_val_disjoint_streams(self):
        m = DatasetManifest(seed=3, n_train=16, n_val=16)
        train, val = generate(m)
        for t in train:
            for v in val:
                if t.label == v.label:
                    assert not np.array_equal(t.image, v.image)

    def test_class_balance_within_one(self):
        for n in (16, 17, 18, 19):
            train, val = generate(DatasetManifest(seed=5, n_train=n, n_val=n))
            for split in (train, val):
                counts = np.bincount([s.label for s in split], minlength=4)
                assert counts.max() - counts.min() <= 1

    def test_clutter_free_images_mostly_background(self):
        m = DatasetManifest(seed=7, n_train=64, n_val=8, clutter_scale=0.0)
        train, _ = generate(m)
        for s in train:
            assert s.clutter == 0.0
            assert (s.image == 0.0).mean() >= 0.6

    def test_pixel_range(self):
        train, _ = generate(DatasetManifest(seed=8, n_train=32, n_val=1))
        for s in train:
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.image.shape == (32, 32, 1)

    def test_images_are_float32(self):
        """The pixels are stored in the dtype the model reads: 4,096 bytes
        an image, half of float64's."""
        train, val = generate(DatasetManifest(seed=8, n_train=12, n_val=5))
        for s in train + val:
            assert s.image.dtype == np.float32 and s.image.shape == (32, 32, 1)
        assert sum(s.image.nbytes for s in train) == 12 * 4096

    def test_clutter_levels_spread(self):
        train, _ = generate(DatasetManifest(seed=9, n_train=128, n_val=1))
        levels = np.array([s.clutter for s in train])
        assert levels.min() >= 0.0 and levels.max() <= 1.0
        assert np.quantile(levels, 0.7) > np.quantile(levels, 0.3)

    def test_linear_classifier_oracle(self):
        """Task learnability: ridge regression on raw pixels clears 70%
        on the clutter-free split."""
        m = DatasetManifest(seed=11, n_train=512, n_val=256, clutter_scale=0.0)
        train, val = generate(m)
        x = np.stack([s.image.reshape(-1) for s in train])
        y = np.eye(4)[[s.label for s in train]]
        xv = np.stack([s.image.reshape(-1) for s in val])
        yv = np.array([s.label for s in val])
        w = np.linalg.solve(x.T @ x + np.eye(x.shape[1]), x.T @ y)
        top1 = (np.argmax(xv @ w, axis=1) == yv).mean()
        assert top1 >= 0.70, f"linear baseline reached only {top1:.3f}"


class TestRenderSample:
    def test_labels_draw_expected_shapes(self):
        # bars span the full width/height; crosses contain both
        hbar = render_sample(Rng(1), 0, 0.0).image[:, :, 0]
        assert (hbar.sum(axis=1) > 20).any() and not (hbar.sum(axis=0) > 20).any()
        vbar = render_sample(Rng(2), 1, 0.0).image[:, :, 0]
        assert (vbar.sum(axis=0) > 20).any() and not (vbar.sum(axis=1) > 20).any()
        cross = render_sample(Rng(3), 2, 0.0).image[:, :, 0]
        assert (cross.sum(axis=0) > 20).any() and (cross.sum(axis=1) > 20).any()

    def test_clutter_adds_pixels(self):
        clean = render_sample(Rng(4), 3, 0.0).image
        dirty = render_sample(Rng(4), 3, 0.9).image
        assert (dirty > 0).sum() > (clean > 0).sum()


class TestPgm:
    def test_zero_image(self, tmp_path):
        p = str(tmp_path / "z.pgm")
        save_pgm(p, np.zeros((8, 8)))
        assert np.array_equal(load_pgm(p), np.zeros((8, 8)))

    def test_maxval_pixel_is_one(self, tmp_path):
        p = str(tmp_path / "m.pgm")
        save_pgm(p, np.ones((4, 4)))
        assert load_pgm(p).max() == 1.0

    def test_round_trip_quantization_bound(self, tmp_path):
        img = Rng(5).uniform((16, 16))
        p = str(tmp_path / "r.pgm")
        save_pgm(p, img)
        assert np.abs(load_pgm(p) - img).max() <= 1 / 255

    def test_float32_pixels_quantize_as_float64(self, tmp_path):
        # In float32 arithmetic this value times 255 is exactly 10.5, which
        # rounds to 10; its float64 value gives 11.
        img = np.full((2, 2), np.float32(0.04117647))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_pgm(str(a), img)
        save_pgm(str(b), img.astype(np.float64))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(bytes([11] * 4))

    def test_non_square_dimensions(self, tmp_path):
        img = Rng(6).uniform((4, 10))
        p = str(tmp_path / "ns.pgm")
        save_pgm(p, img)
        assert load_pgm(p).shape == (4, 10)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError, match="magic"):
            load_pgm(str(p))

    def test_truncated(self, tmp_path):
        p = tmp_path / "trunc.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_pgm(str(p))

    @pytest.mark.parametrize("header", [b"P5 -1 32 255\n", b"P5 0 0 255\n",
                                        b"P5 4 4 65535\n"])
    def test_unsupported_header_fields(self, tmp_path, header):
        # "-1 32" once read all 1024 pixel bytes as a 32x32 image
        p = tmp_path / "neg.pgm"
        p.write_bytes(header + bytes(1024))
        with pytest.raises(ValueError, match="unsupported size"):
            load_pgm(str(p))

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = load_pgm(str(p))
        assert img.shape == (2, 2)
        assert img[1, 1] == 1.0


def test_manifest_validation():
    with pytest.raises(ValueError):
        DatasetManifest(seed=0, n_train=0, n_val=4)


def test_largest_clutter_scale_fills_at_most_the_canvas():
    """Scale 73 asks for up to 1,022 fragments, one per canvas pixel at
    most, and still renders."""
    train, _ = generate(DatasetManifest(seed=0, n_train=1, n_val=1,
                                        clutter_scale=73.0))
    assert 0.0 < train[0].clutter <= 73.0


def test_beta_without_a_quantile_names_its_fields():
    # scipy's betaincinv returns NaN for a shape parameter this large.
    with pytest.raises(ValueError, match="clutter_alpha=1e.300"):
        generate(DatasetManifest(seed=0, n_train=1, n_val=1, clutter_alpha=1e300))
