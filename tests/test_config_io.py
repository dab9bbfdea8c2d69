from dataclasses import fields

import numpy as np
import pytest

from meshsrr.config import (ExperimentConfig, REFERENCE_GRID, _SCHEMA,
                            default_config_text, parse_config, preset)
from meshsrr.errors import ConfigError, FileFormatError
from meshsrr.fileio import (read_fem_image, read_flow, read_grid_image,
                            read_mesh, read_pgm16_raw, read_values, write_flow,
                            write_mesh, write_pgm16, write_values)
from meshsrr.flow import FlowField, FlowParams
from meshsrr.grid import GridImage
from meshsrr.phantoms import COARSE, LUNG, T_SHAPE, SceneSpec, disc_mesh


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.scene.kind == T_SHAPE
        assert cfg.grid == REFERENCE_GRID
        assert cfg.snr_db == 10.0

    def test_default_text_round_trips(self):
        assert parse_config(default_config_text()) == ExperimentConfig()

    @pytest.mark.parametrize("section, part", [("scene", SceneSpec), ("flow", FlowParams)])
    def test_every_field_is_set_by_a_key(self, section, part):
        keyed = {name for (sec, _), (_, name) in _SCHEMA.items() if sec == section}
        assert {f.name for f in fields(part)} == keyed

    def test_single_override(self):
        cfg = parse_config("[degrade]\nsnr_db = -5\n")
        assert cfg.snr_db == -5.0
        base = ExperimentConfig()
        assert cfg.scene == base.scene and cfg.mesh_density == base.mesh_density

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[degrade]\nsnr_db -5\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="snr_bd"):
            parse_config("[degrade]\nsnr_bd = -5\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="solver"):
            parse_config("[solver]\nmu = 0.1\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("mu = 0.1\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="frames"):
            parse_config("[scene]\nframes = lots\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# comment\n[scene]\nkind = LUNG  # inline\n\n")
        assert cfg.scene.kind == LUNG


class TestPresets:
    def test_four_presets(self):
        assert preset("ex1a").scene.kind == T_SHAPE
        assert preset("ex1a").snr_db == 10.0
        assert preset("ex1b").mesh_density == COARSE
        assert preset("ex1b").snr_db == -5.0
        assert preset("ex2a").scene.kind == LUNG
        assert preset("ex2b").scene.kind == LUNG
        assert preset("ex2b").snr_db == -5.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            preset("ex3a")

    def test_kernel_scaling_with_grid(self):
        from dataclasses import replace
        assert preset("ex1a").resolved_kernel().size == 61
        assert replace(preset("ex1a"), grid=100).resolved_kernel().size == 31


class TestMeshFiles(object):
    def test_round_trip(self, tmp_path):
        mesh = disc_mesh(COARSE)
        path = tmp_path / "m.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MESH 1\n3 1\n")
        with pytest.raises(FileFormatError, match="FEMESH"):
            read_mesh(p)

    def test_bad_counts_reported(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("FEMESH 1\n3 1\n0 0\n1 0\n0 1\n")
        with pytest.raises(FileFormatError, match="data lines"):
            read_mesh(p)

    def test_out_of_domain_rejected_not_rescaled(self, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("FEMESH 1\n3 1\n0 0\n5 0\n0 5\n0 1 2\n")
        with pytest.raises(Exception, match="rescale"):
            read_mesh(p)

    @pytest.mark.parametrize("text", ["FEMESH 1\n-1 1\n", "FEMESH 1\n3 -3\n"],
                             ids=["negative-nodes", "negative-elements"])
    def test_negative_counts_rejected(self, tmp_path, text):
        p = tmp_path / "neg.txt"
        p.write_text(text)
        with pytest.raises(FileFormatError, match="counts must be >= 0"):
            read_mesh(p)

    def test_node_index_beyond_int64_rejected(self, tmp_path):
        p = tmp_path / "huge.txt"
        p.write_text("FEMESH 1\n3 1\n-1 -1\n1 -1\n0 1\n0 1 99999999999999999999999\n")
        with pytest.raises(FileFormatError):
            read_mesh(p)

    def test_values_round_trip(self, tmp_path):
        path = tmp_path / "v.txt"
        vals = np.array([1.5, -2.25, 1e-17])
        write_values(vals, path)
        assert np.array_equal(read_values(path), vals)

    def test_fem_image_count_checked(self, tmp_path):
        mesh = disc_mesh(COARSE)
        path = tmp_path / "v.txt"
        write_values(np.zeros(3), path)
        with pytest.raises(Exception, match="count"):
            read_fem_image(mesh, path)


class TestFlowFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        f = FlowField(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        path = tmp_path / "f.flow"
        write_flow(f, path)
        back = read_flow(path)
        assert np.array_equal(back.u, f.u) and np.array_equal(back.v, f.v)

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.flow"
        p.write_text("FLO 1\n2 2\n")
        with pytest.raises(FileFormatError, match="FLOW"):
            read_flow(p)

    def test_negative_dimensions_rejected(self, tmp_path):
        p = tmp_path / "neg.flow"
        p.write_text("FLOW 1\n-1 -1\n0 0\n")
        with pytest.raises(FileFormatError, match="width and height"):
            read_flow(p)

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "zero.flow"
        p.write_text("FLOW 1\n0 5\n")
        with pytest.raises(FileFormatError, match="width and height"):
            read_flow(p)

    def test_non_finite_component_rejected(self, tmp_path):
        p = tmp_path / "nan.flow"
        p.write_text("FLOW 1\n1 1\nnan 0\n")
        with pytest.raises(FileFormatError, match="non-finite"):
            read_flow(p)


class TestPgm16:
    def test_constant_image_all_identical(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm16(GridImage(np.full((4, 6), 3.5)), path)
        raster = read_pgm16_raw(path)
        assert (raster == raster[0, 0]).all()
        back = read_grid_image(path)
        assert np.abs(back.data - 3.5).max() == 0.0

    def test_round_trip_reproduces_quantized_values_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        img = GridImage(rng.standard_normal((9, 7)) * 4.0)
        path = tmp_path / "r.pgm"
        write_pgm16(img, path)
        back = read_grid_image(path)
        again = tmp_path / "r2.pgm"
        write_pgm16(back, again)
        assert np.array_equal(read_pgm16_raw(path), read_pgm16_raw(again))

    def test_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(2)
        img = GridImage(rng.standard_normal((16, 16)))
        path = tmp_path / "q.pgm"
        write_pgm16(img, path)
        back = read_grid_image(path)
        bound = (img.data.max() - img.data.min()) / 65535
        assert np.abs(back.data - img.data).max() <= bound

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        img = GridImage(rng.standard_normal((8, 8)))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm16(img, p1)
        write_pgm16(img, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("raster", [
        b"P5\n0 0\n65535\n",
        b"P5 -1 -2 65535\n\x00\x01\x00\x02",
    ], ids=["zero-size", "negative-size"])
    def test_nonpositive_size_rejected(self, tmp_path, raster):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raster)
        with pytest.raises(FileFormatError, match="width and height"):
            read_pgm16_raw(path)

    def test_odd_length_pixel_data_is_truncated(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P5\n1 3 65535\n\x00\x00\x00\x00\x00")
        with pytest.raises(FileFormatError, match="truncated"):
            read_pgm16_raw(path)

    def test_sidecar_overflowing_to_infinity_rejected(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\xff\xff")
        path.with_suffix(".scale.txt").write_text("offset = 0\nscale = 1e308\n")
        with pytest.raises(FileFormatError, match="non-finite"):
            read_grid_image(path)

    @pytest.mark.parametrize("key", ["offset", "scale"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_sidecar_non_finite_value_named(self, tmp_path, key, value):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
        fields = {"offset": "0", "scale": "1", key: value}
        path.with_suffix(".scale.txt").write_text(
            f"offset = {fields['offset']}\nscale = {fields['scale']}\n")
        line = 1 if key == "offset" else 2
        with pytest.raises(FileFormatError, match=f"scale.txt:{line}: non-finite {key} "):
            read_grid_image(path)

    def test_sidecar_values_whose_sum_overflows_read(self, tmp_path):
        """offset + scale overflows, but a zero raster reads back as the offset."""
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00\x00")
        path.with_suffix(".scale.txt").write_text("offset = 1e308\nscale = 1e308\n")
        assert (read_grid_image(path).data == 1e308).all()

    def test_emit_images_sequence(self, tmp_path):
        from meshsrr.fileio import emit_images
        rng = np.random.default_rng(4)
        frames = [GridImage(rng.standard_normal((5, 5))) for _ in range(3)]
        paths = emit_images(frames, tmp_path / "seq", prefix="up")
        assert [p.name for p in paths] == ["up_t000.pgm", "up_t001.pgm", "up_t002.pgm"]
        for p, img in zip(paths, frames):
            back = read_grid_image(p)
            bound = (img.data.max() - img.data.min()) / 65535
            assert np.abs(back.data - img.data).max() <= bound
