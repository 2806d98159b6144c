import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rblab
from rblab import cli
from rblab.cli import EXIT_CONFIG, EXIT_NUMERICAL, main
from rblab.cliffords import generate_clifford_group, load_group
from rblab.correction import ImproperRotationError, correct_spectrum, incoherence_defect
from rblab.noise import NoiseModel, build_noisy_gateset
from rblab.twirl import build_twirl, dominant_spectrum, fidelity_curve_exact
from reference import ideal_mats

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            if "=" in line:
                key, _, value = line[2:].partition("=")
                meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return meta, columns


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "g2.npz"
    assert main(["gen-group", "--dim", "2", "--group-cache", str(path)]) == 0
    return str(path)


BAD_CHANNEL = {"channel": "depolarizing", "q": 2}
GOOD_CHANNEL = {"channel": "depolarizing", "q": 0.99}
NAN = float("nan")
INF = float("inf")
NAN_ROTATION = {"channel": "rotation", "axis": "x", "angle": NAN}
RELABELING = {"kind": "conjugation", "unitary": {"channel": "relabeling"}}


HUGE = "<5000 digits>"  # json.dumps cannot write a 5000-digit integer, so it is swapped in as text


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload).replace(json.dumps(HUGE), "7" * 5000))
    return str(path)


class TestConfigErrors:
    def test_missing_model(self, tmp_path, cache):
        cfg = write_config(tmp_path, {"dim": 2})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == EXIT_CONFIG

    def test_bad_json_reports_line(self, tmp_path, capsys, cache):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dim": 2,\n  "model": [broken\n}')
        code = main(["spectrum", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "broken.json:3" in err

    def test_unknown_model_kind(self, tmp_path, cache):
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "cosmic_rays"}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == EXIT_CONFIG

    def test_unreadable_config(self, tmp_path):
        code = main(["spectrum", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command, name", [("spectrum", "spectrum.csv"), ("rb", "rb_fit.txt")])
    def test_unwritable_output_file(self, tmp_path, capsys, cache, command, name):
        # a directory where the output file goes was an IsADirectoryError traceback and exit 1
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "z_tilt", "theta_z": 0.1}, "sequences": 5})
        (tmp_path / name).mkdir()
        code = main([command, "--config", cfg, "--out", str(tmp_path), "--group-cache", cache])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path / name} cannot be written: ")

    def test_wrong_dimension_cache(self, tmp_path, capsys, cache):
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}})
        code = main([
            "spectrum", "--config", cfg, "--out", str(tmp_path),
            "--dim", "4", "--group-cache", cache,
        ])
        assert code == EXIT_CONFIG
        assert "dimension-2" in capsys.readouterr().err

    def test_one_qubit_frame_at_dimension_4(self, tmp_path, capsys):
        # the model is read before the group is built, so no d=4 group is needed
        frame = {"channel": "rotation", "axis": "x", "angle": 0.3}
        cfg = write_config(tmp_path, {"dim": 4, "model": {"kind": "conjugation", "unitary": frame}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "model.unitary: rotation requires dimension 2, got 4" in capsys.readouterr().err

    def test_bad_kron_half_is_named(self, tmp_path, capsys):
        kron = {"channel": "kron", "first": GOOD_CHANNEL, "second": {"channel": "depolarizing", "qq": 0.9}}
        cfg = write_config(tmp_path, {"dim": 4, "model": {"kind": "right", "error": kron}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: model.error: second: qq: not a parameter of depolarizing\n"

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("spectrum", [1, 2], "{path}: top level must be a JSON object"),
            ("fig-basis", {"dim": 2, "model": {"kind": "z_tilt", "theta_z": 0.1}, "theta_grid": 5},
             "theta_grid: expected [start, stop, num], got 5"),
            ("spectrum", {"dim": 2, "model": {"kind": "left", "error": {"channel": "rotation", "axis": True,
                                                                          "angle": 0.1}}},
             "model.error: channel spec 'rotation' with axis=True, angle=0.1: "
             "axis must be a named axis or a list of three numbers"),
            ("spectrum", {"dim": 2, "model": {"kind": "left", "error": []}}, "model.error: empty channel chain"),
            ("spectrum", {"dim": 2, "model": 5}, "model: expected a mapping with a 'kind' key"),
            ("spectrum", {"dim": 2, "model": {"theta_z": 0.1}}, "model.kind: missing"),
            ("spectrum", {"dim": 3, "model": {"kind": "z_tilt", "theta_z": 0.1}}, "dim: expected 2 or 4, got 3"),
        ],
        ids=["top_level_list", "theta_grid_number", "axis_true", "empty_chain", "model_number", "model_without_kind",
             "dim_three"],
    )
    def test_shape_errors_exit_2_with_message(self, tmp_path, capsys, cache, command, payload, message):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message.format(path=cfg)}\n"

    def test_degenerate_spectrum_exit_code(self, tmp_path, capsys, cache):
        # a tilt far outside the perturbative regime has a complex dominant pair, equal in modulus
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "z_tilt", "theta_z": 1.5}})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical regime" in err and "degenerate" in err

    def test_singular_right_error_exit_code(self, tmp_path, capsys, cache):
        # a full z-dephasing (p = 1/3) leaves a rank-one asymptotic right-error block
        error = {"channel": "dephasing", "axis": "z", "q": 0}
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "right", "error": error}})
        code = main(["correct", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical regime" in err and "near-singular" in err

    def test_out_of_range_channel_parameter_exit_code(self, tmp_path, capsys, cache):
        error = {"channel": "depolarizing", "q": -0.3}
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "right", "error": error}})
        code = main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "q=-0.3" in err and "outside [0, 1]" in err

    def test_improper_rotation_exit_code(self, tmp_path, capsys, cache, monkeypatch):
        def improper(block):
            raise ImproperRotationError("rotation factor has determinant -1.0")

        monkeypatch.setattr(rblab.correction, "polar_correct", improper)
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "z_tilt", "theta_z": 0.1}})
        code = main(["correct", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical regime" in err and "determinant" in err

    @pytest.mark.parametrize("command, extra", [("correct", {}), ("curve", {"basis": "corrected"})])
    def test_non_converged_correction_exit_code(self, tmp_path, capsys, command, extra):
        # the SU(4) ascent stops short of a strict maximum after 41 iterations at block fidelity 0.4997
        model = {"kind": "over_rotation", "epsilon": 1.3}
        cfg = write_config(tmp_path, {"dim": 4, "model": model, **extra})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical regime" in err and "did not converge in 41 iterations" in err
        assert "achieved fidelity 0.4997" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, field",
        [
            ("curve", {"depths": [-1, 2]}, "depths"),
            # the name is checked before the relabeling model's singular block is corrected
            ("curve", {"model": RELABELING, "basis": "bogus"}, "basis"),
            ("rb", {"depths": [0, 1]}, "depths"),
            ("rb", {"sequences": 0}, "sequences"),
            ("fig-basis", {"theta_grid": [0, 0.1, -1]}, "theta_grid"),
            ("fig-basis", {"theta_grid": [0, "a", 3]}, "theta_grid"),
            ("fig-delta", {"max_depth": 0}, "max_depth"),
            ("fig-pbloch", {"max_depth": 4}, "max_depth"),
            ("spectrum", {"seed": "x"}, "seed"),
        ],
    )
    def test_bad_field_exits_2_and_names_it(self, tmp_path, capsys, cache, command, payload, field):
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}, **payload})
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out), "--group-cache", cache])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: expected")
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"model": {"kind": "left", "error": BAD_CHANNEL}}, "model.error"),
            ({"model": {"kind": "right", "error": BAD_CHANNEL}}, "model.error"),
            ({"model": {"kind": "sandwich", "left": BAD_CHANNEL, "right": GOOD_CHANNEL}}, "model.left"),
            ({"model": {"kind": "sandwich", "left": GOOD_CHANNEL, "right": BAD_CHANNEL}}, "model.right"),
            ({"model": {"kind": "right", "error": [GOOD_CHANNEL, BAD_CHANNEL]}}, "model.error"),
            ({"spam": {"prep": BAD_CHANNEL}}, "spam.prep"),
            ({"spam": {"meas": BAD_CHANNEL}}, "spam.meas"),
            # these exited 1 with a traceback before
            ({"model": {"kind": "left"}}, "model.error"),
            ({"model": {"kind": "sandwich", "left": GOOD_CHANNEL}}, "model.right"),
            ({"model": {"kind": "left", "error": {"channel": "depolarizing", "q": None}}}, "model.error"),
            ({"model": {"kind": "conjugation", "unitary": [[1, 1], [0, 1]]}}, "model.unitary"),
            ({"model": {"kind": "conjugation", "unitary": [[1, 0], [0]]}}, "model.unitary"),
            ({"model": {"kind": "conjugation", "unitary": [[1, "a"], [0, 1]]}}, "model.unitary"),
            ({"model": {"kind": "conjugation", "unitary": {"channel": "rotation", "axis": "w", "angle": 0.1}}},
             "model.unitary"),
        ],
    )
    def test_bad_channel_exits_2_and_names_its_field(self, tmp_path, capsys, cache, payload, field):
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}, **payload})
        out = tmp_path / "out"
        code = main(["rb", "--config", cfg, "--out", str(out), "--group-cache", cache])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"model": {"kind": "over_rotation", "epsilon": "abc"}}, "model.epsilon: expected a finite"),
            ({"model": {"kind": "over_rotation", "epsilon": NAN}}, "model.epsilon: expected a finite"),
            ({"model": {"kind": "over_rotation", "epsilon": INF}}, "model.epsilon: expected a finite"),
            ({"model": {"kind": "over_rotation", "epsilon": True}}, "model.epsilon: expected a finite"),
            ({"model": {"kind": "over_rotation", "epsilon": 0.1, "cz_epsilon": "x"}}, "model.cz_epsilon: "),
            ({"model": {"kind": "z_tilt", "theta_z": "0.1"}}, "model.theta_z: expected a finite"),
            ({"model": {"kind": "z_tilt", "theta_z": 0.1, "cz_epsilon": NAN}}, "model.cz_epsilon: "),
            ({"model": {"kind": "over_rotation", "epsilon": 0.1, "cz_eps": 0.3}},
             "model.cz_eps: not a parameter of over_rotation"),
            ({"model": {"kind": "conjugation", "unitary": NAN_ROTATION}}, "model.unitary: angle: expected a finite"),
            ({"model": {"kind": "conjugation", "unitary": [[NAN, 0], [0, 1]]}}, "model.unitary: "),
            ({"model": {"kind": "left", "error": NAN_ROTATION}}, "model.error: angle: expected a finite"),
            ({"spam": {"meas": NAN_ROTATION}}, "spam.meas: angle: expected a finite"),
            ({"model": {"kind": "left", "error": {"channel": "depolarizing", "q": "0.99"}}},
             "model.error: q: expected a finite"),
            ({"model": {"kind": "right", "error": {"channel": "amplitude_damping", "gamma": True}}},
             "model.error: gamma: expected a finite"),
            ({"model": {"kind": "left", "error": {"channel": "dephasing", "axs": "x", "q": 0.99}}},
             "model.error: axs: not a parameter of dephasing"),
            ({"model": {"kind": "right", "error": 3}}, "model.error: "),
            ({"spam": {"measure": GOOD_CHANNEL}}, "spam.measure: not a parameter of spam"),
            ({"spam": False}, "spam: expected an object"),
            ({"spam": {"meas": False}}, "spam.meas: channel spec must be"),
            ({"sequence": 3}, "sequence: not a parameter of the config"),
            # the fit needs three distinct depths: rejected before any sequence is sampled
            ({"depths": [1, 2, 2]}, "depths: expected at least 3 distinct depths"),
            ({"model": {"kind": "left", "error": {"channel": "rotation", "axis": [True, False, False],
                                                  "angle": 0.1}}},
             "model.error: axis[0]: expected a finite number"),
            ({"model": {"kind": "conjugation", "unitary": {"channel": "rotation", "axis": [0, "1", 0], "angle": 0.1}}},
             "model.unitary: axis[1]: expected a finite number"),
            # a norm that overflows to infinity would normalise the axis to zero: the identity
            ({"model": {"kind": "left", "error": {"channel": "rotation", "axis": [1e308, 1e308, 0],
                                                  "angle": 0.1}}},
             "model.error: axis: expected a finite, non-zero norm"),
            ({"model": {"kind": "conjugation", "unitary": {"channel": "rotation", "axis": [1e308, 1e308, 0],
                                                           "angle": 0.1}}},
             "model.unitary: axis: expected a finite, non-zero norm"),
            # a list is unhashable: it must not reach the axis lookup as a Python TypeError
            ({"model": {"kind": "left", "error": {"channel": "dephasing", "q": 0.99, "axis": [0, 0, 1]}}},
             "model.error: channel spec 'dephasing' with q=0.99, axis=[0, 0, 1]: unknown dephasing axis"),
            # the former composite kind is a chain under `left` or `right` now
            ({"model": {"kind": "composite", "factors": [GOOD_CHANNEL]}}, "unknown noise model kind 'composite'"),
            # a frame has one spelling: a channel under `unitary`; a second spelling is not ignored
            ({"model": {"kind": "conjugation", "unitary": [[0, 1], [1, 0]], "axis": "x"}},
             "model.axis: not a parameter of conjugation"),
            # the former relabeling kind is the channel of that name under `unitary` now
            ({"model": {"kind": "relabeling"}}, "unknown noise model kind 'relabeling'"),
            # a JSON matrix is no channel spec
            ({"model": {"kind": "conjugation", "unitary": [[0, 1], [1, 0]]}},
             "model.unitary: channel spec must be a mapping or list, got int"),
        ],
    )
    def test_bad_number_or_key_exits_2_and_names_it(self, tmp_path, capsys, cache, payload, message):
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}, **payload})
        out = tmp_path / "out"
        code = main(["rb", "--config", cfg, "--out", str(out), "--group-cache", cache])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("depth", [2 ** 32, 2 ** 64 + 1])
    def test_undrawable_depth_exits_2_and_names_it(self, tmp_path, capsys, cache, depth):
        # a depth of 2^32 or more cannot be drawn: rejected before any sequence is sampled
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}, "depths": [1, 2, depth]})
        out = tmp_path / "out"
        code = main(["rb", "--config", cfg, "--out", str(out), "--group-cache", cache])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: depths: expected every depth below 2^32, got {depth}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            # each exited 1 with a traceback, or ran a depth other than the one asked for
            ("curve", {"depths": [2 ** 63]}, "depths: expected every depth below 2^32, got 9223372036854775808"),
            ("curve", {"depths": [1.5, 2.9]}, "depths: expected a non-empty list of integers >= 0, got [1.5, 2.9]"),
            ("rb", {"depths": [1.7, 2, 3]}, "depths: expected a non-empty list of integers >= 1, got [1.7, 2, 3]"),
            ("rb", {"sequences": 2.5}, "sequences: expected an integer >= 1, got 2.5"),
            ("rb", {"sequences": 2 ** 70},
             "sequences x sum(depths): expected at most 10000000 gate applications, got 301050863282939882373120"),
            ("fig-delta", {"max_depth": 2 ** 70}, "max_depth: expected at most 10000 rows, got 1180591620717411303424"),
            ("fig-basis", {"theta_grid": [0.0, 0.1, 2 ** 32]}, "theta_grid: expected at most 300 angles, got 4294967296"),
            # the fit's rule runs before the draw, so two depths of 2^31 never start one
            ("rb", {"depths": [2 ** 31, 2 ** 31, 1]}, "depths: expected at least 3 distinct depths"),
            # over the output caps: each exited 1 with a MemoryError under a 3 GB address space
            ("fig-delta", {"max_depth": 10 ** 9}, "max_depth: expected at most 10000 rows, got 1000000000"),
            ("fig-pbloch", {"max_depth": 10 ** 9}, "max_depth: expected at most 10000 rows, got 1000000000"),
            ("fig-basis", {"theta_grid": [0.0, 0.3, 10 ** 9]}, "theta_grid: expected at most 300 angles, got 1000000000"),
            # a span past the largest float: exited 2 naming model.theta_z, a key fig-basis does not read,
            # after two numpy RuntimeWarnings
            ("fig-basis", {"theta_grid": [1e308, -1e308, 3]},
             "theta_grid: stop - start: expected a finite number, got -inf"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_request_exits_2_and_names_it(self, tmp_path, capsys, cache, command, payload, message):
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}, **payload})
        out = tmp_path / "out"
        code = main([command, "--config", cfg, "--out", str(out), "--group-cache", cache])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, work",
        [
            # the first ran out of memory (exit 1), the second ran for more than 20 s
            ({"sequences": 4 * 10 ** 8}, 4 * 10 ** 8 * 255),
            ({"depths": [1, 2, 3 * 10 ** 8]}, 200 * (3 + 3 * 10 ** 8)),
        ],
    )
    def test_run_over_the_work_cap_exits_2_and_names_it(self, tmp_path, capsys, cache, payload, work):
        cfg = write_config(tmp_path, {"model": {"kind": "z_tilt", "theta_z": 0.1}, **payload})
        out = tmp_path / "out"
        code = main(["rb", "--config", cfg, "--out", str(out), "--group-cache", cache])
        assert code == EXIT_CONFIG
        message = f"sequences x sum(depths): expected at most 10000000 gate applications, got {work}"
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cap, payload",
        [
            ("fig-delta", "MAX_ROWS", lambda size: {"max_depth": size}),
            ("fig-pbloch", "MAX_ROWS", lambda size: {"max_depth": size}),
            ("fig-basis", "MAX_ANGLES", lambda size: {"theta_grid": [0.0, 0.1, size]}),
        ],
        ids=["fig-delta", "fig-pbloch", "fig-basis"],
    )
    def test_figure_output_cap_admits_its_own_size(self, tmp_path, cache, monkeypatch, command, cap, payload):
        monkeypatch.setattr(cli, cap, 11)
        for size, code in ((11, 0), (12, EXIT_CONFIG)):
            cfg = write_config(tmp_path, payload(size))
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--group-cache", cache]) == code

    @pytest.mark.parametrize(
        "text, reason",
        [
            # json raises a plain ValueError for an int of more than 4300 digits
            ('{"seed": ' + "7" * 5000 + "}", "5000 digits"),
            # and a RecursionError for lists nested past the recursion limit
            ('{"model": ' + "[" * 100000 + "]" * 100000 + "}", "recursion"),
        ],
    )
    def test_unparsable_json_exits_2_and_names_the_file(self, tmp_path, capsys, text, reason):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and reason in err
        assert "set_int_max_str_digits" not in err  # Python-level advice a CLI user cannot act on

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"model": "\xff"}')
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}: ")

    def test_out_below_a_file_exits_2(self, tmp_path, capsys, cache):
        (tmp_path / "FILE").write_text("")
        out = tmp_path / "FILE" / "sub"
        code = main([
            "spectrum", "--config", str(CONFIG_DIR / "ztilt_d2.json"),
            "--out", str(out), "--group-cache", cache,
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out} cannot be created")


class TestGroupCache:
    @pytest.mark.parametrize("command", ["gen-group", "spectrum"])
    def test_cache_in_missing_directory_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "no" / "such" / "g2.npz"
        out = tmp_path / "out"
        code = main([
            command, "--config", str(CONFIG_DIR / "overrotation_d2.json"),
            "--out", str(out), "--group-cache", str(path),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err
        assert not out.exists() and not path.parent.exists()

    def test_cache_path_without_suffix_is_reused(self, tmp_path, monkeypatch):
        path = tmp_path / "g2cache"
        assert main(["gen-group", "--dim", "2", "--group-cache", str(path)]) == 0
        assert path.exists()

        def regenerate(dim):
            raise AssertionError("group regenerated despite a cache at the given path")

        monkeypatch.setattr(cli, "generate_clifford_group", regenerate)
        assert main(["gen-group", "--dim", "2", "--group-cache", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g2cache"]

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "swapped_rows", "old_format", "other_generators", "other_order",
            "dim_vector", "dim_three",
        ],
    )
    def test_bad_cache_exits_2_and_is_kept(self, tmp_path, capsys, cache, damage):
        path = tmp_path / "g2.npz"
        with np.load(cache) as data:
            fields = {key: data[key] for key in data.files}
        if damage == "truncated":
            raw = Path(cache).read_bytes()
            path.write_bytes(raw[: len(raw) // 2])
        elif damage == "swapped_rows":
            fields["table"] = fields["table"][[0, 1, 2, 3, 4, 6, 5, *range(7, 24)]]
            np.savez(path, **fields)
        elif damage == "old_format":
            # the float-key layout: one transfer matrix per element under "ops"
            ops = ideal_mats(generate_clifford_group(2))
            fields = {k: v for k, v in fields.items() if k != "table"}
            np.savez_compressed(path, ops=ops, **fields)
        elif damage == "other_generators":
            # the same tree read with x and y swapped
            fields["vias"][1:] = 1 - fields["vias"][1:]
            np.savez(path, **fields)
        elif damage == "other_order":
            # siblings 12 and 13 swapped, with 12's child re-parented: a valid
            # tree of the same group, in an order that changes RB's draws
            swap = [*range(12), 13, 12, *range(14, 24)]
            fields["table"], fields["vias"] = fields["table"][swap], fields["vias"][swap]
            fields["parents"][20] = 12
            np.savez(path, **fields)
        elif damage == "dim_three":
            np.savez(path, **{**fields, "dim": 3})
        else:
            np.savez(path, **{**fields, "dim": np.array([2, 2])})
        before = path.read_bytes()
        code = main([
            "spectrum", "--config", str(CONFIG_DIR / "overrotation_d2.json"),
            "--out", str(tmp_path), "--group-cache", str(path),
        ])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(path) in err
        assert path.read_bytes() == before
        assert not (tmp_path / "spectrum.csv").exists()


class TestSpectrumAndCurve:
    def test_spectrum_output(self, tmp_path, cache):
        cfg = write_config(
            tmp_path,
            {"dim": 2, "model": {"kind": "left", "error": {"channel": "depolarizing", "q": 0.99}}},
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, cols = read_csv(tmp_path / "spectrum.csv")
        assert float(cols["p"][0]) == pytest.approx(0.99, abs=1e-10)
        assert "seed" in meta

    def test_spectrum_of_a_relabeled_sandwich_d4(self, tmp_path):
        # both qubits relabeled X -> Y -> Z: vec(Pi_tr) has no overlap with the dominant mode
        frame = {"channel": "kron", "first": {"channel": "relabeling"}, "second": {"channel": "relabeling"}}
        cfg = write_config(
            tmp_path,
            {"dim": 4, "model": {"kind": "sandwich", "left": frame, "right": [GOOD_CHANNEL, frame, frame]}},
        )
        cache = str(tmp_path / "g4.npz")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        _, cols = read_csv(tmp_path / "spectrum.csv")
        assert float(cols["p"][0]) == pytest.approx(0.99, abs=1e-12)

    def test_curve_columns(self, tmp_path, cache):
        cfg = write_config(
            tmp_path,
            {
                "dim": 2,
                "model": {"kind": "z_tilt", "theta_z": 0.1},
                "depths": [1, 2, 4],
                "basis": "corrected",
                "seed": 3,
            },
        )
        assert main(["curve", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, cols = read_csv(tmp_path / "curve.csv")
        assert list(cols) == ["m", "F", "f_tr", "C", "D", "delta", "basis"]
        assert cols["basis"] == ["corrected"] * 3
        f = np.array([float(x) for x in cols["F"]])
        ftr = np.array([float(x) for x in cols["f_tr"]])
        assert np.allclose(f, 0.5 + 0.5 * ftr, atol=1e-12)


class TestCorrect:
    def test_meta_formats_the_library_result_d2(self, tmp_path, cache):
        cfg = CONFIG_DIR / "ztilt_d2.json"
        assert main(["correct", "--config", str(cfg), "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, _ = read_csv(tmp_path / "correct.csv")
        spectrum, result = library_correction(cfg, load_group(cache))
        assert meta["rotation_angle"] == repr(result.rotation_angle)
        assert meta["rotation_axis"] == json.dumps([round(x, 12) for x in result.rotation_axis])
        assert meta["circuit_fidelity_1"] == repr(circuit_fidelity_1(spectrum, result))
        assert meta["incoherence_defect"] == repr(incoherence_defect(result.corrected_block))
        assert float(meta["incoherence_defect"]) == incoherence_defect(result.corrected_block)
        assert "converged" not in meta

    def test_meta_formats_the_library_result_d4(self, tmp_path):
        cache = tmp_path / "g4.npz"
        assert main(["gen-group", "--dim", "4", "--group-cache", str(cache)]) == 0
        cfg = CONFIG_DIR / "ztilt_d4.json"
        assert main(["correct", "--config", str(cfg), "--out", str(tmp_path), "--group-cache", str(cache)]) == 0
        meta, _ = read_csv(tmp_path / "correct.csv")
        spectrum, result = library_correction(cfg, load_group(cache))
        assert meta["circuit_fidelity_1"] == repr(circuit_fidelity_1(spectrum, result))
        assert 1.0 - float(meta["circuit_fidelity_1"]) == pytest.approx(1.0769786287e-2, abs=1e-12)
        assert float(meta["incoherence_defect"]) == incoherence_defect(result.corrected_block)
        assert "rotation_angle" not in meta and "converged" not in meta

    def test_relabeling_is_corrected(self, tmp_path, cache):
        # the paper's basis mismatch: the asymptotic right error operator is the relabeling itself
        cfg = CONFIG_DIR / "relabeling_d2.json"
        assert main(["correct", "--config", str(cfg), "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, cols = read_csv(tmp_path / "correct.csv")
        assert max(float(x) for x in cols["abs_residual"]) <= 1e-12
        assert 1.0 - float(meta["circuit_fidelity_1"]) <= 1e-12


def library_correction(config_path, group):
    cfg = json.loads(config_path.read_text())
    noisy = build_noisy_gateset(NoiseModel.from_config(cfg["model"], group.dim), group)
    spectrum = dominant_spectrum(build_twirl(group, noisy))
    return spectrum, correct_spectrum(spectrum)


def circuit_fidelity_1(spectrum, result):
    return float(fidelity_curve_exact(spectrum, result.unitary, [1]).fidelity[0])


class TestRB:
    def test_rb_outputs(self, tmp_path, cache):
        cfg = write_config(
            tmp_path,
            {
                "dim": 2,
                "model": RELABELING,
                "depths": [1, 2, 4, 8],
                "sequences": 10,
                "seed": 5,
                "spam": {"meas": {"channel": "depolarizing", "q": 0.95}},
            },
        )
        assert main(["rb", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, cols = read_csv(tmp_path / "rb_survival.csv")
        assert list(cols) == ["depth", "sequence", "survival"]
        assert len(cols["depth"]) == 40
        fit_text = (tmp_path / "rb_fit.txt").read_text()
        assert "p:" in fit_text and "p_95_interval" in fit_text

    def test_rb_fit_reports_bootstrap_samples(self, tmp_path, cache):
        cfg = write_config(
            tmp_path,
            {"dim": 2, "model": {"kind": "z_tilt", "theta_z": 0.1}, "sequences": 10, "seed": 3},
        )
        assert main(["rb", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        lines = (tmp_path / "rb_fit.txt").read_text().splitlines()
        assert "bootstrap_samples: 200" in lines

    def test_rb_fit_depth_rows_are_plain_numbers(self, tmp_path, cache):
        cfg = write_config(
            tmp_path,
            {"model": {"kind": "z_tilt", "theta_z": 0.1}, "depths": [1, 2, 4], "sequences": 5},
        )
        assert main(["rb", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        lines = (tmp_path / "rb_fit.txt").read_text().splitlines()
        rows = lines[lines.index("depth,mean_survival,residual") + 1:]
        assert [int(row.split(",")[0]) for row in rows] == [1, 2, 4]
        for row in rows:
            _, survival, residual = (float(x) for x in row.split(","))
            assert 0.0 <= survival <= 1.0 and abs(residual) < 1.0


class TestFigures:
    def test_fig_pbloch_zero_noise_is_flat_with_unit_intercept(self, tmp_path, cache):
        cfg = write_config(tmp_path, {"dim": 2, "model": {"kind": "over_rotation", "epsilon": 0.0}})
        assert main(["fig-pbloch", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, cols = read_csv(tmp_path / "fig_pbloch.csv")
        f_id = np.array([float(x) for x in cols["F_identity"]])
        assert np.max(np.abs(f_id - 1.0)) < 1e-10
        assert float(meta["intercept_identity"]) == pytest.approx(1.0, abs=1e-9)
        assert float(meta["intercept_corrected"]) == pytest.approx(1.0, abs=1e-9)

    def test_fig_pbloch_default_model(self, tmp_path, cache):
        # without a `model` key, fig-pbloch reads over-rotation 0.1
        cfg = write_config(tmp_path, {"dim": 2, "max_depth": 10})
        assert main(["fig-pbloch", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, _ = read_csv(tmp_path / "fig_pbloch.csv")
        assert json.loads(meta["model"]) == {"cz_epsilon": None, "epsilon": 0.1, "kind": "over_rotation"}

    def test_fig_pbloch_curve_at_or_below_one_over_d_exits_3(self, tmp_path, capsys, cache):
        # U is a 1.2 rad x rotation, so U^2 turns by 2.4 rad: F_corrected_sq - 1/2 < 0
        error = {"channel": "rotation", "axis": "x", "angle": 1.2}
        cfg = write_config(tmp_path, {"model": {"kind": "right", "error": error}})
        code = main(["fig-pbloch", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical regime" in err and "corrected_sq" in err and "depth 5" in err
        assert not (tmp_path / "fig_pbloch.csv").exists()

    def test_fig_delta_corrected_below_reference(self, tmp_path, cache):
        assert main(["fig-delta", "--out", str(tmp_path), "--group-cache", cache, "--seed", "7"]) == 0
        meta, cols = read_csv(tmp_path / "fig_delta.csv")
        corrected = np.array([float(x) for x in cols["abs_delta_corrected"]])
        ref = float(cols["ref_one_minus_p_sq"][0])
        valid = ~np.isnan(corrected)
        assert np.all(corrected[valid] < ref)

    def test_fig_basis_matched_point(self, tmp_path, cache):
        cfg = write_config(tmp_path, {"theta_grid": [0.1, 0.1, 1]})
        assert main(["fig-basis", "--config", cfg, "--out", str(tmp_path), "--group-cache", cache]) == 0
        meta, cols = read_csv(tmp_path / "fig_basis.csv")
        infid_u = float(cols["infid_corrected"][0])
        half_gap = float(cols["scaled_one_minus_p"][0])
        p = 1.0 - 2.0 * half_gap
        assert abs(infid_u - half_gap) <= 10 * (1 - p) ** 2

    def test_byte_identical_reruns(self, tmp_path, cache):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert main(["fig-delta", "--out", str(out), "--group-cache", cache, "--seed", "11"]) == 0
        assert (out1 / "fig_delta.csv").read_bytes() == (out2 / "fig_delta.csv").read_bytes()

    def test_headers_carry_seed_and_version(self, tmp_path, cache):
        assert main(["fig-delta", "--out", str(tmp_path), "--group-cache", cache, "--seed", "13"]) == 0
        text = (tmp_path / "fig_delta.csv").read_text()
        assert text.startswith("# rblab ")
        assert "# seed=13" in text
        assert "# model=" in text


def run_child(code, block_scipy):
    """Run `code` in a fresh interpreter that finds this rblab first on its path."""
    src = str(Path(rblab.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    prelude = "import sys\n"
    if block_scipy:
        prelude += "sys.modules['scipy'] = None\n"  # any scipy import now fails
    return subprocess.run(
        [sys.executable, "-c", prelude + code],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestNoScipy:
    """The library needs numpy only; scipy serves the tests as a reference."""

    def test_import_does_not_load_scipy(self):
        child = run_child(
            "import rblab.cli\nassert 'scipy' not in sys.modules, 'scipy was imported'\n",
            block_scipy=False,
        )
        assert child.returncode == 0, child.stderr

    def test_correct_runs_with_scipy_blocked(self, tmp_path, cache):
        cfg = str(CONFIG_DIR / "overrotation_d2.json")
        blocked = tmp_path / "blocked"
        in_suite = tmp_path / "in_suite"
        args = ["correct", "--config", cfg, "--out", str(blocked), "--group-cache", cache]
        child = run_child(
            "import rblab.cli\n"
            f"sys.exit(rblab.cli.main({args!r}))\n",
            block_scipy=True,
        )
        assert child.returncode == 0, child.stderr
        assert main(["correct", "--config", cfg, "--out", str(in_suite), "--group-cache", cache]) == 0
        assert (blocked / "correct.csv").read_bytes() == (in_suite / "correct.csv").read_bytes()


class TestTwoQubitFigures:
    def test_fig_delta_extended(self, tmp_path):
        cache = tmp_path / "g4.npz"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"max_depth": 12, "seed": 19}))
        assert main([
            "fig-delta", "--dim", "4", "--config", str(cfg),
            "--out", str(tmp_path), "--group-cache", str(cache),
        ]) == 0
        meta, cols = read_csv(tmp_path / "fig_delta.csv")
        corrected = np.array([float(x) for x in cols["abs_delta_corrected"]])
        ref = float(cols["ref_one_minus_p_sq"][0])
        valid = ~np.isnan(corrected)
        assert np.all(corrected[valid] < ref)
        assert cache.exists()


# ---------------------------------------------------------------------------
# The exit contract under fuzzing: exit 0, 2 or 3, never a traceback or a non-finite number
# ---------------------------------------------------------------------------

COMMANDS = ["gen-group", "spectrum", "curve", "correct", "rb", "fig-delta", "fig-pbloch", "fig-basis"]
# the documented nan of the ratio columns once |f_tr| <= 1e-13
NAN_COLUMNS = {"delta", "abs_delta_identity", "abs_delta_corrected"}
BAD_INTEGERS = st.sampled_from(
    [True, False, 2.0, 2.5, -1, 2 ** 32, 2 ** 63, 2 ** 64 + 1, 2 ** 70, HUGE, "3", None, NAN, INF, [3]]
)
BAD_NUMBERS = st.sampled_from([NAN, INF, -INF, True, "0.1", None, [0.1], 2 ** 70, HUGE])


def fuzz_models(number, dim=2):
    """Model specs of the README schema at `dim`, their numbers drawn by `number(lo, hi)`.

    At d=4 a channel is a `kron` pair of one-qubit channels or a d=4 depolarizing,
    and a frame is a `kron` pair of one-qubit frames.
    """
    unit, small = number(0.0, 1.0), number(-0.3, 0.3)
    rotation = st.fixed_dictionaries({
        "channel": st.just("rotation"),
        "axis": st.sampled_from("xyz") | st.lists(number(-1.0, 1.0), min_size=3, max_size=3),
        "angle": number(-3.2, 3.2),
    })
    depolarizing = st.fixed_dictionaries({"channel": st.just("depolarizing"), "q": unit})
    channel = st.one_of(
        depolarizing,
        st.fixed_dictionaries({"channel": st.just("dephasing"), "q": unit}, optional={"axis": st.sampled_from("xyz")}),
        st.fixed_dictionaries({"channel": st.just("amplitude_damping"), "gamma": unit}),
        rotation,
    )
    frame = rotation | st.lists(rotation, min_size=2, max_size=2) | st.just({"channel": "relabeling"})
    if dim == 4:
        def kron(half):
            return st.fixed_dictionaries({"channel": st.just("kron"), "first": half, "second": half})

        channel, frame = kron(channel) | depolarizing, kron(frame)
    models = st.one_of(
        st.just({"kind": "ideal"}),
        st.fixed_dictionaries({"kind": st.just("over_rotation"), "epsilon": small}, optional={"cz_epsilon": small}),
        st.fixed_dictionaries({"kind": st.just("z_tilt"), "theta_z": small}, optional={"cz_epsilon": small}),
        st.fixed_dictionaries({
            "kind": st.sampled_from(["left", "right"]),
            "error": channel | st.lists(channel, min_size=1, max_size=2),
        }),
        st.fixed_dictionaries({"kind": st.just("sandwich"), "left": channel, "right": channel}),
        st.fixed_dictionaries({"kind": st.just("conjugation"), "unitary": frame}),
    )
    return models, channel


def some_bad_numbers(lo, hi):
    return st.floats(lo, hi) | BAD_NUMBERS


GOOD_MODEL, GOOD_CHANNEL_SPEC = fuzz_models(st.floats)
BAD_MODEL, BAD_CHANNEL_SPEC = fuzz_models(some_bad_numbers)
GOOD_MODEL_D4, GOOD_CHANNEL_SPEC_D4 = fuzz_models(st.floats, dim=4)
SMALL = st.floats(-0.3, 0.3)
# in-range sizes stay small: the run cost grows with depth x sequences
VALID_FIELDS = {
    "dim": st.just(2),
    "seed": st.integers(0, 2 ** 70),
    "depths": st.lists(st.integers(0, 64), min_size=1, max_size=6),
    "sequences": st.integers(1, 8),
    "basis": st.sampled_from(["identity", "corrected", "corrected-squared"]),
    "spam": st.fixed_dictionaries({}, optional={"prep": st.none() | GOOD_CHANNEL_SPEC, "meas": GOOD_CHANNEL_SPEC}),
    "max_depth": st.integers(1, 64),
    "theta_grid": st.tuples(SMALL, SMALL, st.integers(1, 4)).map(list),
    "cz_epsilon": SMALL,
}
# d=4 runs draw fewer sequences, and always a theta_grid of at most 2 angles (fig-basis runs 31 by
# default): an angle took 16-34 ms at d=4, against 1.3 ms at d=2
REQUIRED_FIELDS_D4 = {
    "dim": st.just(4),
    "model": GOOD_MODEL_D4,
    "theta_grid": st.tuples(SMALL, SMALL, st.integers(1, 2)).map(list),
}
VALID_FIELDS_D4 = {
    **{key: value for key, value in VALID_FIELDS.items() if key not in REQUIRED_FIELDS_D4},
    "sequences": st.integers(1, 4),
    "spam": st.fixed_dictionaries({}, optional={"prep": st.none() | GOOD_CHANNEL_SPEC_D4, "meas": GOOD_CHANNEL_SPEC_D4}),
}
BROKEN_FIELDS = {
    "dim": BAD_INTEGERS | st.just(3),
    "seed": BAD_INTEGERS,
    "model": BAD_MODEL | st.sampled_from(["z_tilt", [], {}, {"kind": "bogus"}, {"kind": "z_tilt"}]),
    "depths": BAD_INTEGERS | st.just([]) | st.lists(st.integers(0, 64) | BAD_INTEGERS, min_size=1, max_size=4),
    "sequences": BAD_INTEGERS,
    "basis": st.sampled_from(["bogus", 3, None]),
    "spam": st.sampled_from([False, [], {"measure": None}])
    | st.fixed_dictionaries({"prep": BAD_CHANNEL_SPEC | BAD_NUMBERS}),
    "max_depth": BAD_INTEGERS,
    "theta_grid": BAD_INTEGERS | st.lists(SMALL | BAD_INTEGERS, max_size=4),
    "cz_epsilon": BAD_NUMBERS,
    "sequence": st.integers(1, 8),  # not a key of the schema
}


@st.composite
def fuzz_configs(draw, dim=2):
    """A config of the README schema at `dim`, and at times one field broken."""
    if dim == 4:
        cfg = draw(st.fixed_dictionaries(REQUIRED_FIELDS_D4, optional=VALID_FIELDS_D4))
    else:
        cfg = draw(st.fixed_dictionaries({"model": GOOD_MODEL}, optional=VALID_FIELDS))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(BROKEN_FIELDS)))
        cfg[key] = draw(BROKEN_FIELDS[key])
    return cfg


def assert_csv_numbers_finite(out):
    for path in out.glob("*.csv"):
        _, columns = read_csv(path)
        for name, cells in columns.items():
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # a label such as the basis name
                assert math.isfinite(value) or (name in NAN_COLUMNS and math.isnan(value)), (path.name, name)


def assert_exits_0_2_or_3(root, command, cfg):
    out = root / "out"
    code = main([command, "--config", write_config(root, cfg), "--out", str(out)])
    assert code in (0, EXIT_CONFIG, EXIT_NUMERICAL)
    assert_csv_numbers_finite(out)


class TestExitContract:
    MODEL = {"kind": "z_tilt", "theta_z": 0.1}

    @given(command=st.sampled_from(COMMANDS), cfg=fuzz_configs())
    @example(command="curve", cfg={"model": MODEL, "depths": [2 ** 63]})
    @example(command="curve", cfg={"model": MODEL, "depths": [1.5, 2.9]})
    @example(command="rb", cfg={"model": MODEL, "depths": [1.7, 2, 3]})
    @example(command="rb", cfg={"model": MODEL, "depths": [1, 2, 2 ** 64]})
    @example(command="rb", cfg={"model": MODEL, "sequences": 2.5})
    @example(command="rb", cfg={"model": MODEL, "sequences": 2 ** 70})
    @example(command="rb", cfg={"model": MODEL, "depths": [2 ** 31, 2 ** 31, 1], "sequences": 1})
    @example(command="spectrum", cfg={"model": MODEL, "seed": HUGE})
    @example(command="fig-delta", cfg={"max_depth": 2 ** 70})
    @example(command="curve", cfg={"model": RELABELING, "depths": [1, 2]})  # the nan rows
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_config_exits_0_2_or_3(self, tmp_path_factory, command, cfg):
        """Every command on any config exits 0, 2 or 3 and writes only finite numbers, bar the nan rows."""
        assert_exits_0_2_or_3(tmp_path_factory.mktemp("fuzz"), command, cfg)

    @given(command=st.sampled_from(COMMANDS), cfg=fuzz_configs(dim=4))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_d4_config_exits_0_2_or_3(self, tmp_path_factory, command, cfg):
        """The same contract on two-qubit models, whose channels are kron pairs or d=4 depolarizing."""
        assert_exits_0_2_or_3(tmp_path_factory.mktemp("fuzz"), command, cfg)
