import hashlib
import json
import math
import time

import numpy as np
import pytest

import gbsim
from gbsim import cli, engines
from gbsim.cli import _load_run, main
from gbsim.matrixio import dump_complex_matrix, load_complex_matrix, matrix_from_json


@pytest.fixture
def thermal_config(tmp_path):
    net = gbsim.haar_random(2, 9)
    (tmp_path / "u.txt").write_text(dump_complex_matrix(net.u))
    cfg = {
        "schema": 1,
        "modes": 2,
        "states": [{"type": "thermal", "v": 2.0}, {"type": "thermal", "v": 1.5}],
        "unitary": {"file": "u.txt"},
        "n_max": 2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


DROP = object()  # an `_edited_config` field value that removes the field


def _edited_config(path, **fields):
    """A copy of the config at `path` with some fields replaced or dropped."""
    cfg = json.loads(path.read_text())
    cfg.update(fields)
    cfg = {k: v for k, v in cfg.items() if v is not DROP}
    out = path.with_name("edited-" + path.name)
    out.write_text(json.dumps(cfg))
    return out


@pytest.fixture
def tmsv_config(tmp_path):
    net = gbsim.tmsv_network()
    cfg = {
        "schema": 1,
        "modes": 2,
        "states": [{"type": "squeezed", "r": 0.5}] * 2,
        "unitary": [[[z.real, z.imag] for z in row] for row in net.u],
    }
    path = tmp_path / "tmsv.json"
    path.write_text(json.dumps(cfg))
    return path


class TestHaar:
    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["haar", "--modes", "4", "--seed", "7", "--out", str(a)]) == 0
        assert main(["haar", "--modes", "4", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_loadable_unitary(self, tmp_path):
        out = tmp_path / "u.txt"
        main(["haar", "--modes", "3", "--seed", "1", "--out", str(out)])
        u = load_complex_matrix(out)
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12


class TestMatrixCommands:
    def test_permanent(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(dump_complex_matrix(np.ones((3, 3))))
        assert main(["permanent", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "6+0j"

    def test_hafnian(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(dump_complex_matrix(np.ones((4, 4))))
        assert main(["hafnian", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "3+0j"

    def test_comma_pair_format_accepted(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text("1,0 2,0\n3,0 4,0\n")
        assert main(["permanent", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "10+0j"

    def test_cost_limit_exit_code(self, tmp_path, capsys):
        f = tmp_path / "big.txt"
        f.write_text(dump_complex_matrix(np.eye(25)))
        assert main(["permanent", str(f)]) == 2

    def test_odd_hafnian_exit_code(self, tmp_path, capsys):
        f = tmp_path / "m.txt"
        f.write_text(dump_complex_matrix(np.ones((3, 3))))
        assert main(["hafnian", str(f)]) == 1


class TestProb:
    def test_vacuum_probability_one(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "modes": 2,
            "states": [{"type": "vacuum"}, {"type": "vacuum"}],
            "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "patterns": [[0, 0]],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["prob", "--config", str(p), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"][0]["probability"] == pytest.approx(1.0, abs=1e-14)
        assert "config_hash" in report

    def test_validate_flag_reports_small_delta(self, thermal_config, capsys):
        assert main(["prob", "--config", str(thermal_config), "--validate", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(row["crosscheck_delta"] <= 1e-12 for row in report["rows"])
        assert all(row["engine"] == "thermal" for row in report["rows"])

    def test_dump_qform(self, thermal_config, capsys):
        assert main(["prob", "--config", str(thermal_config), "--dump-qform"]) == 0
        out = capsys.readouterr().out
        assert "# K = " in out and "# D-tilde:" in out

    @pytest.mark.parametrize("config", ["thermal_config", "tmsv_config"])
    def test_dump_qform_json_is_one_document(self, request, config, capsys):
        # the Q form is a `qform` object after the rows, not comment lines after the closing brace
        path = _edited_config(request.getfixturevalue(config), n_max=2)
        assert main(["prob", "--config", str(path), "--format", "json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(["prob", "--config", str(path), "--format", "json", "--dump-qform"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [*plain, "qform"] and {k: report[k] for k in plain} == plain
        qf = gbsim.build_qform(*_load_run(str(path))[1:])
        assert list(report["qform"]) == ["K", "C", "D-tilde"]
        assert report["qform"]["K"] == qf.k
        for name, mat in (("C", qf.c), ("D-tilde", qf.d_tilde)):
            assert np.array_equal(matrix_from_json(report["qform"][name]), mat), name

    def test_dump_qform_trailer_keeps_its_layout(self, thermal_config, capsys):
        # table and csv: the report, then K, C and D-tilde as comment lines
        qf = gbsim.build_qform(*_load_run(str(thermal_config))[1:])
        trailer = f"# K = {qf.k:.17g}\n"
        for name, mat in (("C", qf.c), ("D-tilde", qf.d_tilde)):
            trailer += f"# {name}:\n" + "".join(f"#   {row}\n" for row in dump_complex_matrix(mat).splitlines())
        for fmt in ("table", "csv"):
            assert main(["prob", "--config", str(thermal_config), "--format", fmt]) == 0
            plain = capsys.readouterr().out
            assert main(["prob", "--config", str(thermal_config), "--format", fmt, "--dump-qform"]) == 0
            assert capsys.readouterr().out == plain + trailer, fmt

    @pytest.mark.parametrize(
        "config, engine, rc",
        [
            ("thermal_config", "general", 0),
            ("thermal_config", "thermal", 0),
            ("thermal_config", "squeezed", 1),
            ("tmsv_config", "squeezed", 0),
            ("tmsv_config", "thermal", 1),
        ],
    )
    def test_engine_choice(self, request, config, engine, rc, capsys):
        path = _edited_config(request.getfixturevalue(config), n_max=2)
        assert main(["prob", "--config", str(path), "--engine", engine, "--format", "json"]) == rc
        if rc == 0:
            assert {row["engine"] for row in json.loads(capsys.readouterr().out)["rows"]} == {engine}
        else:  # the engine's own precondition text
            assert f"gbsim: error: {engine} engine requires" in capsys.readouterr().err

    @pytest.mark.parametrize("patterns", [[[0.5, 1]], [[1.9, 0]], [[2, 0]], [["1", 0]], [[1, 0, 0]]])
    def test_pattern_entries_must_be_0_or_1(self, thermal_config, patterns, capsys):
        path = _edited_config(thermal_config, patterns=patterns, n_max=DROP)
        assert main(["prob", "--config", str(path)]) == 1
        assert "patterns[0]" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 1, "modes": 2, "states": []}))
        assert main(["prob", "--config", str(p)]) == 1
        assert "unitary" in capsys.readouterr().err

    def test_bad_state_field_path(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "modes": 1,
            "states": [{"type": "thermal"}],
            "unitary": [[[1, 0]]],
            "n_max": 0,
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["prob", "--config", str(p)]) == 1
        assert "states[0]" in capsys.readouterr().err


def _record_workers(monkeypatch) -> list:
    """The worker count of each `sample_patterns` call that `gbsim.cli` makes from now on."""
    calls, sample = [], gbsim.cli.sample_patterns
    monkeypatch.setattr(gbsim.cli, "sample_patterns", lambda *args, workers: calls.append(workers) or sample(*args, workers=workers))
    return calls


class TestSample:
    def test_csv_deterministic_across_runs_and_workers(self, thermal_config, tmp_path):
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"{name}.csv"
            rc = main([
                "sample", "--config", str(thermal_config), "--shots", "20000",
                "--seed", "3", "--workers", workers, "--format", "csv", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_csv_parses_with_standard_reader(self, thermal_config, capsys):
        import csv as csvmod

        rc = main(["sample", "--config", str(thermal_config), "--shots", "5000", "--seed", "4", "--format", "csv"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        rows = list(csvmod.DictReader(lines))
        # pattern strings contain commas and must survive CSV round-tripping
        assert all(row["pattern"].count(",") == 1 for row in rows)
        assert sum(int(row["count"]) for row in rows) == 5000

    def test_json_metadata(self, thermal_config, capsys):
        rc = main(["sample", "--config", str(thermal_config), "--shots", "1000", "--seed", "5", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 5 and report["shots"] == 1000
        assert sum(r["count"] for r in report["rows"]) == 1000

    def test_rejects_squeezed_inputs(self, tmsv_config, capsys):
        rc = main(["sample", "--config", str(tmsv_config), "--shots", "10", "--seed", "0"])
        assert rc == 1
        assert "non-classical" in capsys.readouterr().err

    def test_rejects_seed_outside_64_bits(self, thermal_config, capsys):
        rc = main(["sample", "--config", str(thermal_config), "--shots", "10", "--seed", "18446744073709551616"])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["0", "-2", "-3"])
    def test_rejects_bad_worker_count(self, thermal_config, capsys, flag):
        rc = main(["sample", "--config", str(thermal_config), "--shots", "10", "--seed", "0", "--workers", flag])
        assert rc == 1
        assert capsys.readouterr().err == f"gbsim: error: worker count must be >= 1, got {flag}\n"

    @pytest.mark.parametrize("flag", ["2.5", "abc"])
    def test_non_integer_worker_count_is_a_usage_error(self, thermal_config, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", str(thermal_config), "--shots", "10", "--seed", "0", "--workers", flag])
        assert exc.value.code == 1
        assert f"--workers: invalid int value: '{flag}'" in capsys.readouterr().err

    def test_environment_worker_count_is_ignored(self, thermal_config, monkeypatch, capsys):
        workers = _record_workers(monkeypatch)
        monkeypatch.setenv("GBSIM_WORKERS", "abc")
        assert main(["sample", "--config", str(thermal_config), "--shots", "10", "--seed", "0"]) == 0
        assert workers == [1]

    def test_rejects_inputs_too_bright_for_counts(self, thermal_config, capsys):
        path = _edited_config(thermal_config, states=[{"type": "thermal", "v": 1e19}, {"type": "vacuum"}])
        rc = main(["sample", "--config", str(path), "--shots", "10", "--seed", "0"])
        assert rc == 1
        assert "mean photon number" in capsys.readouterr().err


class TestPermanentPsd:
    def test_record_fields(self, tmp_path, capsys):
        f = tmp_path / "h.txt"
        f.write_text(dump_complex_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
        rc = main(["permanent-psd", "--matrix", str(f), "--shots", "50000", "--seed", "2", "--format", "json"])
        assert rc == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["exact"] == pytest.approx(2.0, rel=1e-12)
        assert abs(row["estimate"] - 2.0) < 5 * max(row["stderr"], 1e-3)
        assert row["ratio"] == pytest.approx(row["estimate"] / 2.0, rel=1e-12)

    def test_byte_identical_runs(self, tmp_path):
        g = np.random.default_rng(6).standard_normal((4, 4))
        f = tmp_path / "h.txt"
        f.write_text(dump_complex_matrix(g.T @ g))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            argv = ["permanent-psd", "--matrix", str(f), "--shots", "30000", "--seed", "5", "--format", "csv"]
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_exact_printed_as_dash(self, tmp_path, capsys):
        # n = 13 without --exact: no exact value, so exact and ratio print "-"
        f = tmp_path / "eye.txt"
        f.write_text(dump_complex_matrix(np.eye(13)))
        assert main(["permanent-psd", "--matrix", str(f), "--shots", "2000", "--seed", "1", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()[-2:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["exact"] == "-" and cells["ratio"] == "-" and cells["low_confidence"] in ("yes", "no")

    def test_exact_above_crosscheck_limit(self, tmp_path, capsys):
        # n = 13 is past the estimator's own cross-check, so only --exact fills these
        f = tmp_path / "eye.txt"
        f.write_text(dump_complex_matrix(np.eye(13)))
        argv = ["permanent-psd", "--matrix", str(f), "--shots", "2000", "--seed", "1", "--format", "json"]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["exact"] is None and row["ratio"] is None
        assert main(argv + ["--exact"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["exact"] == pytest.approx(1.0, rel=1e-12)
        assert row["ratio"] == pytest.approx(row["estimate"] / row["exact"], rel=1e-12)

    def test_zero_matrix_prints_no(self, tmp_path, capsys):
        # the flag is a Python bool: a numpy bool would print as "False"
        f = tmp_path / "zero.txt"
        f.write_text(dump_complex_matrix(np.zeros((3, 3))))
        assert main(["permanent-psd", "--matrix", str(f), "--shots", "2000", "--seed", "1", "--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()[-2:]
        assert dict(zip(header.split(","), row.split(",")))["low_confidence"] == "no"

    @pytest.mark.parametrize("headroom", ["1e-10", "1e-15"])
    def test_all_zero_sample_exits_1(self, tmp_path, capsys, headroom):
        # per(I24) = 1, yet every all-ones weight underflows at this headroom: refused, naming it
        f = tmp_path / "eye.txt"
        f.write_text(dump_complex_matrix(np.eye(24)))
        assert main(["permanent-psd", "--matrix", str(f), "--shots", "1000", "--seed", "0", "--headroom", headroom]) == 1
        _assert_error_exit(capsys, f"headroom {float(headroom)} is too small")
        assert capsys.readouterr().err == ""


class TestValidate:
    def test_tmsv_fixture_passes(self, tmsv_config, capsys):
        rc = main(["validate", "--config", str(tmsv_config), "--oracle", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        rows = {row["pattern"]: row for row in report["rows"]}
        r = 0.5
        assert rows["1,1"]["oracle"] == pytest.approx(math.tanh(r) ** 2 / math.cosh(r) ** 2, abs=1e-9)
        assert all(row["delta"] <= 1e-6 for row in report["rows"])

    def test_auto_cutoff_covers_every_pattern(self, tmsv_config, capsys):
        # the oracle's cutoff is the largest pattern, here (1, 1), for faint states too
        path = _edited_config(tmsv_config, states=[{"type": "thermal", "v": 1.00001}] * 2)
        assert main(["validate", "--config", str(path), "--oracle", "--format", "json"]) == 0
        rows = {row["pattern"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["1,1"]["oracle"] == pytest.approx(rows["1,1"]["thermal"], rel=1e-9)

    def test_near_thermal_mode_is_thermal(self, tmsv_config, capsys):
        # |lam| <= 1e-14 makes a mode thermal for the engines and the oracle alike
        states = [{"type": "squeezed_thermal", "v": 1.5, "r": 1e-15}, {"type": "thermal", "v": 1.4}]
        path = _edited_config(tmsv_config, states=states)
        assert main(["validate", "--config", str(path), "--format", "json"]) == 0
        assert "thermal" in json.loads(capsys.readouterr().out)["rows"][0]

    def test_four_modes(self, tmp_path, capsys):
        net = gbsim.haar_random(4, 11)
        cfg = {
            "schema": 1,
            "modes": 4,
            "states": [{"type": "squeezed", "r": r} for r in (0.15, 0.1, 0.2, 0.12)],
            "unitary": [[[z.real, z.imag] for z in row] for row in net.u],
        }
        path = tmp_path / "four.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 16 and max(row["delta"] for row in rows) <= 1e-6

    @staticmethod
    def _config(tmp_path, m, **fields):
        # alternating squeezed and thermal modes behind a Haar network, in a file of its own
        (tmp_path / "u.txt").write_text(dump_complex_matrix(gbsim.haar_random(m, m).u))
        states = [{"type": "squeezed", "r": 0.2} if k % 2 else {"type": "thermal", "v": 1.3} for k in range(m)]
        path = tmp_path / f"modes-{m}.json"
        path.write_text(json.dumps({"schema": 1, "modes": m, "states": states, "unitary": {"file": "u.txt"}, **fields}))
        return path

    @pytest.mark.parametrize("m, fields, rows", [(6, {}, 64), (12, {"n_max": 3}, 299)])
    def test_above_four_modes(self, tmp_path, capsys, m, fields, rows):
        # every 0/1 pattern up to six modes; above, whatever n_max the oracle's cap admits
        assert main(["validate", "--config", str(self._config(tmp_path, m, **fields)), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)["rows"]
        assert len(report) == rows and max(row["delta"] for row in report) <= 1e-14

    def test_default_patterns_beyond_the_cap_exit_1(self, tmp_path, capsys):
        # seven modes' default patterns need cutoff 7, above the cap on the Givens layers' passes
        assert main(["validate", "--config", str(self._config(tmp_path, 7))]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gbsim: error: cutoff 7 at 7 modes needs ") and "layer passes" in err
        assert err.endswith("; give the config 'patterns' or a smaller 'n_max'\n")

    def test_cap_checked_before_the_patterns_are_built(self, tmp_path, capsys):
        # 30 modes' default patterns are 2^30 rows, which were built before the cap refused cutoff 30
        path = self._config(tmp_path, 30)
        path.write_text(json.dumps({**json.loads(path.read_text()), "states": [{"type": "thermal", "v": 1.5}] * 30}))
        start = time.perf_counter()
        assert main(["validate", "--config", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gbsim: error: cutoff 30 needs ") and "above the cap 4096" in err
        assert err.endswith("; give the config 'patterns' or a smaller 'n_max'\n")

    def test_listed_patterns_beyond_the_cap_advise_lighter_patterns(self, tmp_path, capsys):
        # the config already lists its patterns, so the advice is lighter ones, not 'patterns' or 'n_max'
        path = self._config(tmp_path, 40)
        path.write_text(json.dumps({**json.loads(path.read_text()), "states": [{"type": "thermal", "v": 1.5}] * 40, "patterns": [[1] * 40]}))
        assert main(["validate", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == f"gbsim: error: cutoff 40 needs {math.comb(80, 40)} basis states, above the cap 4096; give the config lighter 'patterns'\n"

    @pytest.mark.parametrize("n_max", [40, -1])
    def test_n_max_outside_the_modes_refused_before_the_cap(self, tmp_path, capsys, n_max):
        # as prob reads it: n_max = 40 at three modes was reported as a cutoff above the oracle's cap
        assert main(["validate", "--config", str(self._config(tmp_path, 3, n_max=n_max))]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"gbsim: error: n_max must be in [0, 3], got {n_max}\n"

    def test_engine_oracle_disagreement_exits_1(self, tmsv_config, monkeypatch, capsys):
        oracle = gbsim.cli.pattern_probabilities
        monkeypatch.setattr(gbsim.cli, "pattern_probabilities", lambda fock, pats: oracle(fock, pats) + 1e-5)
        assert main(["validate", "--config", str(tmsv_config)]) == 1
        out, err = capsys.readouterr()
        assert out.startswith("# gbsim")  # the report is still written
        assert err.startswith("gbsim validate: engine-oracle delta ") and err.endswith(" exceeds 1e-06\n")

    @pytest.mark.parametrize("fields", [{"patterns": [[2, 0]]}, {"patterns": [[0.5, 1]]}, {"n_max": 3}])
    def test_malformed_patterns_rejected(self, tmsv_config, fields, capsys):
        # only a config with neither key falls back to all patterns
        path = _edited_config(tmsv_config, **fields)
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().out == ""


MALFORMED_VALUES = {
    "n_max-fraction": {"n_max": 2.7},
    "n_max-string": {"n_max": "abc"},
    "n_max-null": {"n_max": None},
    # a bool read as 1 would list the patterns up to one photon
    "n_max-bool": {"n_max": True},
    "no-patterns-or-n_max": {"n_max": DROP},
    "schema-2": {"schema": 2},
    "states-count": {"states": [{"type": "thermal", "v": 2.0}]},
    "unitary-size": {"unitary": [[[1, 0]]]},
    "v-string": {"states": [{"type": "thermal", "v": "abc"}, {"type": "thermal", "v": 1.5}]},
    "v-null": {"states": [{"type": "thermal", "v": None}, {"type": "thermal", "v": 1.5}]},
    "r-array": {"states": [{"type": "squeezed", "r": [1]}, {"type": "thermal", "v": 1.5}]},
    "states-number": {"states": 5},
    "patterns-number": {"patterns": 5},
    "unitary-file-number": {"unitary": {"file": 5}},
    "seed-negative": None,
    "r-overflow": {"states": [{"type": "squeezed", "r": 1000}, {"type": "thermal", "v": 1.5}]},
    "r-overflow-thermal": {"states": [{"type": "squeezed_thermal", "v": 2, "r": 400}, {"type": "thermal", "v": 1.5}]},
    "modes-string": {"modes": "2"},
    "modes-fraction": {"modes": 2.5},
    # one state and a 1x1 network, so a bool read as 1 would run
    "modes-bool": {"modes": True, "states": [{"type": "thermal", "v": 2.0}], "unitary": [[[1, 0]]], "n_max": 1},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_malformed_values_exit_1_without_traceback(thermal_config, case, capsys):
    # never truncated (2.7 read as 2) and never a bare Python error
    fields = MALFORMED_VALUES[case]
    if fields is None:
        argv = ["haar", "--modes", "2", "--seed", "-1"]
    else:
        argv = ["prob", "--config", str(_edited_config(thermal_config, **fields))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("gbsim: error:") and "Traceback" not in err
    if (field := case.split("-")[0]) in ("modes", "n_max"):
        assert f"config field '{field}' must be an integer" in err


MISREAD_VALUES = {
    # each of these ran before as other physics, or as schema 1, with no warning
    "v-true": ({"states": [{"type": "thermal", "v": True}, {"type": "vacuum"}]}, "states[0]: thermal variance must be a number, got True"),
    "v-string": ({"states": [{"type": "thermal", "v": "3"}, {"type": "vacuum"}]}, "states[0]: thermal variance must be a number, got '3'"),
    "thermal-with-r": ({"states": [{"type": "thermal", "v": 2.0, "r": 0.5}, {"type": "vacuum"}]}, "states[0]: state descriptor {'type': 'thermal', 'v': 2.0, 'r': 0.5} has unexpected field 'r'"),
    "vacuum-with-v": ({"states": [{"type": "thermal", "v": 2.0}, {"type": "vacuum", "v": 3.0}]}, "states[1]: state descriptor {'type': 'vacuum', 'v': 3.0} has unexpected field 'v'"),
    "schema-true": ({"schema": True}, "config field 'schema' must be an integer, got True"),
    "both-keys": ({"patterns": [[1, 0]], "n_max": 1}, "config needs either 'patterns' or 'n_max', not both"),
    # `patterns-number` above stops at "not both", as its config keeps `n_max`
    "patterns-string": ({"patterns": "1,0", "n_max": DROP}, "config field 'patterns' must be an array"),
    "patterns-object": ({"patterns": {"0": [1, 0]}, "n_max": DROP}, "config field 'patterns' must be an array"),
}


@pytest.mark.parametrize("command", ["prob", "validate"])
@pytest.mark.parametrize("case", list(MISREAD_VALUES))
def test_misread_values_exit_1(thermal_config, command, case, capsys):
    fields, message = MISREAD_VALUES[case]
    assert main([command, "--config", str(_edited_config(thermal_config, **fields))]) == 1
    _assert_error_exit(capsys, f"gbsim: error: {message}\n")


def test_config_schema_1_0_still_runs(thermal_config, capsys):
    assert main(["prob", "--config", str(_edited_config(thermal_config, schema=1.0))]) == 0


@pytest.mark.parametrize("text", [None, '{"schema": 1,', "[1, 2]"], ids=["missing", "invalid-json", "root-array"])
def test_unreadable_configs_exit_1_without_traceback(tmp_path, text, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:  # None: the path does not exist
        path.write_text(text)
    assert main(["prob", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gbsim: error:") and "Traceback" not in err


def test_integer_past_the_digit_limit_exits_1(thermal_config, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, for an integer literal of more than 4300 digits
    path = thermal_config.with_name("long-integer.json")
    text = thermal_config.read_text()
    assert '"v": 2.0' in text
    path.write_text(text.replace('"v": 2.0', '"v": ' + "9" * 5000))
    assert main(["prob", "--config", str(path)]) == 1
    _assert_error_exit(capsys, "gbsim: error: config is not valid JSON: Exceeds the limit (4300 digits)")


def test_integer_values_still_run(thermal_config, capsys):
    states = [{"type": "thermal", "v": 2}, {"type": "thermal", "v": 1.5}]
    for fields in ({"n_max": 2, "states": states}, {"n_max": 2.0}, {"modes": 2.0}):
        assert main(["prob", "--config", str(_edited_config(thermal_config, **fields))]) == 0
    assert main(["haar", "--modes", "2", "--seed", "0"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_messages_use_the_parsed_mode_count(thermal_config, capsys):
    three = [{"type": "thermal", "v": 2.0}] * 3
    assert main(["prob", "--config", str(_edited_config(thermal_config, modes=2.0, states=three))]) == 1
    _assert_error_exit(capsys, "config declares modes = 2 but lists 3 states")
    assert main(["prob", "--config", str(_edited_config(thermal_config, modes=3.0, states=three))]) == 1
    _assert_error_exit(capsys, "unitary is 2x2 but config declares modes = 3")


def test_integral_float_modes_keeps_the_raw_config_hash(thermal_config, capsys):
    path = _edited_config(thermal_config, modes=2.0)
    raw = json.loads(path.read_text())
    assert raw["modes"] == 2.0 and isinstance(raw["modes"], float)
    want = hashlib.sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]
    assert main(["prob", "--config", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config_hash"] == want
    assert main(["prob", "--config", str(thermal_config), "--format", "json"]) == 0  # "modes": 2
    assert json.loads(capsys.readouterr().out)["config_hash"] != want


@pytest.mark.parametrize(
    "unitary", [[["10"]], [[[1, 0, 5]]], [[{"re": 1, "im": 0}]], [[[True, 0]]]], ids=["string", "three-numbers", "object", "bool"]
)
def test_malformed_inline_entry_exits_1(thermal_config, unitary, capsys):
    # an entry is a two-element array of numbers or refused: "10" is not read as 1 + 0j
    one_mode = {"modes": 1, "states": [{"type": "thermal", "v": 2.0}], "n_max": 1}
    assert main(["prob", "--config", str(_edited_config(thermal_config, **one_mode, unitary=[[[1, 0]]]))]) == 0
    capsys.readouterr()
    assert main(["prob", "--config", str(_edited_config(thermal_config, **one_mode, unitary=unitary))]) == 1
    assert capsys.readouterr() == ("", "gbsim: error: inline unitary must be a nested array of [re, im] pairs\n")


@pytest.mark.parametrize("where", ["file", "inline"])
@pytest.mark.parametrize("command", ["prob", "sample", "validate"])
def test_non_finite_unitary_exits_1_without_traceback(thermal_config, command, where, capsys):
    u = gbsim.haar_random(2, 9).u.copy()
    u[0, 1] = complex(math.nan, 0.0)
    if where == "file":
        (thermal_config.parent / "u.txt").write_text(dump_complex_matrix(u))
        path = thermal_config
    else:
        path = _edited_config(thermal_config, unitary=[[[z.real, z.imag] for z in row] for row in u])
    extra = ["--shots", "10", "--seed", "0"] if command == "sample" else []
    assert main([command, "--config", str(path), *extra]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gbsim: error:") and "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], 1),
        (["prob"], 1),
        (["nosuch"], 1),
        (["sample", "--config", "cfg.json", "--shots", "abc", "--seed", "1"], 1),
        (["haar", "--modes", "3", "--seed", "1", "--bogus"], 1),
        (["--help"], 0),
        (["prob", "--help"], 0),
        (["--version"], 0),
    ],
    ids=["no-command", "missing-option", "unknown-command", "bad-int", "unknown-option", "help", "command-help", "version"],
)
def test_usage_exit_codes(argv, code, capsys):
    # a usage error exits 1, as validation errors do; 2 is the cost-limit code
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert (err.startswith("usage: gbsim") and "error: " in err) if code else err == ""


class TestSharedParser:
    """In-process `main` calls share one parser; each call starts from the defaults."""

    def test_validate_flag_does_not_carry_over(self, thermal_config, capsys):
        assert main(["prob", "--config", str(thermal_config), "--validate", "--format", "csv"]) == 0
        assert "crosscheck_delta" in capsys.readouterr().out
        assert main(["prob", "--config", str(thermal_config), "--format", "csv"]) == 0
        assert "crosscheck_delta" not in capsys.readouterr().out

    def test_workers_flag_does_not_carry_over(self, thermal_config, monkeypatch, capsys):
        workers = _record_workers(monkeypatch)
        argv = ["sample", "--config", str(thermal_config), "--shots", "10", "--seed", "0"]
        assert main([*argv, "--workers", "2"]) == 0
        assert main(argv) == 0
        assert workers == [2, 1]  # the second call starts from the default

    @pytest.mark.parametrize("argv", [["--version"], ["prob"], ["no-such-command"], ["haar", "--modes", "x", "--seed", "1"]])
    def test_normal_call_after_an_exit(self, thermal_config, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert main(["prob", "--config", str(thermal_config), "--format", "json"]) == 0
        assert "crosscheck_delta" not in capsys.readouterr().out


def test_version_embedded_in_reports(thermal_config, capsys):
    main(["prob", "--config", str(thermal_config)])
    assert f"# gbsim {gbsim.__version__}" in capsys.readouterr().out


# --- table reports against per-pattern engine calls -------------------------

# The Fock oracle behind `validate` is cheap only for two mild modes.
REPORT_STATES = {
    "prob": {
        "thermal": [{"type": "thermal", "v": v} for v in (1.6, 2.8, 1.3, 2.2)] + [{"type": "vacuum"}],
        "squeezed": [{"type": "squeezed", "r": r} for r in (0.3, 0.9, 0.5, 0.7)] + [{"type": "vacuum"}],
        "mixed": [{"type": "squeezed_thermal", "v": 1.5, "r": 0.4}, {"type": "thermal", "v": 2.0}, {"type": "squeezed", "r": 0.6}, {"type": "vacuum"}, {"type": "thermal", "v": 1.2}],
    },
    "validate": {
        "thermal": [{"type": "thermal", "v": 1.6}, {"type": "thermal", "v": 1.3}],
        "squeezed": [{"type": "squeezed", "r": 0.3}, {"type": "squeezed", "r": 0.2}],
        "mixed": [{"type": "thermal", "v": 1.4}, {"type": "squeezed", "r": 0.25}],
    },
}


def _report_patterns(m):
    """Every pattern over m modes, shuffled, with some repeated."""
    pats = [[int(b) for b in f"{i:0{m}b}"] for i in range(2**m)]
    pats = [pats[i] for i in np.random.default_rng(m).permutation(len(pats))]
    return pats + pats[::3]


def _parse_report(text, fmt):
    """Report rows as dicts of cell strings (JSON values as they load)."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if fmt == "csv":
        import csv as csvmod

        return list(csvmod.DictReader(lines))
    head, *body = [ln.split() for ln in lines]
    return [dict(zip(head, cells)) for cells in body]


def _per_pattern_rows(cfg_path, command):
    """The rows of `prob --validate` or `validate --oracle`, one engine call per pattern."""
    from gbsim.engines import applicable
    from gbsim.fock_oracle import apply_network, pattern_probabilities, prepare_input

    cfg = json.loads(cfg_path.read_text())
    states = [gbsim.state_from_descriptor(d) for d in cfg["states"]]
    net = gbsim.validate_unitary(np.array([[complex(*z) for z in row] for row in cfg["unitary"]]))
    qf = gbsim.build_qform(states, net)
    names = applicable(qf)
    # a wider cutoff than the CLI's largest pattern: reports must not depend on it
    fock = apply_network(prepare_input(states, cutoff=12), net) if command == "validate" else None
    one_pattern = {"general": gbsim.prob_general, "thermal": gbsim.prob_thermal, "squeezed": gbsim.prob_squeezed}
    rows = []
    for pat in cfg["patterns"]:
        vals = {name: one_pattern[name](qf, pat) for name in names}
        row = {"pattern": ",".join(map(str, pat)), "N": sum(pat)}
        if command == "prob":
            row.update(probability=vals[names[-1]], engine=names[-1], crosscheck_delta=max(vals.values()) - min(vals.values()))
        else:
            oracle = pattern_probabilities(fock, [pat])[0]
            row.update(vals, oracle=oracle, delta=max(abs(p - oracle) for p in vals.values()))
        rows.append(row)
    return rows


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("kind", ["thermal", "squeezed", "mixed"])
@pytest.mark.parametrize("command", ["prob", "validate"])
def test_table_reports_equal_per_pattern_engines(tmp_path, capsys, command, kind, fmt):
    states = REPORT_STATES[command][kind]
    net = gbsim.haar_random(len(states), 17)
    cfg = {
        "schema": 1,
        "modes": len(states),
        "states": states,
        "unitary": [[[z.real, z.imag] for z in row] for row in net.u],
        "patterns": _report_patterns(len(states)),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    flag = "--validate" if command == "prob" else "--oracle"
    assert main([command, "--config", str(path), flag, "--format", fmt]) == 0
    got = _parse_report(capsys.readouterr().out, fmt)
    want = _per_pattern_rows(path, command)
    assert [list(r) for r in got] == [list(r) for r in want]
    for g, w in zip(got, want):
        for col, value in w.items():
            if isinstance(value, str):
                assert g[col] == value
            else:
                assert float(g[col]) == value, (col, g, w)


def test_bad_pattern_at_a_later_position(thermal_config, capsys):
    path = _edited_config(thermal_config, patterns=[[0, 0], [1, 0], [1, 2], [0, 1]], n_max=DROP)
    assert main(["prob", "--config", str(path)]) == 1
    assert "patterns[2]" in capsys.readouterr().err


def test_table_above_the_cost_limit_exits_2(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "modes": 12,
        "states": [{"type": "vacuum"}] * 12,
        "unitary": [[[float(i == j), 0.0] for j in range(12)] for i in range(12)],
        "patterns": [[0] * 12, [1] * 11 + [0]],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert main(["prob", "--config", str(path), "--engine", "general"]) == 2
    assert "cost limit" in capsys.readouterr().err


def _assert_error_exit(capsys, *fragments):
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gbsim: error:") and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


class TestInputFiles:
    """Every input file goes through one reader: a file that cannot be read or decoded exits 1."""

    @pytest.fixture(params=["missing", "directory", "not-utf8"])
    def bad_path(self, request, tmp_path):
        path = tmp_path / "m.txt"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "not-utf8":
            path.write_bytes(b"1 \xff\n")
        return path

    @pytest.mark.parametrize(
        "argv",
        [["permanent", "{}"], ["hafnian", "{}"], ["permanent-psd", "--matrix", "{}", "--shots", "10", "--seed", "0"]],
        ids=["permanent", "hafnian", "permanent-psd"],
    )
    def test_matrix_file(self, bad_path, argv, capsys):
        assert main([a.format(bad_path) for a in argv]) == 1
        _assert_error_exit(capsys, "cannot read matrix file", "m.txt")

    @pytest.mark.parametrize("command", ["prob", "validate", "sample"])
    def test_unitary_file(self, thermal_config, bad_path, command, capsys):
        path = _edited_config(thermal_config, unitary={"file": str(bad_path)})
        extra = ["--shots", "10", "--seed", "0"] if command == "sample" else []
        assert main([command, "--config", str(path), *extra]) == 1
        _assert_error_exit(capsys, "cannot read matrix file", "m.txt")

    def test_config_file(self, bad_path, capsys):
        assert main(["prob", "--config", str(bad_path)]) == 1
        _assert_error_exit(capsys, "cannot read config")


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning either
@pytest.mark.parametrize("entry", ["nan", "inf", "-inf+1j"])
@pytest.mark.parametrize(
    "argv",
    [
        ["permanent", "{}"],
        ["hafnian", "{}"],
        ["permanent-psd", "--matrix", "{}", "--shots", "10", "--seed", "0"],
        ["permanent-psd", "--matrix", "{}", "--shots", "10", "--seed", "0", "--exact"],
    ],
    ids=["permanent", "hafnian", "permanent-psd", "permanent-psd-exact"],
)
def test_non_finite_matrix_file_exits_1(tmp_path, argv, entry, capsys):
    path = tmp_path / "m.txt"
    path.write_text(f"1 {entry}\n{entry} 1\n")
    assert main([a.format(path) for a in argv]) == 1
    _assert_error_exit(capsys, f"matrix file {path} has a non-finite entry")


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning on the way either
@pytest.mark.parametrize(
    "argv, matrix, fragment",
    [
        (["permanent", "{}"], 1e40 * np.eye(8), "permanent of 8x8 is not finite"),
        (["permanent-psd", "--matrix", "{}", "--shots", "100", "--seed", "0"], 1e200 * np.eye(2), "outside the float range"),
        (["permanent-psd", "--matrix", "{}", "--shots", "100", "--seed", "0"], 1e13 * np.eye(24), "outside the float range"),
        (["permanent", "{}"], 1e-14 * np.eye(24), "permanent of 24x24 is 10^-336.0, below the float range"),  # printed 0+0j
    ],
    ids=["permanent", "permanent-psd", "permanent-psd-1e13-I24", "permanent-1e-14-I24"],
)
def test_results_outside_the_float_range_exit_1(tmp_path, argv, matrix, fragment, capsys):
    path = tmp_path / "m.txt"
    path.write_text(dump_complex_matrix(matrix))
    assert main([a.format(path) for a in argv]) == 1
    _assert_error_exit(capsys, fragment)


def test_subnormal_k_exits_1(thermal_config, capsys):
    path = _edited_config(thermal_config, modes=4, states=[{"type": "thermal", "v": 1e80}] * 4, unitary=[[[float(i == j), 0] for j in range(4)] for i in range(4)])
    assert main(["prob", "--config", str(path)]) == 1
    _assert_error_exit(capsys, "below the smallest normal float")


def test_probability_above_one_exits_1(thermal_config, monkeypatch, capsys):
    # all-vacuum inputs have K = 1, so the general engine returns the kernel value itself
    monkeypatch.setattr(engines, "hafnian", lambda stack: np.full(len(stack), 1.0 + 1e-6, dtype=complex))
    path = _edited_config(thermal_config, states=[{"type": "vacuum"}] * 2)
    assert main(["prob", "--config", str(path), "--engine", "general"]) == 1
    _assert_error_exit(capsys, "general-engine probability is above 1 by 1.000e-06")


class TestOut:
    def test_out_dir_environment_prefixes_relative_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GBSIM_OUT_DIR", str(tmp_path / "reports"))
        assert main(["haar", "--modes", "2", "--seed", "1", "--out", "u.txt"]) == 0
        assert main(["haar", "--modes", "2", "--seed", "1", "--out", str(tmp_path / "abs.txt")]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "reports" / "u.txt").read_bytes() == (tmp_path / "abs.txt").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["abs.txt", "reports"]

    @pytest.mark.parametrize("where", ["directory", "under-a-file"])
    def test_unwritable_out_exits_1_and_leaves_nothing(self, tmp_path, where, capsys):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        out = tmp_path / ("dir" if where == "directory" else "file/u.txt")
        assert main(["haar", "--modes", "2", "--seed", "1", "--out", str(out)]) == 1
        _assert_error_exit(capsys, f"cannot write --out file '{out}'")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]  # no .gbsim-* temp file


def test_dispatch_reads_the_command_at_each_call(monkeypatch, capsys):
    # the parser is built once; the cmd_* function is looked up at every call
    assert main(["haar", "--modes", "1", "--seed", "0"]) == 0
    seen = []
    monkeypatch.setattr(gbsim.cli, "cmd_haar", lambda args: seen.append(args.modes) or 7)
    assert main(["haar", "--modes", "2", "--seed", "0"]) == 7
    assert seen == [2]


class TestProbReach:
    """`prob` refuses an n_max beyond the engines' reach before it builds or evaluates a table."""

    @staticmethod
    def _config(tmp_path, m, n_max):
        (tmp_path / "u.txt").write_text(dump_complex_matrix(gbsim.haar_random(m, m).u))
        state = {"type": "squeezed_thermal", "v": 1.2, "r": 0.3}  # the general engine alone applies: N <= 10
        cfg = {"schema": 1, "modes": m, "states": [state] * m, "unitary": {"file": "u.txt"}, "n_max": n_max}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    @staticmethod
    def _record_hafnians(monkeypatch) -> list:
        shapes = []

        def recorded(b):
            shapes.append(np.shape(b))
            return gbsim.hafnian(b)

        monkeypatch.setattr(engines, "hafnian", recorded)
        return shapes

    def test_no_lighter_weight_is_evaluated(self, tmp_path, monkeypatch, capsys):
        # n_max = 12 evaluated weights 0 to 10 (0.3 s) before the 22x22 hafnian of weight 11 was refused
        shapes = self._record_hafnians(monkeypatch)
        assert main(["prob", "--config", str(self._config(tmp_path, 12, 12))]) == 2
        assert "hafnian of 24x24 exceeds the cost limit" in capsys.readouterr().err
        assert shapes == [(0, 24, 24)]

    def test_a_table_is_evaluated_heaviest_weight_first(self, monkeypatch):
        qform = gbsim.build_qform([gbsim.squeezed_thermal(1.2, 0.3)] * 12, gbsim.haar_random(12, 12))
        shapes = self._record_hafnians(monkeypatch)
        with pytest.raises(gbsim.CostLimitError, match="hafnian of 24x24"):
            engines.probabilities(qform, "general", engines.enumerate_patterns(12, 12))
        assert shapes == [(1, 24, 24)]

    def test_squeezed_engine_is_checked_at_its_heaviest_even_weight(self):
        # odd weights read 0 without a kernel call, so n_max = 21 needs 20x20 hafnians and 23 needs 22x22
        qform = gbsim.build_qform([gbsim.squeezed(0.3)] * 23, gbsim.haar_random(23, 23))
        engines.check_reach(qform, ["squeezed"], 21)
        with pytest.raises(gbsim.CostLimitError, match="hafnian of 22x22"):
            engines.check_reach(qform, ["squeezed"], 23)

    def test_no_table_is_built(self, tmp_path, monkeypatch, capsys):
        # at M = n_max = 20 the table alone is 2^20 rows
        def refuse(m, n_max):
            raise AssertionError("enumerate_patterns was called")

        monkeypatch.setattr(cli, "enumerate_patterns", refuse)
        assert main(["prob", "--config", str(self._config(tmp_path, 20, 20))]) == 2
        assert "hafnian of 40x40 exceeds the cost limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_max, argv, message",
        [
            (21, [], "n_max must be in [0, 20], got 21"),
            (-1, [], "n_max must be in [0, 20], got -1"),
            (20, ["--engine", "thermal"], "thermal engine requires lam_s = 0"),
        ],
        ids=["above-m", "negative", "inapplicable-engine"],
    )
    def test_other_errors_come_first(self, tmp_path, n_max, argv, message, capsys):
        assert main(["prob", "--config", str(self._config(tmp_path, 20, n_max)), *argv]) == 1
        _assert_error_exit(capsys, message)
