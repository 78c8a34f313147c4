"""File ingestion, emission formats, and the command-line surface."""

import argparse
import csv
import inspect
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ordpat
from ordpat import cli
from ordpat.cli import (
    _resolve_scheme, build_parser, main, run_benchmark, run_benchmark_data, run_benchmark_simulated,
    run_pairwise,
)
from ordpat.dependence import KERNELS, analyze_pair, classical_dependence, dependence_estimates
from ordpat.patterns import TiePolicy
from ordpat.exceptions import DataFormatError
from ordpat.io import (
    FLOOD_CLASSES,
    classify_peak,
    load_class_matrix,
    save_class_matrix,
    write_symmetric_matrix,
)
from ordpat.spatial import ClassMatrix


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "classes.csv"
    path.write_text(
        "event,aue,zwickau,wechselburg\n"
        "1926-07,0,1,0\n"
        "1932-01,2,2,3\n"
        "1954-07,4,-1,4\n"
        "2002-08,4,4,4\n"
        "2013-06,3,4,4\n",
        encoding="utf-8",
    )
    return path


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's ordpat."""
    env = dict(os.environ)
    src = str(Path(ordpat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def synthetic_matrix(rows=120, gauges=4, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 3, size=rows)
    cols = [np.clip(base + rng.integers(-1, 2, size=rows), 0, 4) for _ in range(gauges)]
    return ClassMatrix(
        classes=np.column_stack(cols),
        gauges=tuple(f"g{i}" for i in range(gauges)),
    )


class TestPackage:
    def test_all_is_sorted_and_names_every_public_binding(self):
        public = {
            name for name, value in vars(ordpat).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert ordpat.__all__ == sorted(ordpat.__all__)
        assert set(ordpat.__all__) == public

    def test_public_api_is_pinned(self):
        # an addition to or a removal from the public API is an edit of this list
        assert ordpat.__all__ == [
            "CLASSICAL_LONG", "CLASSICAL_SHORT", "ClassMatrix", "ClassSeries", "DataFormatError",
            "DependenceEstimates", "DependenceReport", "EXACT", "FLOOD_CLASSES", "GENERALIZED_LONG",
            "GENERALIZED_SHORT", "IngarchSpec", "NumericalWarning", "PatternTable", "SCHEMES",
            "SpatialReport", "TiePolicy", "VarianceEstimate", "WeightScheme", "analyze_pair",
            "analyze_spatial", "baseline_frequencies", "classical_dependence", "classify_peak",
            "confidence_interval", "cramers_v", "cramers_v_autocorrelation", "dependence_estimates",
            "encode_pattern", "encode_permutation", "enumerate_patterns", "fubini", "get_scheme",
            "l1_distance", "load_class_matrix", "long_run_variance", "pattern_distance",
            "pattern_frequencies", "save_class_matrix", "scheme_for_length", "score",
            "simulate_ingarch", "spatial_encode", "spatial_significance", "standardized_coefficient",
        ]


class TestClassify:
    def test_reference_classes(self):
        assert classify_peak(0.95) == 3
        assert classify_peak(0.49) == 0
        assert classify_peak(0.0) == 0
        assert classify_peak(1.0) == 4

    def test_boundaries_take_the_higher_class(self):
        assert FLOOD_CLASSES == (0.0, 0.5, 0.8, 0.933, 0.966)
        assert classify_peak(0.5) == 1
        assert classify_peak(0.8) == 2
        assert classify_peak(0.933) == 3
        assert classify_peak(0.966) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_peak(-0.1)
        with pytest.raises(ValueError):
            classify_peak(1.01)


class TestLoader:
    def test_well_formed(self, matrix_file):
        matrix = load_class_matrix(matrix_file)
        assert matrix.num_events == 5
        assert matrix.gauges == ("aue", "zwickau", "wechselburg")
        assert matrix.event_ids[0] == "1926-07"
        assert matrix.classes[2].tolist() == [4, -1, 4]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"event,a,b\r\n1,0,1\r\n2,1,0\r\n")
        assert load_class_matrix(path).num_events == 2

    def test_non_integer_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event,a,b\n1,0,1\n2,2.5,0\n")
        with pytest.raises(DataFormatError, match=r"line 3.*gauge 'a'.*not an integer"):
            load_class_matrix(path)

    def test_empty_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event,a,b\n1,0,\n")
        with pytest.raises(DataFormatError, match=r"line 2.*gauge 'b'.*empty"):
            load_class_matrix(path)

    def test_padded_cells_parse_and_blank_cell_named(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("event,a,b,c\n1, 3 ,-1,+2\n")
        assert load_class_matrix(path).classes.tolist() == [[3, -1, 2]]
        path.write_text("event,a,b,c\n1, 3 ,-1,+2\n2,0,x,  \n")
        with pytest.raises(DataFormatError, match=r"line 3, gauge 'b': 'x' is not an integer"):
            load_class_matrix(path)
        path.write_text("event,a,b,c\n1, 3 ,-1,+2\n2,0,4,  \n")
        with pytest.raises(DataFormatError, match=r"line 3, gauge 'c': empty cell"):
            load_class_matrix(path)

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
    def test_cell_past_int64_names_line_and_gauge(self, tmp_path, cell, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(f"event,a,b\n1,0,1\n\n2,3,{cell}\n")
        message = rf"line 4, gauge 'b': {cell} is not an integer in the int64 range"
        with pytest.raises(DataFormatError, match=message):
            load_class_matrix(path)
        assert main(["spatial", "--data", str(path)]) == 2
        assert "line 4, gauge 'b'" in capsys.readouterr().err
        path.write_text("event,a,b\n1,9223372036854775807,-9223372036854775808\n")
        assert load_class_matrix(path).classes.tolist() == [[2**63 - 1, -2**63]]

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff15", "\xa05", "\x1c5"])
    def test_cell_is_an_ascii_sign_and_digits(self, tmp_path, cell, capsys):
        # int() reads each of these cells: digit grouping, Arabic-Indic and
        # fullwidth digits, a no-break space, a separator Python counts as space
        path = tmp_path / "rule.csv"
        path.write_text(f"event,a,b\n1,0,1\n2,{cell},3\n", encoding="utf-8")
        message = f"line 3, gauge 'a': {cell!r} is not an integer"
        with pytest.raises(DataFormatError) as info:
            load_class_matrix(path)
        assert str(info.value) == f"{path}, {message}"
        assert main(["spatial", "--data", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_non_ascii_labels_and_event_ids_load(self, tmp_path):
        path = tmp_path / "labels.csv"
        text = "event,G\u00f6ritzhain,b_1\nev_1, 1 ,\t-2\n\u00e9v\u00e9nement,+0,007\n"
        path.write_text(text, encoding="utf-8")
        matrix = load_class_matrix(path)
        assert matrix.classes.tolist() == [[1, -2], [0, 7]]
        assert matrix.gauges == ("G\u00f6ritzhain", "b_1")
        assert matrix.event_ids == ("ev_1", "\u00e9v\u00e9nement")

    def test_non_utf8_file_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"event,a,b\n1,0,1\n2,3,1\n\xe9t\xe9,1,2\n")
        message = f"{path}, line 4: not UTF-8 text (byte 0xe9: invalid continuation byte)"
        with pytest.raises(DataFormatError) as info:
            load_class_matrix(path)
        assert str(info.value) == message
        assert main(["spatial", "--data", str(path)]) == 2
        assert capsys.readouterr().err == f"ordpat: data error: {message}\n"

    def test_duplicate_gauge_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event,a,a\n1,0,1\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_class_matrix(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("event,a,b\n1,0\n")
        with pytest.raises(DataFormatError, match="expected 3 cells"):
            load_class_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_class_matrix(path)

    def test_round_trip_and_valid_files_never_warn(self, tmp_path):
        import warnings

        matrix = synthetic_matrix()
        path = tmp_path / "round.csv"
        save_class_matrix(matrix, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_class_matrix(path)
        np.testing.assert_array_equal(loaded.classes, matrix.classes)
        assert loaded.gauges == matrix.gauges


class TestEmission:
    def test_symmetric_matrix_round_trip(self, tmp_path):
        values = np.array([[1.0, 0.25], [0.25, 1.0]])
        path = tmp_path / "m.csv"
        write_symmetric_matrix(["a", "b"], values, path)
        with open(path, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["gauge", "a", "b"]
        assert [row[0] for row in rows] == ["a", "b"]
        np.testing.assert_array_equal([[float(v) for v in row[1:]] for row in rows], values)

    def test_plot_data_round_trip(self, tmp_path):
        matrix = synthetic_matrix(rows=30)
        data, path = tmp_path / "m.csv", tmp_path / "plot.csv"
        save_class_matrix(matrix, data)
        assert main(["plot-data", "--data", str(data), "--gauges", "g0,g1", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "index,g0,g1"
        assert len(lines) == 31
        values = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
        np.testing.assert_array_equal(values, matrix.classes[:, :2])

    def test_pattern_labels_match_pattern_label(self):
        from ordpat.io import pattern_label, pattern_labels
        from ordpat.patterns import enumerate_patterns

        for n in (1, 4, 8):
            codes = enumerate_patterns(n).codes
            assert pattern_labels(codes) == [pattern_label(row) for row in codes.tolist()]
        assert pattern_labels(np.empty((0, 3), dtype=np.int64)) == []
        with pytest.raises(ValueError, match="one digit"):
            pattern_labels(np.array([[10, 1]]))

    def test_plot_data_empty_matrix_header_only(self, tmp_path):
        # plot-data writes the gauge subset as a class matrix with an "index" column
        empty = ClassMatrix(classes=np.empty((0, 2), dtype=np.int64), gauges=("a", "b"))
        path = tmp_path / "empty.csv"
        save_class_matrix(empty, path, id_label="index")
        assert path.read_text() == "index,a,b\n"


class TestPairwiseDriver:
    def test_symmetric_outputs_with_unit_diagonal(self, tmp_path):
        matrix = synthetic_matrix()
        labels, matrices, reports = run_pairwise(matrix, n=4, replicates=20, seed=3)
        assert labels == list(matrix.gauges)
        for name in ("score", "comparison", "coefficient"):
            np.testing.assert_array_equal(matrices[name], matrices[name].T)
        np.testing.assert_array_equal(np.diag(matrices["score"]), 1.0)
        assert len(reports) == 6

    def test_comparison_matrix_is_score_baseline(self):
        # diagonal included: every cell is the score comparison value of its pair
        matrix = synthetic_matrix()
        labels, matrices, _ = run_pairwise(matrix, n=4, replicates=4, seed=3)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                expected = dependence_estimates(matrix.column(a), matrix.column(b), 4).score_comparison
                assert matrices["comparison"][i, j] == expected

    def test_duplicated_column_dominates(self):
        matrix = synthetic_matrix(rows=100, gauges=12, seed=5)
        classes = np.column_stack([matrix.classes, matrix.classes[:, 0]])
        dup = ClassMatrix(
            classes=classes, gauges=(*matrix.gauges, "gdup")
        )
        labels, matrices, _ = run_pairwise(dup, n=4, replicates=4, seed=1)
        score = matrices["score"]
        pair = score[labels.index("g0"), labels.index("gdup")]
        assert pair == 1.0
        off_diag = score[~np.eye(len(labels), dtype=bool)]
        assert pair == off_diag.max()

    def test_needs_two_gauges(self):
        matrix = synthetic_matrix(gauges=1)
        with pytest.raises(ValueError, match="at least 2"):
            run_pairwise(matrix)

    def test_repeated_gauge_rejected(self):
        matrix = synthetic_matrix(gauges=3)
        with pytest.raises(ValueError, match="repeats the label 'g1'"):
            run_pairwise(matrix, gauges=("g1", "g1"))


class TestBenchmarkDriver:
    def test_data_mode_rows(self):
        matrix = synthetic_matrix(rows=150)
        rows = run_benchmark_data(matrix, lengths=(4,), seed=2)
        assert {r["approach"] for r in rows} == {"generalized", "randomized", "first_appearance"}
        for row in rows:
            assert 0.0 <= row["min"] <= row["mean"] <= row["max"] <= 1.0

    def test_data_mode_needs_two_distinct_gauges(self):
        with pytest.raises(ValueError, match="needs at least 2 gauges"):
            run_benchmark_data(synthetic_matrix(gauges=1), lengths=(4,))
        with pytest.raises(ValueError, match="repeats the label 'g0'"):
            run_benchmark_data(synthetic_matrix(), gauges=("g0", "g0"), lengths=(4,))

    @pytest.mark.parametrize("n", [4, 6])
    def test_scores_equal_full_pipelines(self, n):
        matrix = synthetic_matrix(rows=150)
        x, y = matrix.column("g0"), matrix.column("g1")
        rows = run_benchmark([x], [y], [[17 + n]], lengths=(n,))
        expected = {
            "generalized": dependence_estimates(x, y, n).total_score,
            "randomized": classical_dependence(x, y, n, 1, TiePolicy.randomize(17 + n)).total_score,
            "first_appearance": classical_dependence(x, y, n, 1, TiePolicy.first_appearance()).total_score,
        }
        for row in rows:
            assert row["mean"] == row["min"] == row["max"] == expected[row["approach"]]

    def test_unequal_pair_lengths_rejected(self):
        matrix = synthetic_matrix(rows=150)
        x, y = matrix.column("g0"), matrix.column("g1")
        with pytest.raises(ValueError, match="series length mismatch: 150 vs 120"):
            run_benchmark([x, x[:120]], [y, y[:120]], [[4], [4]], lengths=(4,))

    def test_one_y_and_one_seed_row_per_x(self):
        x = synthetic_matrix(rows=150).column("g0")
        with pytest.raises(ValueError, match="got 2 xs, 1 ys and 2 seed rows"):
            run_benchmark([x, x], [x], [[4], [4]], lengths=(4,))
        with pytest.raises(ValueError, match="got 1 xs, 1 ys and 2 seed rows"):
            run_benchmark([x], [x], [[4], [4]], lengths=(4,))

    def test_one_seed_per_length_in_each_seed_row(self):
        x, y = (synthetic_matrix(rows=150).column(g) for g in ("g0", "g1"))
        with pytest.raises(ValueError, match="seed row 0 holds 1 seeds for 2 pattern lengths"):
            run_benchmark([x], [y], [[17]], lengths=(4, 6))
        with pytest.raises(ValueError, match="seed row 1 holds 3 seeds for 2 pattern lengths"):
            run_benchmark([x, x], [y, y], [[17, 18], [17, 18, 19]], lengths=(4, 6))

    @pytest.mark.parametrize("pairs", [100, 400])
    def test_peak_does_not_grow_with_pairs_times_windows(self, pairs, traced_peak):
        # only each slice's per-window scores and each pair's mean are kept:
        # the (pairs, windows) float64 scores alone would take 6.1 MiB at 400
        xs, ys = np.random.default_rng(pairs).poisson(4.0, size=(2, pairs, 2000))
        xs, ys = list(xs), list(ys)
        seeds = [[k, k + 1] for k in range(pairs)]
        rows, peak = traced_peak(lambda: run_benchmark(xs, ys, seeds, lengths=(4, 6)))
        assert len(rows) == 6
        assert peak < 3 * 2**20


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each attribute read once ``reads`` is a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def subcommand_actions(parser, command):
    """The actions of one subcommand's parser, its help action left out."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in subparsers.choices[command]._actions if a.default is not argparse.SUPPRESS]


class TestCli:
    def test_degenerate_pairs_named_in_warnings(self, tmp_path, capsys):
        # a comparison value is 1 only when both gauges show one same pattern,
        # so the constant gauges g3, g5 and g9 make every pair among them degenerate
        rng = np.random.default_rng(17)
        columns = [rng.integers(0, 4, 60), np.zeros(60, int), np.full(60, 2),
                   rng.integers(0, 4, 60), np.full(60, -1)]
        data = tmp_path / "constant.csv"
        save_class_matrix(ClassMatrix(np.column_stack(columns), ("g1", "g3", "g5", "g7", "g9")), data)
        args = ["pairwise", "--data", str(data), "--n", "3", "--replicates", "20"]
        assert main(args) == 0
        warned = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert warned == [
            f"ordpat: warning: {pair}: degenerate marginal: monotone and anti-monotone "
            "comparison values are 1, terms set to 0"
            for pair in ("g3|g5", "g3|g9", "g5|g9")
        ]
        assert main(["--strict", *args]) == 3
        assert "escalated (--strict)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed,statistic,value", [(9, "coincidence", "-2.103e-02"), (28, "score", "-6.962e-03")]
    )
    def test_negative_variances_named_in_warnings(self, tmp_path, capsys, seed, statistic, value):
        # the truncated kernel is not positive semi-definite
        data = tmp_path / "classes.csv"
        save_class_matrix(synthetic_matrix(rows=40, gauges=3, seed=seed), data)
        args = ["pairwise", "--data", str(data), "--n", "3", "--kernel", "truncated",
                "--bandwidth", "3", "--replicates", "20"]
        assert main(args) == 0
        warned = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert warned == [
            f"ordpat: warning: g0|g2 {statistic}: long-run variance estimate {value} is negative; "
            "truncated to 0"
        ]
        assert main(["--strict", *args]) == 3
        assert "escalated (--strict)" in capsys.readouterr().err

    def test_closed_pipe_exits_quietly(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["enumerate", "--n", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_pipe_from_reader(self):
        # the reader takes one line and closes; the rest must not raise
        proc = subprocess.Popen(
            [sys.executable, "-m", "ordpat.cli", "enumerate", "--n", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
        )
        assert proc.stdout.readline() == b"(1,1,1,1,1,1)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    @pytest.mark.parametrize("argv", [
        pytest.param(["encode", "1", "2", "2", "4"], id="encode"),
        *(
            pytest.param(["encode", "--tie-policy", kind, "1", "2", "3", "4"], id=f"encode-{kind}")
            for kind in TiePolicy.KINDS
        ),
        pytest.param(["enumerate", "--n", "3"], id="enumerate"),
        pytest.param(["classify", "0.5", "0.95"], id="classify"),
        pytest.param(["simulate", "--length", "20"], id="simulate"),
        pytest.param(["pairwise", "--data", "{data}", "--n", "2", "--replicates", "8"], id="pairwise"),
        pytest.param(["spatial", "--data", "{data}"], id="spatial"),
        pytest.param(["spatial", "--data", "{data}", "--include-zero"], id="spatial-include-zero"),
        pytest.param(["benchmark", "--replications", "3", "--length", "40"], id="benchmark"),
        pytest.param(["benchmark", "--data", "{data}", "--lengths", "4"], id="benchmark-data"),
        pytest.param(["plot-data", "--data", "{data}", "--out", "{out}"], id="plot-data"),
    ])
    def test_subcommand_leaves_numpy_ma_unimported(self, argv, matrix_file, tmp_path):
        # the first np.quantile, np.union1d or plain np.unique imports
        # numpy.ma, which costs a fresh process about 16 ms
        argv = [arg.format(data=matrix_file, out=tmp_path / "out.csv") for arg in argv]
        code = "import sys\nfrom ordpat.cli import main\nprint(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=fresh_env(), timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 False"

    def test_encode_generalized(self, capsys):
        assert main(["encode", "1", "2", "4", "3"]) == 0
        assert capsys.readouterr().out.strip() == "(1,2,4,3)"

    def test_encode_window_past_int8_codes_is_a_data_error(self, capsys):
        assert main(["encode", *map(str, range(1, 128))]) == 0
        assert capsys.readouterr().out.strip() == "(" + ",".join(map(str, range(1, 128))) + ")"
        assert main(["encode", *map(str, range(1, 129))]) == 2
        assert "window of 128 values exceeds the limit of 127" in capsys.readouterr().err

    def test_encode_classical(self, capsys):
        assert main(["encode", "4", "4", "4", "4", "--tie-policy", "first_appearance"]) == 0
        assert capsys.readouterr().out.strip() == "(4,3,2,1)"
        assert main(["encode", "2", "2", "--tie-policy", "skip"]) == 0
        assert capsys.readouterr().out.strip() == "absent"

    def test_encode_classical_rejects_nan(self, capsys):
        assert main(["encode", "nan", "1", "2", "--tie-policy", "first_appearance"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_enumerate(self, capsys):
        assert main(["enumerate", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "patterns of length 3: 13" in out
        assert "(2,1,2)" in out

    def test_classify(self, capsys):
        assert main(["classify", "0.95", "0.49"]) == 0
        out = capsys.readouterr().out
        assert "0.95 -> class 3" in out and "0.49 -> class 0" in out

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--n", "not-a-number"])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["pairwise", "--data", "m.csv"],
        ["benchmark"],
        ["benchmark", "--data", "m.csv"],
        ["simulate"],
        ["encode", "--tie-policy", "randomize", "1", "2"],
    ], ids=["pairwise", "benchmark", "benchmark_data", "simulate", "encode"])
    def test_negative_seed_is_usage_error_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--seed", "-3"])
        assert info.value.code == 1
        assert "argument --seed: expected a non-negative integer, got '-3'" in capsys.readouterr().err

    def test_pairwise_flag_defaults_are_the_driver_defaults(self):
        args = vars(build_parser().parse_args(["pairwise", "--data", "m.csv"]))
        driver = inspect.signature(run_pairwise).parameters
        analyze = inspect.signature(analyze_pair).parameters
        names = ["n", "stride", "level", "kernel", "bandwidth", "block", "replicates", "seed", "gauges"]
        for name in names:
            assert args[name] == driver[name].default, name
            if name not in ("n", "gauges"):  # analyze_pair takes two series and no default n
                assert driver[name].default == analyze[name].default, name
        assert args["scheme"] == "auto" and _resolve_scheme("auto") is None
        assert driver["scheme"].default is None and analyze["scheme"].default is None

    def test_benchmark_flag_defaults_are_the_driver_defaults(self):
        args = vars(build_parser().parse_args(["benchmark"]))
        for driver in (run_benchmark_data, run_benchmark_simulated):
            parameters = inspect.signature(driver).parameters
            for name in ("lengths", "stride", "seed"):
                assert args[name] == parameters[name].default, (driver.__name__, name)
            assert parameters["scheme"].default is None
        assert args["gauges"] == inspect.signature(run_benchmark_data).parameters["gauges"].default
        assert args["scheme"] == "auto"

    def test_gauges_flag_is_a_comma_list(self):
        parser = build_parser()
        for argv in (["spatial", "--data", "m.csv"], ["plot-data", "--data", "m.csv", "--out", "o.csv"]):
            assert parser.parse_args(argv).gauges == ()
            assert parser.parse_args([*argv, "--gauges", ""]).gauges == ()
            assert parser.parse_args([*argv, "--gauges", "a,b"]).gauges == ("a", "b")

    def test_kernel_and_tie_policy_flags_take_every_library_choice(self):
        parser = build_parser()
        for kernel in KERNELS:
            assert parser.parse_args(["pairwise", "--data", "m.csv", "--kernel", kernel]).kernel == kernel
        for kind in TiePolicy.KINDS:
            assert parser.parse_args(["encode", "--tie-policy", kind, "1", "2"]).tie_policy == kind

    @pytest.mark.parametrize("argv,flag,text,kind", [
        (["benchmark", "--lengths"], "lengths", "4,x", "int"),
        (["benchmark", "--lengths"], "lengths", "", "int"),
        (["simulate", "--beta"], "beta", "0.3,x", "float"),
        (["benchmark", "--alpha"], "alpha", "0.1,", "float"),
    ], ids=["lengths", "empty_lengths", "beta", "alpha"])
    def test_malformed_comma_list_is_usage_error_naming_the_flag(self, argv, flag, text, kind, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, text])
        assert info.value.code == 1
        expected = f"argument --{flag}: expected a comma list of {kind} values, got {text!r}"
        assert expected in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["pairwise", "--data", str(missing)]) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("event,a,b\n1,0.5,1\n")
        assert main(["pairwise", "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "gauge 'a'" in err

    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys):
        for argv in (
            ["classify", "0.5", "--kernel", "bartlett"],
            ["spatial", "--data", "m.csv", "--n", "3"],
            ["enumerate", "--n", "3", "--replicates", "5"],
            ["benchmark", "--n", "4"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1

    def test_bad_block_is_data_error(self, matrix_file, capsys):
        for block in ("0", "-3", "5"):
            assert main([
                "pairwise", "--data", str(matrix_file), "--n", "2",
                "--replicates", "8", "--block", block,
            ]) == 2
            assert "block must lie in 1..4" in capsys.readouterr().err

    def test_enumerate_out_of_range_is_data_error(self, capsys):
        assert main(["enumerate", "--n", "11"]) == 2

    def test_count_only_builds_no_table(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "enumerate_patterns", None)  # a call would raise TypeError
        assert main(["enumerate", "--n", "10", "--count-only"]) == 0
        assert main(["enumerate", "--n", "15", "--count-only"]) == 0
        assert capsys.readouterr().out == (
            "patterns of length 10: 102247563\npatterns of length 15: 230283190977853\n"
        )
        for n in ("0", "16"):
            assert main(["enumerate", "--n", n, "--count-only"]) == 2
            assert f"pattern length for counting must be in 1..15, got {n}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["--gauges", "nosuch", "--replications", "2", "--length", "50", "--lengths", "4"], "--gauges"),
        (["--data", "{data}", "--beta0", "-5", "--replications", "0", "--lengths", "4"], "--beta0"),
        (["--data", "{data}", "--length", "1000"], "--length"),
        (["--gauges", "", "--replications", "2"], "--gauges"),
    ], ids=["gauges-simulated", "beta0-data", "length-default-data", "gauges-default-simulated"])
    def test_benchmark_flag_of_the_other_mode_is_usage_error(self, argv, flag, matrix_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", *(arg.format(data=matrix_file) for arg in argv)])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: benchmark" in captured.err and "--data" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--replications", "2", "--length", "50", "--lengths", "4,6,4"],
        ["--data", "{data}", "--lengths", "4,4"],
    ], ids=["simulated", "data"])
    def test_benchmark_repeated_length_is_usage_error(self, argv, matrix_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["benchmark", *(arg.format(data=matrix_file) for arg in argv)])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --lengths: repeats the length 4" in captured.err

    @pytest.mark.parametrize("argv", [
        pytest.param(["enumerate", "--n", "3"], id="enumerate"),
        pytest.param(["encode", "--tie-policy", "randomize", "--seed", "3", "1", "2", "2", "4"], id="encode"),
        pytest.param(["pairwise", "--data", "{data}", "--n", "3", "--replicates", "20"], id="pairwise"),
        pytest.param(["spatial", "--data", "{data}"], id="spatial"),
        pytest.param(["benchmark", "--replications", "3", "--length", "40", "--lengths", "4"], id="benchmark"),
        pytest.param(["benchmark", "--data", "{data}", "--lengths", "4"], id="benchmark-data"),
        pytest.param(["simulate", "--length", "20"], id="simulate"),
        pytest.param(["classify", "0.5", "0.95"], id="classify"),
        pytest.param(["plot-data", "--data", "{data}", "--out", "{out}"], id="plot-data"),
    ])
    def test_every_declared_flag_is_read_or_rejected(self, argv, tmp_path, capsys):
        # a flag that the handler does not read in this run must be a usage
        # error when given, even at its default value, not a silent no-op
        data = tmp_path / "classes.csv"
        save_class_matrix(synthetic_matrix(rows=40, gauges=3, seed=4), data)
        argv = [arg.format(data=data, out=tmp_path / "out.csv") for arg in argv]
        parser = build_parser()
        args = parser.parse_args(argv, namespace=ReadRecorder())
        args.reads = set()
        assert args.func(args) == 0
        unread = [a for a in subcommand_actions(parser, argv[0]) if a.dest not in args.reads]
        for action in unread:
            default = action.default
            value = ",".join(default) if isinstance(default, tuple) else str(default)
            given = [action.option_strings[0], *([value] if action.nargs != 0 else [])]
            with pytest.raises(SystemExit) as info:
                main([*argv, *given])
            assert info.value.code == 1, given

    def test_non_finite_coefficient_is_data_error(self, capsys):
        assert main(["simulate", "--beta", "nan"]) == 2
        assert "beta must be finite" in capsys.readouterr().err
        assert main(["benchmark", "--alpha", "inf", "--replications", "2"]) == 2
        assert "alpha must be finite" in capsys.readouterr().err

    def test_zero_replications_is_data_error(self, capsys):
        assert main(["benchmark", "--replications", "0"]) == 2
        assert "replications must be >= 1" in capsys.readouterr().err

    def test_repeated_gauge_label_is_data_error(self, matrix_file, tmp_path, capsys):
        data = str(matrix_file)
        for argv in (
            ["pairwise", "--data", data, "--n", "2", "--replicates", "4"],
            ["benchmark", "--data", data, "--lengths", "2"],
            ["spatial", "--data", data],
            ["plot-data", "--data", data, "--out", str(tmp_path / "panel.csv")],
        ):
            assert main([*argv, "--gauges", "aue,zwickau,aue"]) == 2
            assert "gauge list repeats the label 'aue'" in capsys.readouterr().err
        assert not (tmp_path / "panel.csv").exists()

    def test_benchmark_data_with_one_gauge_is_data_error(self, matrix_file, capsys):
        assert main(["benchmark", "--data", str(matrix_file), "--gauges", "aue"]) == 2
        assert "needs at least 2 gauges" in capsys.readouterr().err

    def test_spatial_alpha_outside_unit_interval_is_data_error(self, matrix_file, capsys):
        for alpha in ("0", "1", "2", "-0.5"):
            assert main(["spatial", "--data", str(matrix_file), "--alpha", alpha]) == 2
            assert "alpha must lie strictly between 0 and 1" in capsys.readouterr().err

    def test_spatial_small_sample_warning_names_the_gauges(self, matrix_file, capsys):
        assert main(["spatial", "--data", str(matrix_file), "--gauges", "zwickau,aue"]) == 0
        assert capsys.readouterr().err == (
            "ordpat: warning: zwickau,aue: only 5 events; spatial z-statistics are asymptotic\n"
        )

    def test_unknown_gauge_message_is_plain(self, matrix_file, capsys):
        assert main(["spatial", "--data", str(matrix_file), "--gauges", "aue,zz"]) == 2
        assert capsys.readouterr().err == "ordpat: error: unknown gauge label 'zz'\n"

    def test_pairwise_outputs_and_determinism(self, matrix_file, tmp_path, capsys):
        args = [
            "pairwise", "--data", str(matrix_file), "--n", "2",
            "--replicates", "12", "--seed", "7",
        ]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        for suffix in ("score", "comparison", "coefficient", "pairs"):
            bytes_a = (tmp_path / f"a_{suffix}.csv").read_bytes()
            bytes_b = (tmp_path / f"b_{suffix}.csv").read_bytes()
            assert bytes_a == bytes_b
        with open(tmp_path / "a_score.csv", newline="") as handle:
            score = np.array([[float(v) for v in row[1:]] for row in list(csv.reader(handle))[1:]])
        np.testing.assert_array_equal(score, score.T)

    def test_pairwise_long_format(self, matrix_file, capsys):
        assert main([
            "pairwise", "--data", str(matrix_file), "--n", "2",
            "--replicates", "8", "--format", "long",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("gauge_a,gauge_b,")
        assert "aue,zwickau" in out

    def test_pairwise_long_format_is_the_pairs_csv(self, tmp_path, capsys):
        matrix = synthetic_matrix(rows=40, gauges=3, seed=5)
        data = tmp_path / "m.csv"
        save_class_matrix(ClassMatrix(matrix.classes, ("G,1", 'say "b"', "c")), data)
        args = ["pairwise", "--data", str(data), "--n", "3", "--replicates", "8"]
        assert main([*args, "--out", str(tmp_path / "p")]) == 0
        capsys.readouterr()
        assert main([*args, "--format", "long"]) == 0
        stdout = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        with open(tmp_path / "p_pairs.csv", newline="") as handle:
            pairs = list(csv.reader(handle))
        assert stdout == pairs
        assert {len(row) for row in stdout} == {24}
        assert stdout[1][:2] == ["G,1", 'say "b"']

    @pytest.mark.parametrize("bandwidth", ["inf", "nan"])
    def test_non_finite_bandwidth_is_data_error(self, matrix_file, bandwidth, capsys):
        assert main([
            "pairwise", "--data", str(matrix_file), "--n", "2",
            "--replicates", "8", "--bandwidth", bandwidth,
        ]) == 2
        assert "bandwidth must be finite" in capsys.readouterr().err

    def test_pairwise_stride_by_pattern_length(self, matrix_file, capsys):
        assert main([
            "pairwise", "--data", str(matrix_file), "--n", "2", "--stride", "2",
            "--replicates", "8", "--format", "long",
        ]) == 0
        out = capsys.readouterr().out
        # 5 events, n=2, stride=2 -> windows at events 1 and 3
        row = next(line for line in out.splitlines() if line.startswith("aue,zwickau"))
        assert row.split(",")[5] == "2"

    def test_spatial_report(self, tmp_path, capsys):
        matrix = synthetic_matrix(rows=300, gauges=3, seed=11)
        data = tmp_path / "m.csv"
        save_class_matrix(matrix, data)
        out = tmp_path / "spatial.csv"
        assert main(["spatial", "--data", str(data), "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["pattern", "count", "observed_pct", "baseline_pct", "z", "significant", "note"]
        # counts sum to the number of events; observed percentages to 100
        assert sum(int(row[1]) for row in rows[1:]) == 300
        assert sum(float(row[2]) for row in rows[1:]) == pytest.approx(100.0, abs=1e-6)

    def test_spatial_include_zero_matches_oracles(self, tmp_path, capsys):
        from collections import Counter
        from statistics import NormalDist

        from oracles import oracle_encode, oracle_product_law

        # three classes over four gauges: the 24 four-level patterns have
        # baseline 0, are never observed and are left out
        rng = np.random.default_rng(17)
        classes = rng.integers(0, 3, size=(200, 4))
        data = tmp_path / "m.csv"
        save_class_matrix(ClassMatrix(classes=classes, gauges=("a", "b", "c", "d")), data)
        out = tmp_path / "zero.csv"
        assert main(["spatial", "--data", str(data), "--include-zero", "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]

        counts = Counter(oracle_encode(tuple(row)) for row in classes.tolist())
        law = oracle_product_law([classes[:, j].tolist() for j in range(4)])
        kept = sorted(set(counts) | set(law), key=lambda p: (-counts[p], p))
        assert len(kept) == 75 - 24 and any(counts[p] == 0 for p in kept)
        crit = NormalDist().inv_cdf(1.0 - 0.05 / len(kept) / 2.0)
        assert [row[0] for row in rows] == ["(" + ",".join(map(str, p)) + ")" for p in kept]
        assert [int(row[1]) for row in rows] == [counts[p] for p in kept]
        for row, pattern in zip(rows, kept):
            observed, baseline = counts[pattern] / 200, law[pattern]
            z = np.sqrt(200) * (observed - baseline) / np.sqrt(baseline * (1.0 - baseline))
            assert float(row[2]) == pytest.approx(100.0 * observed, rel=1e-9)
            assert float(row[3]) == pytest.approx(100.0 * baseline, rel=1e-9)
            assert float(row[4]) == pytest.approx(z, rel=1e-6)
            assert row[5:] == ["yes" if abs(z) > crit else "no", ""]

    def test_spatial_strict_escalates_small_sample(self, tmp_path, capsys):
        matrix = synthetic_matrix(rows=12, gauges=3, seed=13)
        data = tmp_path / "small.csv"
        save_class_matrix(matrix, data)
        assert main(["spatial", "--data", str(data)]) == 0
        assert main(["--strict", "spatial", "--data", str(data)]) == 3
        assert "warning" in capsys.readouterr().err

    def test_benchmark_simulated(self, capsys):
        assert main([
            "benchmark", "--length", "120", "--replications", "4",
            "--lengths", "4", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "generalized" in out and "randomized" in out and "first_appearance" in out

    def test_simulate_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--length", "50", "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["simulate", "--length", "50", "--seed", "5", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().splitlines()[0] == "index,count"

    def test_plot_data(self, matrix_file, tmp_path):
        out = tmp_path / "panel.csv"
        assert main([
            "plot-data", "--data", str(matrix_file),
            "--gauges", "aue,zwickau", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,aue,zwickau"
        assert len(lines) == 6
