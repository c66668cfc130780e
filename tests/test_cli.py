import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma3lab import optimize, schwarz
from gamma3lab.cli import build_parser, main
from gamma3lab.config import DEFAULT_ITERATIONS, DEFAULT_SEED

from conftest import published_f3_top


GOLDEN = Path(__file__).parent / "golden"
#: golden file -> the ``gamma`` arguments whose stdout it holds
GAMMA_GOLDEN = {
    **{
        f"gamma_{family}.{suffix}": (family, "--c1", "0.1", "--c2", "0.2", "--c3", "0.3", "--format", fmt)
        for family in ("f1", "f2", "f3")
        for fmt, suffix in (("text", "txt"), ("json", "json"))
    },
    "gamma_f1_complex.json": ("f1", "--c1=0.2+0.1j", "--c2=-0.3j", "--c3", "0.1", "--format", "json"),
}


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_json_fields_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "f1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "F1"
        assert doc["gamma3_bound"] == 0.328125
        assert '"gamma3_bound": 0.328125' in out
        assert len(doc["interior_points"]) == 1
        assert {e["edge"] for e in doc["edge_maxima"]} == {"bottom", "left", "top"}
        assert doc["grid_max"] <= doc["global_max"]

    def test_json_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "bound", "f2", "--format", "json")
        _, second, _ = run_cli(capsys, "bound", "f2", "--format", "json")
        assert first == second

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "f3")
        assert code == 0
        assert "gamma3 bound 0.369791666667" in out
        assert "note:" in out

    @pytest.mark.parametrize("family", ["f1", "f2", "f3"])
    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_report_bytes_are_pinned(self, capsys, family, fmt, suffix):
        # a rearranged arithmetic may not move a printed digit
        code, out, err = run_cli(capsys, "bound", family, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"bound_{family}.{suffix}").read_text(encoding="utf-8")

    def test_csv_grid_dump(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "f1", "--format", "csv", "--grid-step", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,value"
        assert all(len(line.split(",")) == 3 for line in lines[1:])
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "15"


class TestGamma:
    def test_zero_triple_third_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "gamma", "f3", "--c1", "0", "--c2", "0", "--c3", "0",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["closed_form"]["re"] - (-5 / 48)) <= 1e-12
        assert abs(doc["series_oracle"]["re"] - (-5 / 48)) <= 1e-12
        assert doc["delta"] <= 1e-12
        assert doc["status"] == "pass"

    def test_complex_coefficients_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "gamma", "f1", "--c1=0.2+0.1j", "--c2=-0.3j", "--c3", "0.1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["delta"] <= 1e-12


    @pytest.mark.parametrize("golden", sorted(GAMMA_GOLDEN))
    def test_report_bytes_are_pinned(self, capsys, golden):
        # delta prints the gap between the routes to 12 digits, so a rounding
        # change in the series route shows here
        code, out, err = run_cli(capsys, "gamma", *GAMMA_GOLDEN[golden])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


class TestVerifyCarlson:
    def test_small_fuzz_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-carlson", "--samples", "3000", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert all(s >= -1e-9 for s in doc["worst_slacks"])

    def test_reports_only_the_degrees_it_draws(self, capsys):
        for samples, degrees in (("2", [1, 2]), ("6", [1, 2, 3, 4, 5, 6])):
            code, out, _ = run_cli(
                capsys, "verify-carlson", "--samples", samples, "--format", "json"
            )
            assert code == 0
            assert json.loads(out)["degrees"] == degrees

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify-carlson", "--samples", "500")
        assert code == 0
        assert out.startswith("pass")

    def test_byte_identical(self, capsys):
        args = ("verify-carlson", "--samples", "2000", "--seed", "3", "--real-only")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_seeds_congruent_mod_two_to_the_63_find_different_slacks(self, capsys, monkeypatch):
        # 5 - 2**63 would share every stream with 5 if seeds were reduced mod 2**63; the
        # worst slacks printed are rounding noise that two seeds can share, so the
        # slacks of every product are compared
        found, check = [], schwarz.carlson_check
        monkeypatch.setattr(schwarz, "carlson_check", lambda c: found.append(check(c)) or found[-1])
        slacks = []
        for seed in ("5", str(5 - 2**63)):
            found.clear()
            assert run_cli(capsys, "verify-carlson", "--samples", "3000", "--seed", seed)[0] == 0
            slacks.append(np.concatenate([np.concatenate(s) for s in found]))
        assert len(slacks[0]) == 3 * 3000 and not np.array_equal(slacks[0], slacks[1])

    def test_output_bytes_are_pinned(self, capsys):
        code, out, err = run_cli(capsys, "verify-carlson", "--samples", "1000", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "verify_carlson_1000.json").read_text(encoding="utf-8")


class TestSearch:
    def test_small_search_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "f2", "--iterations", "300", "--seed", "1",
            "--real-only", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "F2"
        assert doc["best_value"] <= doc["upper_bound"] + 1e-9
        assert doc["remark_value"] is not None
        assert abs(doc["gap"] - (doc["upper_bound"] - doc["best_value"])) <= 1e-9

    def test_complex_search_has_no_remark(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "f1", "--iterations", "100", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["remark_value"] is None

    def test_byte_identical(self, capsys):
        args = ("search", "f3", "--iterations", "2000", "--seed", "4", "--format", "json")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_seeds_congruent_mod_two_to_the_63_print_different_bytes(self, capsys):
        args = ("search", "f1", "--iterations", "2000", "--format", "json", "--seed")
        assert run_cli(capsys, *args, "1") != run_cli(capsys, *args, str(2**63 + 1))

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_output_bytes_are_pinned(self, capsys, fmt, suffix):
        code, out, err = run_cli(capsys, "search", "f1", "--iterations", "2000", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"search_f1_2000.{suffix}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("real_only", [(), ("--real-only",)], ids=["complex", "real-only"])
    def test_text_witness_carries_the_json_digits(self, capsys, real_only):
        # every part of the witness prints to 12 significant digits, rotation included
        args = ("search", "f3", "--iterations", "300", "--seed", "5", *real_only)
        witness = json.loads(run_cli(capsys, *args, "--format", "json")[1])["witness"]
        lines = run_cli(capsys, *args)[1].splitlines()
        zeros = lines[-2].split("zeros [", 1)[1].rstrip("]").split(", ")
        rotation = lines[-1].split("witness rotation ", 1)[1]
        expected = [complex(z["re"], z["im"]) for z in witness["zeros"] + [witness["rotation"]]]
        assert [complex(t.replace("i", "j")) for t in zeros + [rotation]] == expected


class TestMilin:
    def test_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "milin", "--function", "identity", "--n", "3", "--format", "json"
        )
        assert code == 0
        # JSON carries 12 significant digits, so compare at that precision
        assert abs(json.loads(out)["value"] - (-13 / 3)) <= 1e-11

    def test_koebe(self, capsys):
        code, out, _ = run_cli(capsys, "milin", "--function", "koebe", "--n", "5")
        assert code == 0
        assert float(out.rsplit(":", 1)[1]) == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.parametrize("function, n", [("koebe", "5"), ("identity", "7")])
    def test_output_bytes_are_pinned(self, capsys, function, n):
        code, out, err = run_cli(capsys, "milin", "--function", function, "--n", n)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"milin_{function}_{n}.txt").read_text(encoding="utf-8")


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gamma3lab", "milin", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "milin functional" in proc.stdout

    def test_bound_never_imports_numpy_polynomial(self):
        # the edge maxima are evaluated in plain floats; numpy.polynomial
        # is imported lazily, at a cost of milliseconds
        code = (
            "import sys; from gamma3lab.cli import main; "
            "main(['bound', 'f3']); print('numpy.polynomial' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "bound_f3.txt").read_text(encoding="utf-8") + "False\n"


class TestScripts:
    def test_run_search_rejects_a_zero_budget_as_a_usage_error(self):
        script = Path(__file__).parent.parent / "scripts" / "run_search.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--iterations", "0"], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "error: argument --iterations: must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_bounds_rejects_an_unknown_option_as_a_usage_error(self):
        script = Path(__file__).parent.parent / "scripts" / "run_bounds.py"
        proc = subprocess.run([sys.executable, str(script), "--x"], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "error: unrecognized arguments: --x" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSharedParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "f9"),
            ("search", "f1", "--max-degree", "4"),
            ("bound", "f1", "--grid-step", "nan"),
            (),
        ],
    )
    def test_a_usage_error_leaves_it_as_it_was(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 1
        code, out, err = run_cli(capsys, "bound", "f1", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "bound_f1.json").read_text(encoding="utf-8")


class TestParserDeclarations:
    @pytest.mark.parametrize(
        "argv, defaults",
        [
            (["search", "f1"], {"iterations": DEFAULT_ITERATIONS, "seed": DEFAULT_SEED}),
            (["verify-carlson"], {"samples": 100_000, "seed": DEFAULT_SEED, "real_only": False}),
            (["bound", "f1"], {"grid_step": 0.05, "format": "text"}),
            (["milin"], {"function": "koebe", "n": 3}),
            (["gamma", "f1"], {"c1": 0j, "c2": 0j, "c3": 0j}),
        ],
    )
    def test_defaults_are_the_documented_ones(self, argv, defaults):
        args = vars(build_parser().parse_args(argv))
        assert {k: args[k] for k in defaults} == defaults

    @pytest.mark.parametrize("command", ["bound", "gamma", "verify-carlson", "search", "milin"])
    def test_only_bound_offers_csv(self, capsys, command):
        assert main([command, "--help"]) == 0
        assert ("csv" in capsys.readouterr().out) == (command == "bound")
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "f1", "--iterations", "0"),
            ("verify-carlson", "--samples", "0"),
            ("milin", "--n", "0"),
            ("milin", "--n", "8"),
        ],
    )
    def test_out_of_range_values_name_their_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert f"argument {argv[-2]}:" in err

    def test_unreadable_integer_keeps_its_wording(self, capsys):
        code, out, err = run_cli(capsys, "search", "f1", "--iterations", "x")
        assert (code, out) == (1, "")
        assert "argument --iterations: invalid int value: 'x'" in err


class TestUsageErrors:
    def test_unknown_family_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "bound", "f9")
        assert code == 1
        assert "usage" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_csv_restricted_to_bound(self, capsys):
        code, _, err = run_cli(capsys, "milin", "--format", "csv")
        assert code == 1
        assert "csv" in err

    def test_missing_command_exits_one(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_max_degree_is_not_an_option(self, capsys):
        code, out, err = run_cli(capsys, "search", "f1", "--max-degree", "4")
        assert code == 1
        assert out == ""
        assert "--max-degree" in err

    @pytest.mark.parametrize(
        "option, value", [("--c1", "nan"), ("--c2", "inf"), ("--c3", "1+nanj")]
    )
    def test_non_finite_coefficient_exits_one(self, capsys, option, value):
        code, out, err = run_cli(capsys, "gamma", "f1", option, value, "--format", "json")
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "c1, c2, c3",
        [
            *(pytest.param(c1, c2, "0", id=f"{c1}-{c2}")
              for c1, c2 in [("1e6", "0"), ("0.9", "0.5"), ("1e308", "0"), ("1e308+1e308j", "0"),
                             ("0", "-1.01j"), ("1.0000001", "0")]),
            # inside Carlson's region, outside the body: eta = 17/16; |b| = 1 or
            # |a| = 1 with c3 other than the forced -conj(a) b^2 (1 - |a|^2)
            ("0.25", "0.3125", "0.859375"), ("0.5", "0.75", "0"), ("1", "0", "1e-9"),
        ],
    )
    def test_coefficients_outside_the_body_exit_one(self, capsys, c1, c2, c3):
        # not a Schwarz triple, so there is nothing to verify
        code, out, err = run_cli(capsys, "gamma", "f1", f"--c1={c1}", f"--c2={c2}", f"--c3={c3}")
        assert code == 1
        assert out == ""
        assert "Schwarz triple" in err

    @pytest.mark.parametrize(
        "c1, c2, c3",
        [
            ("1", "0", "0"), ("0", "1j", "0"), ("0.5", "0.75", "-0.375"), ("0", "0", "-1"),
            # |b| = 1, where rounding in c3 made eta infinite
            ("-0.499", "0.750999", "0.374748501"),
            # |c1| above 1 by less than the slack, real or complex
            ("1.00000000000001", "0", "0"), ("0.70710678118655+0.70710678118655j", "0", "0"),
        ],
    )
    def test_boundary_of_the_body_passes(self, capsys, c1, c2, c3):
        code, out, err = run_cli(capsys, "gamma", "f1", f"--c1={c1}", f"--c2={c2}", f"--c3={c3}")
        assert (code, err) == (0, "")
        assert out.endswith("pass\n")

    @pytest.mark.parametrize("step", ["1e-9", "0.0009", "0", "0.2", "nan"])
    def test_grid_step_out_of_range_exits_one(self, capsys, step):
        code, out, err = run_cli(capsys, "bound", "f1", "--format", "csv", "--grid-step", step)
        assert code == 1
        assert out == ""
        assert "--grid-step" in err


class TestExitStatus:
    def test_a_programming_error_propagates(self, monkeypatch):
        def broken(family):
            raise ValueError("a bug, not a failed verification")

        monkeypatch.setattr(optimize, "global_bound", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["bound", "f1"])

    def test_a_failed_certification_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "interior_critical_points", lambda family: [])
        code, out, err = run_cli(capsys, "bound", "f1")
        assert code == 2
        assert out == ""
        assert "verification failed" in err

    def test_the_published_top_edge_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "_edge_polynomial", published_f3_top)
        code, out, err = run_cli(capsys, "bound", "f3")
        assert code == 2
        assert out == ""
        assert "top edge" in err


def _command(head, options):
    """argv of one command: its head, then any subset of its options in any
    order.  ``options`` maps each flag to a strategy of values, or to None
    for a switch."""

    def tokens(flag):
        values = options[flag]
        return st.just([flag]) if values is None else values.map(lambda v: [f"{flag}={v}"])

    chosen = st.lists(st.sampled_from(sorted(options)), unique=True).flatmap(
        lambda flags: st.tuples(*map(tokens, flags))
    )
    return st.builds(lambda h, c: h + sum(c, []), head, chosen)


def _with_family(command):
    return st.sampled_from(["f1", "f2", "f3", "f4"]).map(lambda f: [command, f])


_FORMAT = st.sampled_from(["text", "json", "csv"])
_COEFFICIENT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1+nanj", "1e6", "1e308+1e308j", "1.0000001", "-1j"]),
    st.complex_numbers(max_magnitude=1.2).map(str),
)
_GRID_STEP = st.one_of(
    st.sampled_from(["1e-300", "1e-9", "0", "-0.1", "nan", "inf", "0.2"]),
    st.floats(0.01, 0.1).map(repr),
)
# valid sizes are capped: memory grows linearly with samples and iterations
_SIZE = st.one_of(st.integers(-3, 0), st.integers(1, 2000))
_SEED = st.integers(-(10**9), 10**9)

_ARGV = st.one_of(
    _command(_with_family("bound"), {"--format": _FORMAT, "--grid-step": _GRID_STEP}),
    _command(_with_family("gamma"),
             {"--format": _FORMAT, "--c1": _COEFFICIENT, "--c2": _COEFFICIENT, "--c3": _COEFFICIENT}),
    _command(st.just(["verify-carlson"]),
             {"--format": _FORMAT, "--samples": _SIZE, "--seed": _SEED, "--real-only": None}),
    _command(_with_family("search"),
             {"--format": _FORMAT, "--iterations": _SIZE, "--seed": _SEED, "--real-only": None}),
    _command(st.just(["milin"]),
             {"--format": _FORMAT, "--n": st.integers(-3, 10),
              "--function": st.sampled_from(["koebe", "identity", "z"])}),
)


class TestFuzz:
    @given(_ARGV)
    @settings(max_examples=150, deadline=None)
    def test_any_command_line_exits_zero_or_one(self, argv):
        # exit 2 would report a failed verification, and none can fail here
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1), argv
