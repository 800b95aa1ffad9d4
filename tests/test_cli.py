"""Command line surface: parsing, formatting, exports, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from xml.etree import ElementTree

import mpmath
import pytest

from freenormal import series
from freenormal.cli import format_value, main, parse_complex
from freenormal.curve import solve_H
from freenormal.errors import DomainError
from freenormal.ode import integrate, make_anchor
from freenormal.scaled import ScaledComplex
from freenormal.transforms import f_tilde, g_tilde, rho
from mpmath_oracle import rho_mp

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``freenormal.__all__``: the paper's quantities, their checks and errors
PUBLIC_API = set("""
    CurvePoint DomainError DomainTag FreeNormalError LevelSetTrace
    NoConvergence PoleProximity QuadratureFailure ScaledComplex
    boolean_cumulants classify_domain
    eval_f_asym_zero eval_g_asym_infinity eval_g_asym_zero eval_h_asym_infinity
    eval_h_asym_zero f_infinity_coefficients f_of f_tilde f_tilde_prime
    free_cumulants g_tilde g_tilde_contour_oracle g_tilde_prime
    h_infinity_coefficients in_omega integrate levy_density make_anchor moments
    monotonicity_certificate rho semicircular_component_check solve_H
    tau_total_mass trace_level_set trace_p0 voiculescu
""".split())


def _run_fresh(argv, timeout=120):
    """Run ``python <argv>`` in a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def _run_script(script):
    proc = _run_fresh(["-c", textwrap.dedent(script)])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1.5-0.2i", 1.5 - 0.2j),
            ("0+0i", 0j),
            ("i", 1j),
            ("-i", -1j),
            ("2i", 2j),
            ("+3i", 3j),
            ("3", 3 + 0j),
            ("-2.5", -2.5 + 0j),
            ("1e-3+2.5e2i", 1e-3 + 250j),
            ("-1.2e+1-3i", -12.0 - 3j),
            ("1.5 - 0.2i", 1.5 - 0.2j),
        ],
    )
    def test_literals(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3i", "1+", "--2i"])
    def test_rejects_garbage(self, text):
        with pytest.raises(DomainError):
            parse_complex(text)


class TestFormatValue:
    def test_zero(self):
        assert format_value(ScaledComplex(0j)) == "0 + 0i"

    def test_moderate_values(self):
        assert format_value(f_tilde(0j)) == "0 + 0.797884560802865i"
        assert format_value(g_tilde(0j)) == "0 - 1.2533141373155i"
        got = format_value(g_tilde(1.5 - 0.2j))
        assert got == "0.886008346479907 - 0.369456676959759i"

    def test_huge_scale_uses_decimal_exponent(self):
        assert format_value(rho(-40.0)) == "(6.83400758969235 + 0i) * 10^347"

    @pytest.mark.parametrize("x", [-40.0, -100.0, -1000.0])
    def test_huge_scale_prints_the_digits_of_the_value(self, x):
        # the mantissa is the 15-digit rounding of rho(x) / 10^k from 40-digit
        # mpmath: the reduction by k ln 10 is exact, where a rounded k ln 10
        # cost rho(-1000) its last five digits
        m, k = re.fullmatch(r"\((\S+) \+ 0i\) \* 10\^(\d+)", format_value(rho(x))).groups()
        with mpmath.workdps(40):
            want = rho_mp(x) / mpmath.mpf(10) ** int(k)
        assert float(m) == float(mpmath.nstr(want, 15))

    def test_negative_zero_is_normalized(self):
        v = ScaledComplex(complex(-0.0, 1.0))
        assert format_value(v) == "0 + 1i"


class TestEval:
    def test_spec_point_at_the_origin(self, capsys):
        rc = main(["eval", "--fn", "F", "--z", "0+0i"])
        assert rc == 0
        assert capsys.readouterr().out == "0 + 0.797884560802865i\n"

    def test_stieltjes_point_on_the_real_line(self, capsys):
        rc = main(["eval", "--fn", "G", "--z", "1+0i"])
        assert rc == 0
        re_part, sign, im_part = capsys.readouterr().out.strip().split()
        im = float(sign + im_part.rstrip("i"))
        assert abs(im - (-math.sqrt(math.pi / 2.0) * math.exp(-0.5))) < 1e-10

    def test_density_needs_a_real_argument(self, capsys):
        rc = main(["eval", "--fn", "rho", "--z", "1+2i"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_literal_is_a_usage_error(self, capsys):
        rc = main(["eval", "--fn", "G", "--z", "abc"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["nan", "inf", "1e400", "1-infi"])
    def test_non_finite_point_is_a_domain_error(self, capsys, z):
        rc = main(["eval", "--fn", "F", "--z", z])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("z", ["-1e11", "-43035370467.23214"])
    def test_scale_past_2_to_53_is_a_domain_error(self, capsys, z):
        # past |log_scale| = 2**53 the scale is a whole number of units
        # apart, so no printed mantissa would carry a digit of the value
        assert main(["eval", "--fn", "rho", f"--z={z}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestExitCodes:
    def test_bad_grid_bounds(self, capsys):
        assert main(["curve", "--xmin", "-1"]) == 2
        assert main(["curve", "--n", "1"]) == 2
        capsys.readouterr()

    def test_bad_level_arguments(self, capsys):
        assert main(["levelsets", "--t", "-0.5"]) == 2
        assert main(["levelsets", "--bbox", "1,2,3"]) == 2
        assert main(["levelsets", "--t", "0.1,oops"]) == 2
        capsys.readouterr()

    # each wall lives in the library (trace_p0, trace_level_set, the
    # cumulant tables), except the density grid's: levy_density is even
    def test_rejects_bad_grid_bounds(self, capsys):
        assert main(["curve", "--xmin", "-1", "--xmax", "1", "--n", "10"]) == 2
        assert main(["density", "--xmin", "2", "--xmax", "1", "--n", "10"]) == 2
        assert main(["curve", "--xmin", "0.1", "--xmax", "1", "--n", "1"]) == 2
        assert main(["density", "--xmin", "-1", "--xmax", "1", "--n", "10"]) == 2
        assert main(["density", "--n", "1"]) == 2
        assert capsys.readouterr().err.count("error:") == 5

    def test_rejects_negative_levels_and_steps(self, capsys):
        assert main(["levelsets", "--t", "0.1,-0.5"]) == 2
        assert main(["levelsets", "--t", "0.1", "--step", "0"]) == 2
        assert capsys.readouterr().err.count("error:") == 2

    def test_rejects_tiny_cumulant_order(self, capsys):
        assert main(["cumulants", "--order", "1"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        # the message names the flag as set, not the halved table size
        assert main(["cumulants", "--order", "-5"]) == 2
        assert capsys.readouterr().err == "error: need --order >= 2, got -5\n"

    def test_rejects_huge_cumulant_order(self, capsys):
        # the exact tables grow about 16-fold per doubling of the order
        assert main(["cumulants", "--order", "1001"]) == 2
        assert capsys.readouterr().err == "error: need --order <= 1000, got 1001\n"
        assert main(["cumulants", "--order", "100000"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cumulant_order_wall_is_the_tables_ceiling(self, monkeypatch, capsys):
        monkeypatch.setattr(series, "_EXACT_ORDER_MAX", 4)
        assert main(["cumulants", "--order", "8"]) == 0
        capsys.readouterr()
        assert main(["cumulants", "--order", "9"]) == 2
        assert capsys.readouterr().err == "error: need --order <= 8, got 9\n"

    @pytest.mark.parametrize("args", [
        ["curve", "--n", "3"],
        ["verify", "--profile", "fast"],
    ])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, args):
        target = tmp_path / "missing" / "f.csv"
        assert main([*args, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}")
        assert "Traceback" not in err
        assert not target.parent.exists()

    def test_a_step_too_small_to_move_ends_with_exit_2(self):
        # every step advances the level parameter by about 1e-300; the
        # per-arc step bound ends the trace instead of letting it run on
        proc = _run_fresh(["-m", "freenormal.cli", "levelsets", "--t", "0.7",
                           "--step", "1e-300"], timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: the level Im f_tilde = 0.7 takes more")


class TestCurveExport:
    def test_csv_shape_and_float_format(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["curve", "--xmin", "0.5", "--xmax", "3", "--n", "7",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "x,g,h,residual"
        assert len(lines) == 9 and lines[-1] == ""
        assert "\r" not in text
        cell = lines[1].split(",")[1]
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", cell)

    def test_byte_identical_between_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["curve", "--xmin", "0.5", "--xmax", "3", "--n", "25",
                "--format", "csv", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_carries_points(self, tmp_path):
        out = tmp_path / "curve.json"
        rc = main(["curve", "--xmin", "0.5", "--xmax", "3", "--n", "5",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 5
        assert all(p["residual"] <= 1e-10 for p in doc["points"])

    def test_svg_is_self_contained(self, tmp_path):
        out = tmp_path / "curve.svg"
        rc = main(["curve", "--xmin", "0.5", "--xmax", "3", "--n", "9",
                   "--format", "svg", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<!-- generated by: freenormal curve" in text
        assert "<polyline" in text
        # the only URL is the svg namespace itself: nothing external is pulled
        assert text.count("http") == text.count("http://www.w3.org/2000/svg")
        assert "href" not in text
        assert text.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("args", [
        ["curve", "--xmin", "0.5", "--xmax", "3", "--n", "9"],
        ["density", "--xmin", "0.5", "--xmax", "2", "--n", "5"],
        ["levelsets", "--t", "0,0.7", "--step", "0.2"],
        ["asymptotics", "--regime", "zero"],
        ["asymptotics", "--regime", "infinity"],
    ], ids=["curve", "density", "levelsets", "asymptotics-zero",
            "asymptotics-infinity"])
    def test_svg_is_well_formed_xml(self, tmp_path, args):
        out = tmp_path / "figure.svg"
        assert main(args + ["--format", "svg", "--out", str(out)]) == 0
        root = ElementTree.parse(out).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.find(".//{http://www.w3.org/2000/svg}polyline") is not None
        # the generating command survives in the comment, minus its "--"
        assert f"generated by: freenormal {args[0]} - -" in out.read_text()


class TestDensityExport:
    def test_csv_values_are_positive_and_decreasing(self, tmp_path):
        out = tmp_path / "density.csv"
        rc = main(["density", "--xmin", "0.5", "--xmax", "2", "--n", "6",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert all(v > 0.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLevelsetExport:
    ARGS = ["levelsets", "--t", "0.4", "--bbox=-1.6,1.6,-1.2,1.2",
            "--step", "0.2", "--format", "json", "--out"]

    def test_json_structure(self, tmp_path):
        out = tmp_path / "levels.json"
        assert main(self.ARGS + [str(out)]) == 0
        doc = json.loads(out.read_text())
        (level,) = doc["levels"]
        assert level["t"] == 0.4
        assert level["traces"]
        for tr in level["traces"]:
            assert tr["branch"]
            for re_part, im_part in tr["points"]:
                z = complex(re_part, im_part)
                assert abs(f_tilde(z).to_complex().imag - 0.4) <= 1e-9

    def test_byte_identical_between_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + [str(a)]) == 0
        assert main(self.ARGS + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCumulantTables:
    def test_json_matches_the_exact_tables(self, capsys):
        rc = main(["cumulants", "--order", "8", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["free"] == ["1", "1", "4", "27"]
        assert doc["boolean"] == ["1", "2", "10", "74"]
        assert doc["moments"] == ["1", "1", "3", "15"]

    def test_csv_orders_start_at_two_for_cumulants_and_zero_for_moments(
        self, capsys
    ):
        rc = main(["cumulants", "--order", "6", "--format", "csv"])
        assert rc == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        orders = {name: [] for name in ("free", "boolean", "moments")}
        for name, order, _ in rows:
            orders[name].append(int(order))
        assert orders["free"] == [2, 4, 6]
        assert orders["boolean"] == [2, 4, 6]
        assert orders["moments"] == [0, 2, 4]


class TestAsymptotics:
    def test_zero_regime_h_error_is_small_at_the_smallest_x(self, capsys):
        rc = main(["asymptotics", "--regime", "zero", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        col = header.index("h_rel_err")
        last = lines[-1].split(",")
        assert float(last[0]) == 1e-6
        assert float(last[col]) < 0.1


def _cells(row) -> list:
    """A row's cells as floats where they parse as one, else as text."""
    out = []
    for c in row:
        try:
            out.append(float(str(c)))
        except ValueError:
            out.append(str(c))
    return out


def _dict_rows(rows) -> list:
    return [list(r.values()) for r in rows]


class TestFormatsAgree:
    """The CSV and the JSON of one run carry the same values in the same order."""

    @pytest.mark.parametrize("args,json_rows", [
        (["curve", "--xmin", "0.5", "--xmax", "3", "--n", "5"],
         lambda doc: _dict_rows(doc["points"])),
        (["density", "--xmin", "0.5", "--xmax", "2", "--n", "5"],
         lambda doc: _dict_rows(doc["points"])),
        (["levelsets", "--t", "0,0.7", "--step", "0.2"],
         lambda doc: [[lv["t"], tr["branch"], i, *pt] for lv in doc["levels"]
                      for tr in lv["traces"] for i, pt in enumerate(tr["points"])]),
        (["cumulants", "--order", "8"],
         lambda doc: [[name, 2 * (k + (name != "moments")), c]
                      for name, table in doc.items() for k, c in enumerate(table)]),
        (["asymptotics", "--regime", "zero"], lambda doc: _dict_rows(doc["rows"])),
        (["asymptotics", "--regime", "infinity"], lambda doc: _dict_rows(doc["rows"])),
    ], ids=["curve", "density", "levelsets", "cumulants", "asymptotics-zero",
            "asymptotics-infinity"])
    def test_csv_and_json_carry_the_same_values(self, capsys, args, json_rows):
        assert main(args + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert main(args + ["--format", "json"]) == 0
        rows = json_rows(json.loads(capsys.readouterr().out))
        assert rows
        assert [_cells(r) for r in rows] == [_cells(line.split(",")) for line in lines]


class TestVerifyCommand:
    def test_fast_profile_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--profile", "fast", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["profile"] == "fast"
        assert doc["all_passed"] is True
        assert len(doc["criteria"]) == 12
        assert len(doc["ode_newton_crosscheck"]) == 4
        capsys.readouterr()
        # the cross-check is criterion 5's rows, identical to a fresh
        # transport from the same anchor and fresh Newton solves
        rows = {r["x_target"]: r for r in doc["criteria"][4]["rows"]}
        anchor = make_anchor(2.0)
        for row in doc["ode_newton_crosscheck"]:
            x = row["x_target"]
            assert row == rows[x]
            s, q = integrate(anchor, x), solve_H(x)
            assert (row["ode_g"], row["ode_h"]) == (s.g, s.h)
            assert (row["newton_g"], row["newton_h"]) == (q.g, q.h)


class TestStdout:
    def test_dash_out_writes_to_stdout(self, capsys):
        rc = main(["cumulants", "--order", "4", "--format", "csv", "--out", "-"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("table,order,value\n")


class TestStartup:
    def test_no_command_loads_scipy_or_numpy(self):
        # the package runs on the standard library alone; the quadratures
        # (verify, tau_total_mass, the contour oracle) included
        _run_script("""
            import os
            import sys
            import freenormal
            import freenormal.cli
            assert 0.69 < freenormal.tau_total_mass(1e-8) < 0.70
            for args in (
                ["eval", "--fn", "F", "--z", "1.5-0.2i"],
                ["curve", "--xmin", "0.5", "--xmax", "3", "--n", "5"],
                ["density", "--xmin", "0.5", "--xmax", "2", "--n", "5"],
                ["levelsets", "--t", "0,0.7", "--step", "0.2"],
                ["cumulants", "--order", "4"],
                ["asymptotics", "--regime", "zero"],
                ["asymptotics", "--regime", "infinity"],
                ["verify", "--profile", "fast", "--out", os.devnull],
            ):
                assert freenormal.cli.main(args) == 0, args
            loaded = sorted(m for m in sys.modules
                            if m.split(".")[0] in ("scipy", "numpy"))
            assert not loaded, loaded
        """)

    def test_import_freenormal_loads_no_submodule(self):
        out = _run_script("""
            import sys
            import freenormal
            print(sorted(m for m in sys.modules if m.startswith("freenormal.")))
        """)
        assert out == "[]\n"

    def test_curve_and_levy_calls_load_no_fractions(self):
        # the floating series read the integer recurrences directly
        out = _run_script("""
            import sys
            from freenormal import curve, levy
            for x in (1e-300, 1.0, 20.0, 33.0):
                curve.solve_H(x)
            levy.voiculescu(1 + 1j), levy.voiculescu(40j), curve.f_of(2.0)
            levy.tau_total_mass(1e-8)
            print("fractions" in sys.modules)
        """)
        assert out == "False\n"

    def test_import_cli_loads_only_its_module_scope_layers(self):
        out = _run_script("""
            import sys
            import freenormal.cli
            print(sorted(m for m in sys.modules if m.startswith("freenormal.")))
            print("dataclasses" in sys.modules)
        """)
        assert out.splitlines() == [
            "['freenormal.cli', 'freenormal.errors', 'freenormal.output', "
            "'freenormal.scaled', 'freenormal.transforms']",
            "False",
        ]

    @pytest.mark.parametrize("args", [
        ["eval", "--fn", "G", "--z", "1-0.5i"],
        ["cumulants", "--order", "6"],
    ])
    def test_eval_and_cumulants_load_no_curve_code(self, args):
        out = _run_script(f"""
            import sys
            from freenormal.cli import main
            assert main({args!r}) == 0
            print(sorted(m for m in ("curve", "levy", "ode", "verify")
                         if "freenormal." + m in sys.modules))
        """)
        assert out.splitlines()[-1] == "[]"

    def test_no_command_loads_dataclasses(self):
        out = _run_script("""
            import os
            import sys
            from freenormal.cli import main
            for args in (
                ["eval", "--fn", "F", "--z", "1.5-0.2i"],
                ["curve", "--xmin", "0.5", "--xmax", "3", "--n", "5"],
                ["density", "--xmin", "0.5", "--xmax", "2", "--n", "5"],
                ["levelsets", "--t", "0,0.7", "--step", "0.2"],
                ["cumulants", "--order", "4"],
                ["asymptotics", "--regime", "infinity"],
                ["verify", "--profile", "fast", "--out", os.devnull],
            ):
                assert main(args) == 0, args
            assert "freenormal.ode" in sys.modules
            print("dataclasses" in sys.modules)
        """)
        assert out.splitlines()[-1] == "False"

    def test_star_import_binds_every_export(self):
        out = _run_script("""
            import freenormal
            names = {}
            exec("from freenormal import *", names)
            assert set(freenormal.__all__) <= set(names), freenormal.__all__
            assert set(freenormal.__all__) <= set(dir(freenormal))
            assert freenormal.levy_density is freenormal.levy.levy_density
            print(*freenormal.__all__)
        """)
        assert set(out.split()) == PUBLIC_API
        assert len(out.split()) == len(PUBLIC_API) == 38

    def test_unknown_attribute_raises_attribute_error(self):
        out = _run_script("""
            import freenormal
            try:
                freenormal.no_such_name
            except AttributeError as exc:
                print(exc)
        """)
        assert out == "module 'freenormal' has no attribute 'no_such_name'\n"
