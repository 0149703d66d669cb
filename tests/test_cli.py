import json
import subprocess
import sys

import pytest

from raagspine import SimplicialGraph, families, graph_to_text
from raagspine.cli import main


def run_cli(args, stdin_text=None, python_flags=()):
    cmd = [sys.executable, *python_flags, "-m", "raagspine.cli", *args]
    return subprocess.run(cmd, input=stdin_text, capture_output=True, text=True)


@pytest.fixture(scope="module")
def t2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "t2.graph"
    path.write_text(graph_to_text(families.rake(2)))
    return str(path)


class TestAnalyze:
    def test_rake2_text(self, t2_file):
        proc = run_cli(["analyze", t2_file])
        assert proc.returncode == 0
        assert "principal rank M(L) = 5" in proc.stdout
        assert "spine dimension M(V) = 6" in proc.stdout
        assert "vcd(U(A_Gamma)) = 5" in proc.stdout

    def test_rake2_json_round_trip(self, t2_file):
        proc = run_cli(["analyze", "--json", t2_file])
        payload = json.loads(proc.stdout)
        assert payload["schema_version"] == 1
        assert payload["principal_rank"]["size"] == 5
        assert payload["spine_dimension"]["size"] == 6
        assert payload["vcd"]["mode"] == "exact"
        assert json.loads(json.dumps(payload)) == payload

    def test_delta_bounds_verdict(self):
        gen = run_cli(["gen", "--family", "delta"])
        proc = run_cli(["analyze", "--json", "-"], stdin_text=gen.stdout)
        payload = json.loads(proc.stdout)
        assert payload["principal_rank"]["size"] == 11
        assert payload["spine_dimension"]["size"] == 14
        assert payload["vcd"]["mode"] == "bounds"
        assert payload["vcd"]["bounds"] == [11, 14]
        assert "M(L)" in payload["vcd"]["note"]

    def test_complete_graph(self):
        gen = run_cli(["gen", "--family", "complete", "--n", "3"])
        proc = run_cli(["analyze", "--json", "-"], stdin_text=gen.stdout)
        payload = json.loads(proc.stdout)
        assert payload["principal_rank"]["size"] == 0
        assert payload["spine_dimension"]["size"] == 0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("vertex a\nbogus line\n")
        proc = run_cli(["analyze", str(bad)])
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_missing_graph_file_exit_code(self, tmp_path):
        proc = run_cli(["analyze", str(tmp_path / "absent.graph")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_graph_file_closed(self, t2_file):
        proc = run_cli(["partitions", t2_file], python_flags=["-W", "error::ResourceWarning"])
        assert proc.returncode == 0
        assert "ResourceWarning" not in proc.stderr

    def test_cap_exceeded_exit_code(self, t2_file):
        proc = run_cli(["analyze", "--with-retraction", "--cap", "10", t2_file])
        assert proc.returncode == 3

    def test_star_cap_of_a_join(self):
        gen = run_cli(["gen", "--family", "delta"])
        proc = run_cli(["analyze", "--with-retraction", "-"], stdin_text=gen.stdout)
        assert proc.returncode == 3
        assert proc.stderr == "error: enumeration exceeded cap of 200000 sets\n"
        assert proc.stdout == ""

    def test_too_many_side_assignments_exit_code(self):
        # edgeless(9) has 9 * (2^16 - 2) side assignments, past the bound
        gen = run_cli(["gen", "--family", "edgeless", "--n", "9"])
        proc = run_cli(["partitions", "-"], stdin_text=gen.stdout)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_with_retraction_report(self, tmp_path):
        gen = run_cli(["gen", "--family", "rake", "--d", "1"])
        proc = run_cli(["analyze", "--with-retraction", "--json", "-"], stdin_text=gen.stdout)
        payload = json.loads(proc.stdout)
        assert payload["retraction"]["final"]["dimension"] == 2
        assert payload["retraction"]["final"]["euler_characteristic"] == 1


class TestPipelines:
    def test_gen_analyze_identity(self, t2_file):
        gen = run_cli(["gen", "--family", "rake", "--d", "2"])
        via_pipe = run_cli(["analyze", "--json", "-"], stdin_text=gen.stdout)
        via_file = run_cli(["analyze", "--json", t2_file])
        assert json.loads(via_pipe.stdout) == json.loads(via_file.stdout)

    def test_gen_families(self):
        for args in (
            ["gen", "--family", "rake", "--d", "3"],
            ["gen", "--family", "delta"],
            ["gen", "--family", "edgeless", "--n", "3"],
            ["gen", "--family", "compatibility-example"],
        ):
            proc = run_cli(args)
            assert proc.returncode == 0
            assert proc.stdout.startswith("vertex ")

    def test_gen_unknown_family(self):
        proc = run_cli(["gen", "--family", "nonsense"])
        assert proc.returncode == 2

    def test_gen_rake_like_with_inner_file(self, tmp_path):
        inner = tmp_path / "inner.graph"
        inner.write_text(graph_to_text(families.complete(2)))
        proc = run_cli(["gen", "--family", "rake-like", "--d", "2", "--inner", str(inner)])
        assert proc.returncode == 0
        assert proc.stdout.count("vertex") == 7

    def test_gen_rake_like_missing_inner(self):
        proc = run_cli(["gen", "--family", "rake-like", "--d", "2"])
        assert proc.returncode == 2


class TestSubcommands:
    def test_package_runs_as_a_module(self):
        args = ["gen", "--family", "rake", "--d", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "raagspine", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout == run_cli(args).stdout == graph_to_text(families.rake(2))

    def test_partitions_base(self, t2_file):
        proc = run_cli(["partitions", "--base", "u", "--json", t2_file])
        payload = json.loads(proc.stdout)
        assert payload["count"] == 2

    def test_max_set_flags(self, t2_file):
        for flags, expected in (
            (["--principal"], 5),
            (["--all"], 6),
            (["--vertices", "u"], 1),
            (["--vertices", "v,a1"], 5),
        ):
            proc = run_cli(["max-set", *flags, "--json", t2_file])
            assert json.loads(proc.stdout)["size"] == expected

    def test_retract_json_pinned(self, t2_file):
        # the whole stdout of `retract --json`: trace, crosscheck verdict
        import hashlib

        proc = run_cli(["retract", "--json", t2_file])
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "4bc04f10b3edf096afdb19389409db5b199e800a5f5a9ac602ba02eec08628fb"
        )

    def test_conditions(self, t2_file):
        proc = run_cli(["conditions", "--json", t2_file])
        payload = json.loads(proc.stdout)
        assert payload["condition1"] and payload["condition2"]
        assert payload["spiky"] and payload["barbed"]
        assert payload["p_k"] == 1

    def test_retract_trace_file(self, t2_file, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli(["retract", "--trace", str(out), t2_file])
        assert proc.returncode == 0
        assert "dimension 6 -> 5" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload["initial"]["dimension"] == 6
        assert payload["final"]["dimension"] == 5
        assert payload["final"]["euler_characteristic"] == 1

    def test_verify_oversize(self, t2_file):
        proc = run_cli(["verify", "--lemma", "oversize", "--json", t2_file])
        assert json.loads(proc.stdout)["status"] == "pass"

    def test_verify_replacement_restricted(self):
        gen = run_cli(["gen", "--family", "delta"])
        proc = run_cli(
            [
                "verify",
                "--lemma",
                "cond2-conclusion",
                "--q-bases",
                "u1,u2",
                "--r-bases",
                "a2",
                "--json",
                "-",
            ],
            stdin_text=gen.stdout,
        )
        assert json.loads(proc.stdout)["status"] == "pass"

    def test_verify_bases_allow_spaces(self, tmp_path):
        # the base lists parse like --vertices: spaces around names are ignored
        path = tmp_path / "delta.graph"
        path.write_text(graph_to_text(families.delta()))
        proc = run_cli(
            [
                "verify",
                "--lemma",
                "cond2-conclusion",
                "--q-bases",
                "u1, u2",
                "--r-bases",
                "a2",
                str(path),
            ]
        )
        assert proc.returncode == 0
        assert proc.stdout == "cond2-conclusion: pass (12976 configurations)\n"

    def test_apply_aut(self, t2_file):
        proc = run_cli(["apply-aut", "--side", "a1,u", "--base", "a1", t2_file])
        assert proc.returncode == 0
        assert "u -> u.a1^-1" in proc.stdout
        assert "b1 -> b1" in proc.stdout

    def test_apply_aut_conjugation(self, t2_file):
        proc = run_cli(
            ["apply-aut", "--side", "a2,u,a1,a1^-1,b1,b1^-1", "--base", "a2", t2_file]
        )
        assert "a1 -> a2.a1.a2^-1" in proc.stdout

    def test_apply_aut_unknown_side(self, t2_file):
        proc = run_cli(["apply-aut", "--side", "u,v", "--base", "u", t2_file])
        assert proc.returncode == 2

    def test_main_callable_in_process(self, t2_file, capsys):
        assert main(["conditions", t2_file]) == 0
        out = capsys.readouterr().out
        assert "spiky: True" in out


class TestRefusals:
    """Inputs a command refuses end with exit code 2 and one error line."""

    def assert_refused(self, proc):
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_verify_oversize_non_barbed(self):
        gen = run_cli(["gen", "--family", "condition1-counterexample"])
        proc = run_cli(["verify", "--lemma", "oversize", "-"], stdin_text=gen.stdout)
        self.assert_refused(proc)
        assert "barbed" in proc.stderr

    def test_retract_non_spiky(self, tmp_path):
        g = SimplicialGraph(
            [f"x{v}" for v in range(6)],
            [(f"x{a}", f"x{b}") for a, b in
             ((0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (3, 4), (3, 5))],
        )
        path = tmp_path / "non-spiky.graph"
        path.write_text(graph_to_text(g))
        proc = run_cli(["retract", str(path)])
        self.assert_refused(proc)
        assert "--warn-and-proceed" in proc.stderr
        assert run_cli(["retract", "--warn-and-proceed", str(path)]).returncode == 0

    def test_max_set_empty_vertex_list(self, t2_file):
        proc = run_cli(["max-set", "--vertices", "", "--json", t2_file])
        self.assert_refused(proc)
        assert proc.stdout == ""

    def test_verify_empty_q_bases(self, t2_file):
        proc = run_cli(["verify", "--lemma", "cond2-conclusion", "--q-bases", "", t2_file])
        self.assert_refused(proc)
        assert proc.stdout == ""

    def test_verify_empty_r_bases(self, t2_file):
        proc = run_cli(["verify", "--lemma", "cond2-conclusion", "--r-bases", "", t2_file])
        self.assert_refused(proc)
        assert proc.stdout == ""

    def test_retract_negative_cap(self, t2_file):
        proc = run_cli(["retract", "--cap", "-1", t2_file])
        self.assert_refused(proc)
        assert "--cap" in proc.stderr and proc.stdout == ""

    def test_analyze_negative_cap(self, t2_file):
        proc = run_cli(["analyze", "--with-retraction", "--cap", "-1", t2_file])
        self.assert_refused(proc)
        assert "--cap" in proc.stderr and proc.stdout == ""

    def test_verify_negative_budget(self, t2_file):
        proc = run_cli(["verify", "--lemma", "oversize", "--budget", "-3", t2_file])
        self.assert_refused(proc)
        assert "--budget" in proc.stderr and proc.stdout == ""

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"edge a b\nvertex caf\xe9\n")
        proc = run_cli(["partitions", str(path)])
        self.assert_refused(proc)
        assert proc.stderr == "error: line 2: graph text is not valid UTF-8\n"
        assert proc.stdout == ""

    def test_non_utf8_stdin(self):
        # run_cli sends text, so the bytes go through subprocess directly
        cmd = [sys.executable, "-m", "raagspine.cli", "partitions", "-"]
        data = b"edge a b\nvertex caf\xe9\n"
        proc = subprocess.run(cmd, input=data, capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == b"error: line 2: graph text is not valid UTF-8\n"
        assert proc.stdout == b""

    def test_line_separator_does_not_end_a_line(self):
        # U+2028 is whitespace inside the one line, not a second line
        cmd = [sys.executable, "-m", "raagspine.cli", "partitions", "--json", "-"]
        proc = subprocess.run(cmd, input="vertex a\u2028vertex b\n".encode(), capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == b"error: line 1: expected: vertex <name>\n"
        assert proc.stdout == b""

    def test_form_feed_keeps_the_line_count(self):
        # lines are counted at newlines, as the UTF-8 refusal counts them
        cmd = [sys.executable, "-m", "raagspine.cli", "partitions", "-"]
        for data, message in (
            (b"vertex a\x0c\nvertex b,c\n", b"invalid vertex name: 'b,c'"),
            (b"vertex a\x0c\nvertex caf\xe9\n", b"graph text is not valid UTF-8"),
        ):
            proc = subprocess.run(cmd, input=data, capture_output=True)
            assert proc.returncode == 2
            assert proc.stderr == b"error: line 2: " + message + b"\n"

    def test_crlf_lines_parse(self):
        proc = run_cli(["partitions", "--json", "-"], stdin_text="edge a b\r\nedge b c\r\n")
        assert proc.returncode == 0
        assert proc.stdout == run_cli(["partitions", "--json", "-"], "edge a b\nedge b c\n").stdout

    def test_zero_cap_and_budget_keep_their_meaning(self, t2_file):
        assert run_cli(["retract", "--cap", "0", t2_file]).returncode == 3
        proc = run_cli(["verify", "--lemma", "oversize", "--budget", "0", t2_file])
        assert proc.returncode == 0
        assert proc.stdout == "oversize: inconclusive (0 configurations)\n"

    @pytest.mark.parametrize(
        "text, args, error",
        [
            (
                "edge a,b c\nedge c d\n",
                ["max-set", "--vertices", "a,b"],
                "line 1: invalid vertex name: 'a,b'",
            ),
            (
                "edge x y\nedge y x^-1\nedge x^-1 z\nedge z w\n",
                ["apply-aut", "--side", "x^-1,y", "--base", "x^-1"],
                "line 2: invalid vertex name: 'x^-1'",
            ),
            (
                "edge x y\nedge y x^-1\nedge x^-1 z\nedge z w\n",
                ["partitions"],
                "line 2: invalid vertex name: 'x^-1'",
            ),
            ("edge a b\nedge b c,d\n", ["partitions"], "line 2: invalid vertex name: 'c,d'"),
            ("vertex a\nvertex e^-1\n", ["partitions"], "line 2: invalid vertex name: 'e^-1'"),
            ("edge a b\nedge b #c\n", ["partitions"], "line 2: invalid vertex name: '#c'"),
        ],
        ids=[
            "comma", "apply-aut-inverse-marker", "partitions-inverse-marker",
            "edge-line", "vertex-line", "comment-marker",
        ],
    )
    def test_names_the_cli_cannot_address(self, text, args, error):
        proc = run_cli([*args, "-"], stdin_text=text)
        self.assert_refused(proc)
        assert proc.stderr == f"error: {error}\n"
        assert proc.stdout == ""

    def test_gen_out_of_range_parameter(self):
        proc = run_cli(["gen", "--family", "path", "--n", "-2"])
        self.assert_refused(proc)
        assert proc.stdout == ""
