import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wplarcs.cli import (
    WireError,
    main,
    parse_collection,
    parse_curve,
    parse_sheaf,
    parse_word,
    print_curve,
    print_sheaf,
)
from wplarcs.core import (
    Bridging,
    InnerPeripheral,
    OuterPeripheral,
    Surface,
    TorsionInf,
    TorsionZero,
    line_bundle,
    normal_form,
)
from wplarcs.braid import apply_braid, canonical_theta, se_shift_collection, word
from wplarcs.errors import NotApplicable
from wplarcs.exceptional import is_ordered_exceptional_collection
from wplarcs.homext import cokernel_of_mono, epi_mono_factor, kernel_of_epi

S23 = Surface(2, 3)


def _fresh_cli(*args: str) -> subprocess.CompletedProcess:
    """`wplarcs.cli` in a fresh process with a time limit, so that a missing
    size guard fails the test instead of hanging it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "wplarcs.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )


def _line(l1, l2, l):
    return {"kind": "line", "x": [l1, l2, l]}


def _tube(kind, i, length):
    return {"kind": kind, "i": i, "len": length}


# The library function behind each structure-map command, and its payload.
STRUCTURE_MAPS = {
    "factor": lambda X, Y: {"through": print_sheaf(epi_mono_factor(X, Y))},
    "kernel": lambda X, Y: {"parts": [print_sheaf(k) for k in kernel_of_epi(X, Y)]},
    "cokernel": lambda X, Y: {
        "parts": [print_sheaf(c) for c in cokernel_of_mono(X, Y)]
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWire:
    def test_curve_round_trip(self):
        for curve in (
            Bridging(S23, 1, -4),
            InnerPeripheral(S23, 0, 2),
            OuterPeripheral(S23, 2, 4),
        ):
            assert parse_curve(S23, print_curve(curve)) == curve

    def test_sheaf_round_trip(self):
        for sheaf in (
            line_bundle(S23, normal_form(1, 2, -3, S23)),
            TorsionInf(S23, 1, 4),
            TorsionZero(S23, 2, 1),
        ):
            assert parse_sheaf(S23, print_sheaf(sheaf)) == sheaf

    def test_unknown_fields_rejected(self):
        with pytest.raises(WireError):
            parse_curve(S23, {"kind": "bridging", "i": 0, "j": 0, "x": 1})
        with pytest.raises(WireError):
            parse_sheaf(S23, {"kind": "line", "x": [0, 0, 0], "extra": 1})

    def test_collections_and_words(self):
        arcs = parse_collection(
            S23, [{"kind": "bridging", "i": 0, "j": 0}, {"kind": "inner", "a": 0, "b": 2}]
        )
        assert arcs == [Bridging(S23, 0, 0), InnerPeripheral(S23, 0, 2)]
        w = parse_word(5, [3, -1])
        assert w.letters == ((3, 1), (1, -1))
        with pytest.raises(WireError):
            parse_word(5, [0])


class TestCommands:
    def test_hom_example(self, capsys):
        code, out, _ = run(
            capsys,
            "--p", "2", "--q", "3", "hom",
            "--from", '{"kind":"line","x":[0,0,0]}',
            "--to", '{"kind":"line","x":[0,0,1]}',
        )
        assert code == 0
        assert out.strip() == "2"

    def test_hom_ext_classify_at_degree_1e20(self, capsys):
        low = '{"kind":"line","x":[0,0,0]}'
        high = '{"kind":"line","x":[0,0,100000000000000000000]}'
        base = ["--p", "2", "--q", "3", "--json"]
        code, out, _ = run(capsys, *base, "hom", "--from", low, "--to", high)
        assert code == 0
        assert out.strip() == '{"dim": 100000000000000000001}'
        code, out, _ = run(capsys, *base, "ext", "--from", high, "--to", low)
        assert code == 0
        assert out.strip() == '{"dim": 99999999999999999999}'
        code, out, _ = run(capsys, *base, "classify", "--from", high, "--to", low)
        assert code == 0
        assert json.loads(out)["tag"] == "no-nonzero-map"
        code, out, _ = run(capsys, *base[:4], "classify", "--from", high, "--to", low)
        assert code == 0
        assert out.strip() == "no-nonzero-map"

    @pytest.mark.parametrize("j", [10**18, -(10**18)])
    @pytest.mark.parametrize("p, q", [(2, 3), (4, 5)])
    def test_complete_at_winding_1e18(self, capsys, p, q, j):
        s = Surface(p, q)
        seed = [Bridging(s, 0, j), OuterPeripheral(s, 1, 3)]
        collection = json.dumps([print_curve(c) for c in seed])
        code, out, _ = run(
            capsys, "--p", str(p), "--q", str(q), "--json", "complete",
            "--collection", collection,
        )
        assert code == 0
        completed = parse_collection(s, json.loads(out)["collection"])
        assert len(completed) == p + q
        assert set(seed) <= set(completed)
        assert is_ordered_exceptional_collection(completed)

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "--p", "2", "--q", "3", "--json", "census")
        assert code == 0
        assert json.loads(out) == {
            "bundle_classes": 10,
            "fundamental": 2,
            "sheaf_classes": 60,
        }

    def test_tilting_classes_11(self, capsys):
        code, out, _ = run(capsys, "--p", "1", "--q", "1", "--json", "tilting", "classes")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_phi_both_ways(self, capsys):
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", "phi",
            "--curve", '{"kind":"bridging","i":1,"j":1}',
        )
        assert code == 0
        assert json.loads(out) == {"sheaf": {"kind": "line", "x": [1, 2, -1]}}
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", "phi",
            "--sheaf", '{"kind":"line","x":[1,2,-1]}',
        )
        assert json.loads(out) == {"curve": {"kind": "bridging", "i": 1, "j": 1}}

    def test_mutate(self, capsys):
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", "mutate",
            "--first", '{"kind":"bridging","i":0,"j":0}',
            "--second", '{"kind":"bridging","i":2,"j":0}',
            "--side", "left",
        )
        assert code == 0
        assert json.loads(out) == {"curve": {"kind": "bridging", "i": 0, "j": 3}}

    @pytest.mark.parametrize(
        "command, source, target",
        [
            ("factor", _line(0, 0, 0), _tube("tinf", 0, 3)),
            ("factor", _line(0, 1, 0), _tube("tzero", 2, 2)),
            ("factor", _tube("tinf", 1, 2), _tube("tinf", 1, 3)),
            ("kernel", _line(0, 0, 0), _tube("tinf", 0, 1)),
            ("kernel", _line(1, 2, 0), _tube("tzero", 2, 2)),
            ("kernel", _tube("tzero", 0, 2), _tube("tzero", 0, 1)),
            ("cokernel", _line(0, 0, 0), _line(0, 1, 0)),
            ("cokernel", _line(1, 1, 0), _line(0, 2, 1)),
            ("cokernel", _tube("tinf", 0, 1), _tube("tinf", 1, 2)),
        ],
    )
    def test_structure_maps_match_the_library(self, capsys, command, source, target):
        expected = STRUCTURE_MAPS[command](
            parse_sheaf(S23, source), parse_sheaf(S23, target)
        )
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", command,
            "--from", json.dumps(source), "--to", json.dumps(target),
        )
        assert code == 0
        assert json.loads(out) == expected

    # A line bundle onto a line bundle is no tube factorisation, and a
    # mono in the other direction is no epi; O -> O is no proper mono.
    @pytest.mark.parametrize(
        "command, source, target",
        [
            ("factor", _line(0, 0, 0), _line(0, 1, 0)),
            ("kernel", _line(0, 0, 0), _line(0, 1, 0)),
            ("cokernel", _line(0, 0, 0), _line(0, 0, 0)),
        ],
    )
    def test_structure_maps_refused(self, capsys, command, source, target):
        with pytest.raises(NotApplicable):
            STRUCTURE_MAPS[command](parse_sheaf(S23, source), parse_sheaf(S23, target))
        code, out, err = run(
            capsys, "--p", "2", "--q", "3", "--json", command,
            "--from", json.dumps(source), "--to", json.dumps(target),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_check_and_braid(self, capsys):
        collection = json.dumps(
            [
                {"kind": "bridging", "i": 0, "j": 0},
                {"kind": "bridging", "i": 1, "j": 0},
            ]
        )
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", "check", "--collection", collection
        )
        assert code == 0
        assert json.loads(out)["exceptional_collection"] is True
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", "braid",
            "--collection", collection, "--word", "[1, -1]",
        )
        assert code == 0
        assert json.loads(out)["collection"] == json.loads(collection)

    def test_check_of_the_empty_collection(self, capsys):
        # The empty set is an exceptional collection, with the empty order.
        code, out, _ = run(capsys, "--p", "2", "--q", "3", "--json", "check", "--collection", "[]")
        assert code == 0
        assert json.loads(out) == {
            "exceptional_collection": True,
            "order": [],
            "ordered_as_given": True,
        }
        code, out, _ = run(capsys, "--p", "2", "--q", "3", "check", "--collection", "[]")
        assert (code, out) == (0, "exceptional collection\n")

    # B(2, 3) is B(0, 0) one turn on: the same arc.
    @pytest.mark.parametrize("second", [(0, 0), (2, 3)], ids=str)
    def test_repeated_arc_is_not_a_collection(self, capsys, second):
        collection = json.dumps(
            [
                {"kind": "bridging", "i": 0, "j": 0},
                {"kind": "bridging", "i": second[0], "j": second[1]},
            ]
        )
        base = ["--p", "2", "--q", "3", "--json"]
        code, out, _ = run(capsys, *base, "check", "--collection", collection)
        assert code == 0
        assert json.loads(out) == {
            "exceptional_collection": False,
            "order": None,
            "ordered_as_given": False,
        }
        code, out, err = run(capsys, *base, "complete", "--collection", collection)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "repeats" in err

    def test_repeated_non_arc_is_an_error(self, capsys):
        collection = json.dumps([{"kind": "inner", "a": 0, "b": 3}] * 2)
        code, out, err = run(
            capsys, "--p", "2", "--q", "3", "--json", "check", "--collection", collection
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "not an arc" in err

    def test_normalize_empty_word(self, capsys):
        collection = json.dumps(
            [
                {"kind": "bridging", "i": 0, "j": 0},
                {"kind": "bridging", "i": 1, "j": 0},
                {"kind": "bridging", "i": 2, "j": 2},
                {"kind": "bridging", "i": 2, "j": 1},
                {"kind": "bridging", "i": 2, "j": 0},
            ]
        )
        code, out, _ = run(
            capsys, "--p", "2", "--q", "3", "--json", "normalize",
            "--collection", collection,
        )
        assert code == 0
        assert json.loads(out) == {"word": []}

    def test_normalize_empty_collection(self, capsys):
        code, out, err = run(
            capsys, "--p", "2", "--q", "3", "normalize", "--collection", "[]"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "maximal collection" in err

    def test_normalize_at_a_huge_shift_is_refused(self, capsys):
        # The search finds the twist power 10**18 exactly; the word it
        # stands for is refused before any letter of it is built.
        collection = json.dumps(
            [print_curve(a) for a in se_shift_collection(canonical_theta(S23), 10**18)]
        )
        code, out, err = run(
            capsys, "--p", "2", "--q", "3", "--json", "normalize",
            "--collection", collection,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_paths_size_guard(self, capsys):
        code, out, err = run(capsys, "--p", "100000", "--q", "100000", "--json", "paths")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_complete_size_guard(self):
        proc = _fresh_cli(
            "--p", "1000", "--q", "1000", "--json",
            "complete", "--collection", '[{"kind":"bridging","i":0,"j":0}]',
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("p,q", [(60, 60), (1000, 1000)])
    def test_normalize_size_guard(self, p, q):
        # A scramble, not the fan: the search would have work to do.  The
        # fan is exceptional and letters preserve that, so the input skips
        # `apply_braid`'s r(r - 1)/2 pair check.
        s = Surface(p, q)
        scrambled = apply_braid(
            canonical_theta(s), word(s.rank, 3, -1, 4, -2, 5), validate=False
        )
        collection = json.dumps([print_curve(a) for a in scrambled])
        proc = _fresh_cli(
            "--p", str(p), "--q", str(q), "--json", "normalize", "--collection", collection
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "p,q,total,dyck",
        [(2, 3, 10, 2), (14, 14, 40_116_600, 2_674_440)],
    )
    def test_paths_counted(self, capsys, p, q, total, dyck):
        code, out, _ = run(capsys, "--p", str(p), "--q", str(q), "--json", "paths")
        assert code == 0
        assert json.loads(out) == {"total": total, "dyck": dyck, "bizley": dyck}

    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (10, 10, [184_756, 16_796, 17_067_389_768]),
            (11, 10, None),
        ],
    )
    def test_census_rank_guard(self, capsys, p, q, expected):
        code, out, err = run(capsys, "--p", str(p), "--q", str(q), "--json", "census")
        if expected is None:
            assert code == 1
            assert out == ""
            assert err.startswith("error: ")
        else:
            assert code == 0
            counts = json.loads(out)
            assert [
                counts["bundle_classes"], counts["fundamental"], counts["sheaf_classes"]
            ] == expected

    def test_invalid_json_reports_offset(self, capsys):
        code, _, err = run(
            capsys, "--p", "2", "--q", "3", "hom",
            "--from", '{"kind":"line",', "--to", '{"kind":"line","x":[0,0,0]}',
        )
        assert code == 1
        assert "byte" in err

    @pytest.mark.parametrize("option", ["--collection", "--from"])
    def test_deeply_nested_json_is_an_error(self, capsys, option):
        deep = "[" * 100_000 + "]" * 100_000
        if option == "--collection":
            argv = ["complete", "--collection", deep]
        else:
            line = '{"kind":"line","x":[0,0,0]}'
            argv = ["hom", "--from", f'{{"kind":"line","x":{deep}}}', "--to", line]
        code, out, err = run(capsys, "--p", "2", "--q", "3", "--json", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "nests too deeply" in err

    def test_invalid_input_exit_code(self, capsys):
        code, _, err = run(
            capsys, "--p", "2", "--q", "3", "phi",
            "--curve", '{"kind":"banana"}',
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["phi", "--curve", '{"kind":"bridging","i":1.7,"j":"2"}'],
            ["phi", "--sheaf", '{"kind":"line","x":[0.5,0,0]}'],
            ["phi", "--sheaf", '{"kind":"tinf","i":true,"len":1}'],
            ["braid", "--collection", '[{"kind":"bridging","i":0,"j":0}, '
             '{"kind":"bridging","i":1,"j":0}]', "--word", "[true]"],
        ],
        ids=["float-and-string-index", "float-twist", "bool-index", "bool-letter"],
    )
    def test_non_integer_wire_values_rejected(self, capsys, argv):
        code, out, err = run(capsys, "--p", "2", "--q", "3", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("action", ["check", "path"])
    def test_tilting_without_collection(self, capsys, action):
        code, out, err = run(capsys, "--p", "2", "--q", "3", "tilting", action)
        assert code == 1
        assert out == ""
        assert err == f"error: tilting {action} needs --collection\n"

    def test_determinism(self, capsys):
        args = ["--p", "2", "--q", "3", "--json", "census"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestRender:
    def _theta_json(self):
        return json.dumps(
            [
                {"kind": "bridging", "i": 0, "j": 0},
                {"kind": "bridging", "i": 1, "j": 0},
                {"kind": "bridging", "i": 2, "j": 2},
                {"kind": "bridging", "i": 2, "j": 1},
                {"kind": "bridging", "i": 2, "j": 0},
            ]
        )

    def test_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "--p", "2", "--q", "3", "render",
                "--collection", self._theta_json(),
                "--window", "0", "2", "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_arc_element_count(self, tmp_path, capsys):
        out = tmp_path / "t.svg"
        run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", self._theta_json(),
            "--window", "0", "2", "--out", str(out),
        )
        doc = out.read_text()
        arcs = doc.count('class="arc"')
        # Every arc shows at least two lifts over a two-turn window.
        assert arcs >= 2 * 5
        assert doc.count("<svg") == 1

    def test_empty_collection(self, tmp_path, capsys):
        out = tmp_path / "e.svg"
        code, _, _ = run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", "[]", "--window", "0", "1", "--out", str(out),
        )
        assert code == 0
        doc = out.read_text()
        assert 'class="arc"' not in doc
        assert "<line" in doc

    @pytest.mark.parametrize(
        "collection,window,digest",
        [
            (None, ("0", "2"), "93557a181dd83d70b45151bff4c1990b68a71fbde63a74ef506a5a46837a0225"),
            ("[]", ("0", "1"), "efd9f7849762c75b8a388da0692ea965d3953f6c3074cf107ac470ea4148a346"),
        ],
        ids=["theta", "empty"],
    )
    def test_bytes_unchanged(self, tmp_path, capsys, collection, window, digest):
        # Digests of the SVGs the float lift scan wrote before the lift range
        # was computed with integers.
        out = tmp_path / "u.svg"
        code, _, _ = run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", collection or self._theta_json(),
            "--window", *window, "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "collection,window",
        [
            (json.dumps([{"kind": "bridging", "i": 0, "j": 10**18}]), ("0", "2")),
            (None, ("0", "100000000")),
        ],
        ids=["lift-at-1e18", "window-1e8"],
    )
    def test_size_guard(self, tmp_path, capsys, collection, window):
        out = tmp_path / "g.svg"
        code, stdout, err = run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", collection or self._theta_json(),
            "--window", *window, "--out", str(out),
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing/dir/x.svg", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, target):
        code, stdout, err = run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", self._theta_json(),
            "--window", "0", "1", "--out", str(tmp_path / target),
        )
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_degenerate_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.svg"
        code, _, _ = run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", json.dumps([{"kind": "inner", "a": 0, "b": 1}]),
            "--window", "0", "1", "--out", str(out),
        )
        assert code == 1
