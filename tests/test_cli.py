import json

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

S23 = Surface(2, 3)


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

    def test_invalid_json_reports_offset(self, capsys):
        code, _, err = run(
            capsys, "--p", "2", "--q", "3", "hom",
            "--from", '{"kind":"line",', "--to", '{"kind":"line","x":[0,0,0]}',
        )
        assert code == 1
        assert "byte" in err

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

    def test_degenerate_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.svg"
        code, _, _ = run(
            capsys, "--p", "2", "--q", "3", "render",
            "--collection", json.dumps([{"kind": "inner", "a": 0, "b": 1}]),
            "--window", "0", "1", "--out", str(out),
        )
        assert code == 1
