"""Command-line front end: JSON wire format, subcommands, and SVG rendering.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation.
With --json every command prints exactly one JSON document; rendering is
deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Sequence

from . import braid as braid_mod
from . import exceptional as exc_mod
from . import homext, tilting
from .core import (
    Bridging,
    Curve,
    InnerPeripheral,
    LineBundle,
    OuterPeripheral,
    SheafClass,
    Surface,
    TorsionInf,
    TorsionZero,
    Zero,
    normal_form,
    phi,
    phi_inv,
)
from .errors import (
    InternalInvariantViolation,
    WplArcsError,
)

# ---------------------------------------------------------------------------
# Wire format.
# ---------------------------------------------------------------------------


class WireError(ValueError):
    pass


def _require_fields(obj: Dict[str, Any], fields: Sequence[str]) -> None:
    extra = set(obj) - set(fields)
    if extra:
        raise WireError(f"unknown fields {sorted(extra)}")
    missing = set(fields) - set(obj)
    if missing:
        raise WireError(f"missing fields {sorted(missing)}")


def _int(value: Any) -> int:
    # JSON integers only: no floats, numeric strings or booleans.
    if type(value) is not int:
        raise WireError(f"expected an integer, got {value!r}")
    return value


def parse_curve(s: Surface, obj: Dict[str, Any]) -> Curve:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise WireError("curve must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "bridging":
        _require_fields(obj, ("kind", "i", "j"))
        return Bridging(s, _int(obj["i"]), _int(obj["j"]))
    if kind == "inner":
        _require_fields(obj, ("kind", "a", "b"))
        return InnerPeripheral(s, _int(obj["a"]), _int(obj["b"]))
    if kind == "outer":
        _require_fields(obj, ("kind", "a", "b"))
        return OuterPeripheral(s, _int(obj["a"]), _int(obj["b"]))
    raise WireError(f"unknown curve kind {kind!r}")


def print_curve(c: Curve) -> Dict[str, Any]:
    if isinstance(c, Bridging):
        return {"kind": "bridging", "i": c.i, "j": c.j}
    if isinstance(c, InnerPeripheral):
        return {"kind": "inner", "a": c.a, "b": c.b}
    if isinstance(c, OuterPeripheral):
        return {"kind": "outer", "a": c.a, "b": c.b}
    raise WireError(f"cannot serialize {c!r}")


def parse_sheaf(s: Surface, obj: Dict[str, Any]) -> SheafClass:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise WireError("sheaf must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "line":
        _require_fields(obj, ("kind", "x"))
        x = obj["x"]
        if not (isinstance(x, list) and len(x) == 3):
            raise WireError("'x' must be a triple [l1, l2, l]")
        l1, l2, l = (_int(v) for v in x)
        return LineBundle(s, normal_form(l1, l2 + l * s.q, 0, s))
    if kind == "tinf":
        _require_fields(obj, ("kind", "i", "len"))
        return TorsionInf(s, _int(obj["i"]), _int(obj["len"]))
    if kind == "tzero":
        _require_fields(obj, ("kind", "i", "len"))
        return TorsionZero(s, _int(obj["i"]), _int(obj["len"]))
    raise WireError(f"unknown sheaf kind {kind!r}")


def print_sheaf(x: SheafClass) -> Dict[str, Any]:
    if isinstance(x, LineBundle):
        return {"kind": "line", "x": [x.x.l1, x.x.l2, x.x.l]}
    if isinstance(x, TorsionInf):
        return {"kind": "tinf", "i": x.i, "len": x.j}
    if isinstance(x, TorsionZero):
        return {"kind": "tzero", "i": x.i, "len": x.j}
    if isinstance(x, Zero):
        return {"kind": "zero"}
    raise WireError(f"cannot serialize {x!r}")


def parse_collection(s: Surface, obj: Any) -> List[Curve]:
    if not isinstance(obj, list):
        raise WireError("collection must be an array of curves")
    return [parse_curve(s, item) for item in obj]


def parse_word(strands: int, obj: Any) -> braid_mod.BraidWord:
    if not isinstance(obj, list) or not all(
        type(v) is int and v != 0 for v in obj
    ):
        raise WireError("braid word must be an array of nonzero integers")
    return braid_mod.word(strands, *obj)


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise WireError(f"malformed JSON at byte {err.pos}: {err.msg}") from err


# ---------------------------------------------------------------------------
# SVG rendering of the universal-cover strip.
# ---------------------------------------------------------------------------

_SCALE = 240.0
_HEIGHT = 240.0
_MARGIN = 24.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _pt(x: float, y_model: float):
    # Inner boundary (model y = 1) on top of the image.
    return x * _SCALE + _MARGIN, (1.0 - y_model) * _HEIGHT + _MARGIN


def _arc_path(c: Curve, lift: int) -> str:
    s = c.surface
    if isinstance(c, Bridging):
        x0, y0 = (c.j + lift * s.q) / s.q, 0.0
        x1, y1 = (c.i + lift * s.p) / s.p, 1.0
        depth = 0.5
        ax, ay = _pt(x0, y0)
        bx, by = _pt(x1, y1)
        c1 = _pt(x0, depth)
        c2 = _pt(x1, depth)
    elif isinstance(c, InnerPeripheral):
        x0 = (c.a + lift * s.p) / s.p
        x1 = (c.b + lift * s.p) / s.p
        dip = 1.0 - min(0.8, 0.25 * (x1 - x0) + 0.15)
        ax, ay = _pt(x0, 1.0)
        bx, by = _pt(x1, 1.0)
        c1 = _pt(x0 + (x1 - x0) / 4.0, dip)
        c2 = _pt(x1 - (x1 - x0) / 4.0, dip)
    else:
        x0 = (c.a + lift * s.q) / s.q
        x1 = (c.b + lift * s.q) / s.q
        dip = min(0.8, 0.25 * (x1 - x0) + 0.15)
        ax, ay = _pt(x0, 0.0)
        bx, by = _pt(x1, 0.0)
        c1 = _pt(x0 + (x1 - x0) / 4.0, dip)
        c2 = _pt(x1 - (x1 - x0) / 4.0, dip)
    return (
        f'M {_fmt(ax)} {_fmt(ay)} C {_fmt(c1[0])} {_fmt(c1[1])} '
        f'{_fmt(c2[0])} {_fmt(c2[1])} {_fmt(bx)} {_fmt(by)}'
    ), (c2[0], c2[1]), (bx, by)


def _arrowhead(tip, control) -> str:
    dx, dy = tip[0] - control[0], tip[1] - control[1]
    norm = (dx * dx + dy * dy) ** 0.5 or 1.0
    ux, uy = dx / norm, dy / norm
    px, py = -uy, ux
    size = 6.0
    p1 = (tip[0] - size * ux + size * 0.5 * px, tip[1] - size * uy + size * 0.5 * py)
    p2 = (tip[0] - size * ux - size * 0.5 * px, tip[1] - size * uy - size * 0.5 * py)
    return (
        f'M {_fmt(tip[0])} {_fmt(tip[1])} L {_fmt(p1[0])} {_fmt(p1[1])} '
        f'L {_fmt(p2[0])} {_fmt(p2[1])} Z'
    )


def _visible_lifts(c: Curve, x0: int, x1: int) -> List[int]:
    s = c.surface
    xs = [idx / s.period(boundary) for boundary, idx in (c.start, c.end)]
    lo, hi = min(xs), max(xs)
    lifts = []
    k = int(x0 - hi) - 1
    while lo + k <= x1 + 1:
        if hi + k >= x0 and lo + k <= x1:
            lifts.append(k)
        k += 1
    return lifts


def render(arcs: Sequence[Curve], window, out_path: str) -> str:
    """Write a deterministic SVG of the strip with all visible arc lifts."""
    x0, x1 = window
    if x1 <= x0:
        raise WireError("window must satisfy x0 < x1")
    surface = arcs[0].surface if arcs else None
    width = (x1 - x0) * _SCALE + 2 * _MARGIN
    height = _HEIGHT + 2 * _MARGIN
    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    top = _pt(x0, 1.0)[1]
    bot = _pt(x0, 0.0)[1]
    left = _pt(x0, 0.0)[0]
    right = _pt(x1, 0.0)[0]
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(top)}" x2="{_fmt(right)}" '
        f'y2="{_fmt(top)}" stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_fmt(left)}" y1="{_fmt(bot)}" x2="{_fmt(right)}" '
        f'y2="{_fmt(bot)}" stroke="black" stroke-width="1.5"/>'
    )
    if surface is not None:
        for i in range(x0 * surface.p, x1 * surface.p + 1):
            cx, cy = _pt(i / surface.p, 1.0)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="black"/>'
            )
        for j in range(x0 * surface.q, x1 * surface.q + 1):
            cx, cy = _pt(j / surface.q, 0.0)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="black"/>'
            )
    for arc in sorted(arcs, key=lambda a: a.key()):
        if arc.is_degenerate():
            raise WireError("only arcs are rendered")
        for lift in _visible_lifts(arc, x0, x1):
            path, ctrl, tip = _arc_path(arc, lift)
            parts.append(
                f'<path class="arc" d="{path}" fill="none" '
                'stroke="steelblue" stroke-width="1.8"/>'
            )
            parts.append(
                f'<path class="arrow" d="{_arrowhead(tip, ctrl)}" fill="steelblue"/>'
            )
    parts.append("</svg>")
    doc = "\n".join(parts) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return doc


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _emit(args, payload: Dict[str, Any], text: str) -> int:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_phi(args, s: Surface) -> int:
    if args.curve is not None:
        curve = parse_curve(s, _loads(args.curve))
        sheaf = phi(curve)
        return _emit(args, {"sheaf": print_sheaf(sheaf)}, repr(sheaf))
    sheaf = parse_sheaf(s, _loads(args.sheaf))
    curve = phi_inv(sheaf)
    return _emit(args, {"curve": print_curve(curve)}, repr(curve))


def _cmd_hom(args, s: Surface) -> int:
    X = parse_sheaf(s, _loads(getattr(args, "from")))
    Y = parse_sheaf(s, _loads(args.to))
    d = homext.hom_dim(X, Y)
    return _emit(args, {"dim": d}, str(d))


def _cmd_ext(args, s: Surface) -> int:
    X = parse_sheaf(s, _loads(getattr(args, "from")))
    Y = parse_sheaf(s, _loads(args.to))
    d = homext.ext1_dim(X, Y)
    return _emit(args, {"dim": d}, str(d))


def _cmd_classify(args, s: Surface) -> int:
    X = parse_sheaf(s, _loads(getattr(args, "from")))
    Y = parse_sheaf(s, _loads(args.to))
    cls = homext.classify_nonzero(X, Y)
    payload = {"tag": cls.tag, "same_object": cls.same_object}
    return _emit(args, payload, cls.tag)


def _cmd_factor(args, s: Surface) -> int:
    X = parse_sheaf(s, _loads(getattr(args, "from")))
    Y = parse_sheaf(s, _loads(args.to))
    Z = homext.epi_mono_factor(X, Y)
    return _emit(args, {"through": print_sheaf(Z)}, repr(Z))


def _cmd_kernel(args, s: Surface) -> int:
    X = parse_sheaf(s, _loads(getattr(args, "from")))
    Y = parse_sheaf(s, _loads(args.to))
    k1, k2 = homext.kernel_of_epi(X, Y)
    payload = {"parts": [print_sheaf(k1), print_sheaf(k2)]}
    return _emit(args, payload, f"{k1!r} (+) {k2!r}")


def _cmd_cokernel(args, s: Surface) -> int:
    X = parse_sheaf(s, _loads(getattr(args, "from")))
    Y = parse_sheaf(s, _loads(args.to))
    c1, c2 = homext.cokernel_of_mono(X, Y)
    payload = {"parts": [print_sheaf(c1), print_sheaf(c2)]}
    return _emit(args, payload, f"{c1!r} (+) {c2!r}")


def _cmd_mutate(args, s: Surface) -> int:
    alpha = parse_curve(s, _loads(args.first))
    beta = parse_curve(s, _loads(args.second))
    result = braid_mod.mutate_pair(alpha, beta, args.side)
    return _emit(args, {"curve": print_curve(result)}, repr(result))


def _cmd_check(args, s: Surface) -> int:
    arcs = parse_collection(s, _loads(args.collection))
    collection = exc_mod.ArcCollection.of(s, arcs)
    order = exc_mod.order_collection(collection)
    ordered = exc_mod.is_ordered_exceptional_collection(tuple(arcs))
    payload = {
        "exceptional_collection": order is not None,
        "ordered_as_given": ordered,
        "order": [print_curve(c) for c in order] if order else None,
    }
    text = "exceptional collection" if order else "not an exceptional collection"
    return _emit(args, payload, text)


def _cmd_complete(args, s: Surface) -> int:
    arcs = parse_collection(s, _loads(args.collection))
    collection = exc_mod.ArcCollection.of(s, arcs)
    completed = exc_mod.complete_to_maximal(collection)
    payload = {"collection": [print_curve(c) for c in completed]}
    return _emit(args, payload, " ".join(repr(c) for c in completed))


def _cmd_braid(args, s: Surface) -> int:
    arcs = parse_collection(s, _loads(args.collection))
    w = parse_word(len(arcs), _loads(args.word))
    result = braid_mod.apply_braid(arcs, w)
    payload = {"collection": [print_curve(c) for c in result]}
    return _emit(args, payload, " ".join(repr(c) for c in result))


def _cmd_normalize(args, s: Surface) -> int:
    arcs = parse_collection(s, _loads(args.collection))
    w = braid_mod.normalize_to_theta(arcs)
    letters = [i * sg for i, sg in w.letters]
    return _emit(args, {"word": letters}, " ".join(map(str, letters)) or "(empty)")


def _cmd_tilting(args, s: Surface) -> int:
    if args.action == "check":
        arcs = parse_collection(s, _loads(args.collection))
        ok = tilting.is_triangulation(s, arcs)
        return _emit(args, {"triangulation": ok}, "yes" if ok else "no")
    if args.action == "classes":
        reps = tilting.enumerate_anchored_triangulations(s)
        payload = {
            "count": len(reps),
            "classes": [
                [print_curve(c) for c in t.sorted_arcs()] for t in reps
            ],
        }
        lines = [f"{len(reps)} classes"] + [
            " ".join(repr(c) for c in t.sorted_arcs()) for t in reps
        ]
        return _emit(args, payload, "\n".join(lines))
    if args.action == "path":
        arcs = parse_collection(s, _loads(args.collection))
        t = tilting.triangulation(s, arcs)
        path = tilting.tilting_to_path(t)
        return _emit(
            args,
            {"path": [list(pt) for pt in path.points]},
            " ".join(map(str, path.points)),
        )
    raise WireError(f"unknown tilting action {args.action!r}")


def _cmd_paths(args, s: Surface) -> int:
    paths = tilting.enumerate_lattice_paths(s.p, s.q)
    dyck = [p for p in paths if tilting.is_dyck(p)]
    payload = {
        "total": len(paths),
        "dyck": len(dyck),
        "bizley": tilting.bizley_count(s.p, s.q),
    }
    return _emit(
        args, payload, f"total {len(paths)}, dyck {len(dyck)}"
    )


def _cmd_census(args, s: Surface) -> int:
    result = tilting.census(s.p, s.q)
    text = (
        f"bundle_classes {result['bundle_classes']}, "
        f"fundamental {result['fundamental']}, "
        f"sheaf_classes {result['sheaf_classes']}"
    )
    return _emit(args, result, text)


def _cmd_render(args, s: Surface) -> int:
    arcs = parse_collection(s, _loads(args.collection))
    for arc in arcs:
        if not arc.is_arc():
            raise WireError(f"{arc!r} is not an arc")
    render(arcs, (args.window[0], args.window[1]), args.out)
    return _emit(args, {"out": args.out}, f"wrote {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wplarcs",
        description="Arc combinatorics for sheaves on a weighted projective line",
    )
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("phi", help="translate a curve or sheaf across the dictionary")
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--curve")
    group.add_argument("--sheaf")
    cmd.set_defaults(func=_cmd_phi)

    for name, func in (
        ("hom", _cmd_hom),
        ("ext", _cmd_ext),
        ("classify", _cmd_classify),
        ("factor", _cmd_factor),
        ("kernel", _cmd_kernel),
        ("cokernel", _cmd_cokernel),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--from", required=True)
        cmd.add_argument("--to", required=True)
        cmd.set_defaults(func=func)

    cmd = sub.add_parser("mutate")
    cmd.add_argument("--first", required=True)
    cmd.add_argument("--second", required=True)
    cmd.add_argument("--side", choices=("left", "right"), default="left")
    cmd.set_defaults(func=_cmd_mutate)

    for name, func in (("check", _cmd_check), ("complete", _cmd_complete)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--collection", required=True)
        cmd.set_defaults(func=func)

    cmd = sub.add_parser("braid")
    cmd.add_argument("--collection", required=True)
    cmd.add_argument("--word", required=True)
    cmd.set_defaults(func=_cmd_braid)

    cmd = sub.add_parser("normalize")
    cmd.add_argument("--collection", required=True)
    cmd.set_defaults(func=_cmd_normalize)

    cmd = sub.add_parser("tilting")
    cmd.add_argument("action", choices=("check", "classes", "path"))
    cmd.add_argument("--collection")
    cmd.set_defaults(func=_cmd_tilting)

    cmd = sub.add_parser("paths")
    cmd.set_defaults(func=_cmd_paths)

    cmd = sub.add_parser("census")
    cmd.set_defaults(func=_cmd_census)

    cmd = sub.add_parser("render")
    cmd.add_argument("--collection", required=True)
    cmd.add_argument("--window", type=int, nargs=2, required=True)
    cmd.add_argument("--out", required=True)
    cmd.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        surface = Surface(args.p, args.q)
        return args.func(args, surface)
    except InternalInvariantViolation as err:
        sys.stderr.write(f"internal invariant violation: {err}\n")
        return 2
    except (WireError, WplArcsError, ValueError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
