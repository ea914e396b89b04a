"""Report payloads and their serializations.

Every command's outcome is a plain dict of strings, numbers, bools,
lists, and dicts.  The JSON form is that payload dumped with sorted
keys; the text form is a fixed-order rendering of the same payload, so
both formats always carry identical information and identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .brauer import (
    FINITE_CONSTANTS_TRIVIAL,
    compare_classes,
    divisor_reciprocity,
    ramification_divisor,
)
from .covers import KummerCoverDatum, Reparametrization
from .distinguish import FieldComparisonRow, SpecializationCertificate
from .errors import ParseError
from .hilbert import place_key
from .parser import _int_literal, class_text, parse_constant, parse_ratfunc, ratfunc_text
from .points import FiniteBase, Q_BASE

VERSION = "0.1.0"
TOOL = "brauercalc"


def base_text(base):
    return "q" if not base.is_finite else f"fq:{base.field.order}"


def parse_base(text):
    """q, or fq: and the order in ASCII digits, read as a class's literals."""
    if text == "q":
        return Q_BASE
    digits = text[3:]
    if text.startswith("fq:") and digits.isascii() and digits.isdigit():
        base = FiniteBase(_int_literal(digits, 3))
        base.field  # force validation of the order
        return base
    raise ValueError(f"unknown base {text!r}; use q or fq:<q>")


@dataclass(frozen=True)
class Report:
    command: str
    inputs: dict
    outcome: dict

    def payload(self):
        return {
            "tool": TOOL,
            "version": VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "outcome": self.outcome,
        }

    def to_json(self):
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = [f"{TOOL} {VERSION}: {self.command}"]
        lines.extend(_render("inputs", self.inputs, 0))
        lines.extend(_render("outcome", self.outcome, 0))
        return "\n".join(lines) + "\n"


def _render(key, value, depth):
    pad = "  " * depth
    label = f"{pad}{key}:" if key is not None else f"{pad}-"
    if isinstance(value, dict):
        lines = [label]
        for k in sorted(value):
            lines.extend(_render(k, value[k], depth + 1))
        return lines
    if isinstance(value, (list, tuple)):
        lines = [label]
        for item in value:
            lines.extend(_render(None, item, depth + 1))
        return lines
    if value is None:
        return [f"{label} ~"]
    return [f"{label} {value}"]


# ---------------------------------------------------------------------------
# outcome payloads

def divisor_payload(div):
    rows = []
    for pt, rc in div.entries:
        rows.append(
            {
                "point": str(pt),
                "degree": pt.degree,
                "residue": str(rc.canonical_value()),
                "residue_field": rc.field_label(),
            }
        )
    return rows


def ram_outcome(cls):
    div = ramification_divisor(cls)
    return {
        "divisor": divisor_payload(div),
        "ramification_points": len(div.entries),
        "reciprocity": divisor_reciprocity(div),
    }


def equal_outcome(a, b):
    cmp = compare_classes(a, b)
    out = {"difference_unramified": cmp.point is None, "equal": cmp.equal}
    if cmp.point is not None:
        out["obstruction"] = {
            "point": str(cmp.point),
            "residue": str(cmp.residue.canonical_value()),
        }
    elif a.base.is_finite:
        out["constant_difference"] = {"trivial": True, "reason": FINITE_CONSTANTS_TRIVIAL}
    else:
        # the specialized difference: a's pairs, then (x, 1/y) for each of b's
        pairs = cmp.left_pairs + tuple((x, 1 / y) for x, y in cmp.right_pairs)
        cert = {
            "at": str(cmp.at),
            "pairs": [[str(x), str(y)] for x, y in pairs],
            "trivial": cmp.equal,
        }
        if not cmp.equal:
            diff = set(cmp.left_places) ^ set(cmp.right_places)
            cert["nonsplit_places"] = [str(v) for v in sorted(diff, key=place_key)]
        out["constant_difference"] = cert
    return out


def _certificate_payload(cert):
    if cert is None:
        return None
    if isinstance(cert, FieldComparisonRow):
        return {
            "point": str(cert.point),
            "left_ramified": cert.left_ramified,
            "right_ramified": cert.right_ramified,
            "left_field": cert.left_label,
            "right_field": cert.right_label,
        }
    if isinstance(cert, SpecializationCertificate):
        out = {
            "at": str(cert.at),
            "left_pairs": [[str(x), str(y)] for x, y in cert.left_pairs],
            "right_pairs": [[str(x), str(y)] for x, y in cert.right_pairs],
            "left_trivial": cert.left_trivial,
            "right_trivial": cert.right_trivial,
        }
        if cert.discriminant is not None:
            out["separating_discriminant"] = str(cert.discriminant)
        return out
    raise TypeError(f"unknown certificate {cert!r}")


def distinguish_outcome(verdict):
    return {
        "outcome": verdict.outcome,
        "narrative": list(verdict.narrative),
        "point": None if verdict.point is None else str(verdict.point),
        "certificate": _certificate_payload(verdict.certificate),
    }


def enumerate_outcome(cand):
    return {
        "support": [str(pt) for pt in cand.support],
        "bound": cand.bound,
        "size": cand.size,
        "sequences": [list(seq) for seq in cand.sequences],
        "classes": [class_text(c) for c in cand.classes],
        "note": (
            "bound counts reciprocity-compatible residue twists; whether "
            "distinct twists are genuinely inequivalent is not decided"
        ),
    }


def witness_report_outcome(rep):
    return {
        "mode": rep.mode,
        "ok": rep.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in rep.checks
        ],
        "notes": list(rep.notes),
    }


# ---------------------------------------------------------------------------
# witness datum files

def witness_to_obj(datum):
    obj = {
        "kind": datum.kind,
        "base": base_text(datum.base),
        "m": datum.m,
        "g": ratfunc_text(datum.g),
        "basepoint": str(datum.basepoint_t),
        "fiber_root": str(datum.fiber_root),
    }
    if datum.f is not None:
        obj["f"] = ratfunc_text(datum.f)
    if datum.reparam is not None:
        obj["reparam"] = ratfunc_text(datum.reparam.subst)
    if datum.symbol is not None:
        obj["symbol"] = [ratfunc_text(datum.symbol[0]), ratfunc_text(datum.symbol[1])]
    return obj


def witness_to_json(datum):
    return json.dumps(witness_to_obj(datum), sort_keys=True, indent=2) + "\n"


def witness_from_json(text, base):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.pos, f"witness file is not valid JSON: {exc.msg}")
    if not isinstance(obj, dict):
        raise ParseError(0, "witness file must hold a JSON object")
    for key in ("g", "basepoint", "fiber_root", "f", "reparam"):
        if not isinstance(obj.get(key, ""), str):
            value = obj[key]
            raise ParseError(0, f"witness field {key!r} must be a string, got {value!r}")
    pair = obj.get("symbol", ["", ""])
    if not isinstance(pair, list) or [type(e) for e in pair] != [str, str]:
        raise ParseError(0, f"witness field 'symbol' must be two strings, got {pair!r}")
    try:
        kind = obj["kind"]
        m = obj["m"]
        g = parse_ratfunc(obj["g"], base.field)
        basepoint = parse_constant(obj["basepoint"], base.field, "witness basepoint")
        fiber_root = parse_constant(obj["fiber_root"], base.field, "witness fiber_root")
    except KeyError as exc:
        raise ParseError(0, f"witness file is missing the {exc.args[0]!r} field")
    if type(m) is not int:
        raise ParseError(0, f"witness field 'm' must be an integer, got {m!r}")
    if obj.get("base") not in (None, base_text(base)):
        raise ValueError(
            f"witness base {obj['base']!r} does not match --base {base_text(base)!r}"
        )
    f = None
    if "f" in obj:
        f = parse_ratfunc(obj["f"], base.field)
    reparam = None
    if "reparam" in obj:
        reparam = Reparametrization(parse_ratfunc(obj["reparam"], base.field))
    symbol = None
    if "symbol" in obj:
        symbol = (
            parse_ratfunc(pair[0], base.field),
            parse_ratfunc(pair[1], base.field),
        )
    return KummerCoverDatum(
        kind=kind,
        base=base,
        m=m,
        g=g,
        basepoint_t=basepoint,
        fiber_root=fiber_root,
        f=f,
        reparam=reparam,
        symbol=symbol,
    )
