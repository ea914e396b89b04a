"""Per-layer counts and self times, measured from outside the library.

The tracer replaces each traced function with a wrapper in every
library module (and class) that binds it, because the modules import
each other's names with `from .x import y`.  A wrapper records one
span: its call count, and its self time, which is the span's duration
minus the time of the traced spans it encloses, and its total time,
summed over outermost calls only so that recursion is not counted
twice.  Counts that depend on
where a call happens (factorizations under nf_is_square, specializations
under distinguish) are read off the set of open spans.

The per-element FFElem operators are deliberately not traced: they run
millions of times per run and would swamp the overhead budget.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


def _field_kind(field, qq):
    if field is qq:
        return "qq"
    return "fq" if field.finite else "nf"


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.enabled = False
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.open = Counter()  # open spans by name
        self._children = []  # enclosed traced time of each open span
        self._cache0 = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, tag=None, hook=None):
        tr = self
        before, after = hook or (None, None)

        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            key = name if tag is None else f"{name}.{tag(*args)}"
            tr.calls[key] += 1
            token = before(tr) if before else None
            tr.open[name] += 1
            tr._children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                enclosed = tr._children.pop()
                tr.open[name] -= 1
                if tr._children:
                    tr._children[-1] += dur
                tr.self_s[name] += dur - enclosed
                if not tr.open[name]:
                    tr.total_s[name] += dur
            if after:
                after(tr, token, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self, owner, attr, name, tag=None, hook=None):
        fn = getattr(owner, attr)
        wrapper = self._wrap(name, fn, tag, hook)
        holders = list(self.lib.modules) + [owner]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapper)

    def install(self):
        lib = self.lib
        qq = lib.poly.QQ
        Poly = lib.poly.Poly
        spans = [
            (lib.residues, "is_pth_power", "residues.is_pth_power",
             lambda field, *_: _field_kind(field, qq), None),
            (lib.residues, "nf_is_square", "residues.nf_is_square", None,
             _NF_IS_SQUARE_HOOK),
            (lib.factoring, "factor_over_Q", "factoring.factor_over_Q", None,
             (None, _after_factor_over_Q)),
            (lib.factoring, "factor_over_Fq", "factoring.factor_over_Fq", None, None),
            (lib.factoring, "factor_int", "factoring.factor_int", None, None),
            (lib.factoring, "squarefree_kernel", "factoring.squarefree_kernel", None, None),
            (Poly, "__divmod__", "poly.divmod",
             lambda f, *_: "qq" if f.field is qq else "fq", None),
            (Poly, "__mul__", "poly.mul", None, None),
            (lib.poly, "poly_gcd", "poly.poly_gcd", None, None),
            (lib.poly, "resultant", "poly.resultant", None, None),
            (lib.points, "valuation_at", "points.valuation_at", None, None),
            (lib.points, "reduce_at", "points.reduce_at", None, None),
            (lib.fields, "discrete_log", "fields.discrete_log", None, None),
            (lib.fields, "rational_is_square", "fields.rational_is_square", None, None),
            (lib.brauer, "ramification_points", "brauer.ramification_points", None, None),
            (lib.brauer, "residue_at", "brauer.residue_at", None, None),
            (lib.brauer, "ramification_divisor", "brauer.ramification_divisor", None, None),
            (lib.brauer, "classes_equal", "brauer.classes_equal", None, None),
            (lib.brauer, "specialize", "brauer.specialize", None, (None, _after_specialize)),
            (lib.hilbert, "local_invariants", "hilbert.local_invariants", None, None),
            (lib.hilbert, "hilbert_symbol", "hilbert.hilbert_symbol", None, None),
            (lib.distinguish, "distinguish", "distinguish.distinguish", None,
             (None, _after_distinguish)),
            (lib.distinguish, "enumerate_candidates", "distinguish.enumerate_candidates",
             None, (None, _after_enumerate)),
            (lib.covers, "splitting_witness", "covers.splitting_witness", None, None),
            (lib.covers, "verify_splitting_witness", "covers.verify_splitting_witness",
             None, None),
            (lib.covers, "unramified_cover_certificates",
             "covers.unramified_cover_certificates", None, None),
            (lib.parser, "parse_class", "parser.parse_class", None, None),
            (lib.report.Report, "to_text", "report.render", None, None),
            (lib.report.Report, "to_json", "report.render", None, None),
            (lib.cli, "main", "cli.main", None, None),
            (lib.cli, "build_parser", "cli.build_parser", None, None),
        ]
        for fn_name in ("ram_outcome", "equal_outcome", "distinguish_outcome",
                        "enumerate_outcome", "witness_report_outcome"):
            spans.append((lib.report, fn_name, "report.outcome", None, None))
        for owner, attr, name, tag, hook in spans:
            self._install(owner, attr, name, tag, hook)
        self._cache0 = lib.factoring._factor_q_monic.cache_info()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, keyed as in PER_LAYER."""
        lib = self.lib
        out = {}
        for name, unit in PER_LAYER:
            if name.endswith(".calls"):
                out[name] = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_ms"):
                out[name] = self.self_s[name[: -len(".self_ms")]] * 1e3
            elif name.endswith(".total_ms"):
                out[name] = self.total_s[name[: -len(".total_ms")]] * 1e3
        c = self.counts
        nf_calls = self.calls["residues.nf_is_square"]
        out["residues.nf_is_square.norm_reject_ratio"] = _ratio(c["nf_norm_reject"], nf_calls)
        out["residues.norm_poly.factorizations"] = c["nf_factorizations"]
        info = lib.factoring._factor_q_monic.cache_info()
        hits = info.hits - self._cache0.hits
        misses = info.misses - self._cache0.misses
        out["factoring.factor_q_cache.hit_ratio"] = _ratio(hits, hits + misses)
        out["points.kappa_cache.size"] = lib.points._kappa_cached.cache_info().currsize
        out["fields.GF.cache_size"] = lib.fields.GF.cache_info().currsize
        for outcome in OUTCOMES:
            out[f"distinguish.outcome.{outcome}.count"] = c[f"outcome.{outcome}"]
        out["distinguish.sweep_points"] = c["sweep_points"]
        out["distinguish.candidates.kept_ratio"] = _ratio(
            c["candidates_kept"], c["candidates_bound"]
        )
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# A False answer from nf_is_square with no norm-polynomial factorization
# under it was decided by the norm test alone.
def _after_nf_is_square(tr, factorizations_before, result):
    if result is False and tr.counts["nf_factorizations"] == factorizations_before:
        tr.counts["nf_norm_reject"] += 1


_NF_IS_SQUARE_HOOK = (lambda tr: tr.counts["nf_factorizations"], _after_nf_is_square)


def _after_factor_over_Q(tr, _, result):
    if tr.open["residues.nf_is_square"]:
        tr.counts["nf_factorizations"] += 1


def _after_specialize(tr, _, result):
    if tr.open["distinguish.distinguish"]:
        tr.counts["sweep_points"] += 1


def _after_distinguish(tr, _, verdict):
    tr.counts[f"outcome.{verdict.outcome}"] += 1


def _after_enumerate(tr, _, cand):
    tr.counts["candidates_kept"] += cand.size
    tr.counts["candidates_bound"] += cand.bound


OUTCOMES = (
    "Equal",
    "DistinguishedByRamificationField",
    "DistinguishedBySpecialization",
    "CandidateEquivalent",
)

# Every per-layer metric a traced run prints, with its unit.  The arrow
# in bench/NOTES.md names the end-to-end metric each should move.
PER_LAYER = (
    [
        ("residues.is_pth_power.qq.calls", "count"),
        ("residues.is_pth_power.fq.calls", "count"),
        ("residues.is_pth_power.nf.calls", "count"),
        ("residues.nf_is_square.calls", "count"),
        ("residues.nf_is_square.self_ms", "ms"),
        ("residues.nf_is_square.total_ms", "ms"),
        ("residues.nf_is_square.norm_reject_ratio", "ratio"),
        ("residues.norm_poly.factorizations", "count"),
        ("factoring.factor_over_Q.calls", "count"),
        ("factoring.factor_over_Q.self_ms", "ms"),
        ("factoring.factor_over_Q.total_ms", "ms"),
        ("factoring.factor_q_cache.hit_ratio", "ratio"),
        ("factoring.factor_over_Fq.calls", "count"),
        ("factoring.factor_over_Fq.self_ms", "ms"),
        ("factoring.factor_int.calls", "count"),
        ("factoring.factor_int.self_ms", "ms"),
        ("factoring.squarefree_kernel.calls", "count"),
        ("poly.divmod.qq.calls", "count"),
        ("poly.divmod.fq.calls", "count"),
        ("poly.divmod.self_ms", "ms"),
        ("poly.mul.calls", "count"),
        ("poly.mul.self_ms", "ms"),
        ("poly.poly_gcd.calls", "count"),
        ("poly.poly_gcd.self_ms", "ms"),
        ("poly.resultant.calls", "count"),
        ("points.valuation_at.calls", "count"),
        ("points.valuation_at.self_ms", "ms"),
        ("points.reduce_at.calls", "count"),
        ("points.reduce_at.self_ms", "ms"),
        ("points.kappa_cache.size", "count"),
        ("fields.discrete_log.calls", "count"),
        ("fields.discrete_log.self_ms", "ms"),
        ("fields.rational_is_square.calls", "count"),
        ("fields.GF.cache_size", "count"),
        ("brauer.ramification_points.calls", "count"),
        ("brauer.ramification_points.self_ms", "ms"),
        ("brauer.residue_at.calls", "count"),
        ("brauer.residue_at.self_ms", "ms"),
        ("brauer.residue_at.total_ms", "ms"),
        ("brauer.ramification_divisor.calls", "count"),
        ("brauer.classes_equal.calls", "count"),
        ("brauer.specialize.calls", "count"),
        ("hilbert.local_invariants.calls", "count"),
        ("hilbert.local_invariants.self_ms", "ms"),
        ("hilbert.hilbert_symbol.calls", "count"),
        ("distinguish.distinguish.calls", "count"),
        ("distinguish.distinguish.self_ms", "ms"),
    ]
    + [(f"distinguish.outcome.{o}.count", "count") for o in OUTCOMES]
    + [
        ("distinguish.sweep_points", "count"),
        ("distinguish.enumerate_candidates.calls", "count"),
        ("distinguish.enumerate_candidates.self_ms", "ms"),
        ("distinguish.enumerate_candidates.total_ms", "ms"),
        ("distinguish.candidates.kept_ratio", "ratio"),
        ("covers.splitting_witness.calls", "count"),
        ("covers.splitting_witness.self_ms", "ms"),
        ("covers.verify_splitting_witness.calls", "count"),
        ("covers.verify_splitting_witness.self_ms", "ms"),
        ("covers.unramified_cover_certificates.calls", "count"),
        ("covers.unramified_cover_certificates.self_ms", "ms"),
        ("parser.parse_class.calls", "count"),
        ("parser.parse_class.self_ms", "ms"),
        ("report.outcome.self_ms", "ms"),
        ("report.render.self_ms", "ms"),
        ("cli.main.self_ms", "ms"),
        ("cli.build_parser.self_ms", "ms"),
        ("trace.ops", "count"),
        ("trace.op_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
)
