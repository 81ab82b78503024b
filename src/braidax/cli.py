"""Command-line interface.

Braid words are given on the command line after a ``--`` separator as
whitespace-separated signed integers (i > 0 for the i-th generator, i < 0
for its inverse); the strand count is always explicit via ``--n`` and never
inferred.  Data outputs are deterministic: identical inputs give byte
identical reports, and runtime metadata goes to stderr.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage, parse or
file-system error.  A flag that the named experiment does not take is a usage
error, as is ``prop25 --canonical-odd`` given together with explicit words,
or a size above the experiment's cap (``_CAPS``) or an m beyond ``_M_CAP``,
rejected before any work, as is ``invariant --n`` above ``_INVARIANT_N_CAP``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .burau import OracleError, conway_matches_alexander, conway_polynomial
from .conway import SkeinEngine, full_conway, hoste_lowest
from .diagram import axis_word, closure_diagram, linking_matrix
from .experiments import EXPERIMENTS, ExperimentError
from .words import (
    BraidWord,
    ExchangeForm,
    WordError,
    admits_exchange,
    canonical_odd_knot_braid,
    cycle_decomposition,
    exchange_split,
    exponent_sum,
    nonconjugacy_criterion,
    parse_word,
    permutation_of,
)

USAGE_ERROR, CHECK_FAILURE, OK = 2, 1, 0


def _extract_word_tokens(argv: list[str]):
    """Pull the braid word out of argv: integer tokens following ``--``.

    Flags may continue after the word; only the maximal run of integer
    tokens right after the separator is consumed.
    """
    if "--" not in argv:
        return None, argv
    i = argv.index("--")
    j = i + 1
    word = []
    while j < len(argv):
        try:
            int(argv[j])
        except ValueError:
            break
        word.append(argv[j])
        j += 1
    return word, argv[:i] + argv[j:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidax",
        description="Exchange-move braid families, axis links, and truncated"
        " Conway coefficients in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info", help="permutation, components, exponent sum, exchange admissibility"
    )
    p_info.add_argument("--n", type=int, required=True, help="strand count")

    p_inv = sub.add_parser(
        "invariant", help="truncated Conway coefficients of closure and axis link"
    )
    p_inv.add_argument("--n", type=int, required=True, help="strand count")
    p_inv.add_argument("--degree", type=int, default=3, help="truncation degree")

    p_exp = sub.add_parser("experiment", help="run a named family experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment name")
    p_exp.add_argument("--n", type=int, help="strand count (dn, eq54)")
    p_exp.add_argument("--n1", type=int, help="first cycle length (lemma64)")
    p_exp.add_argument("--n2", type=int, help="second cycle length (lemma64)")
    p_exp.add_argument("--alpha", type=str, help="alpha word (prop25)")
    p_exp.add_argument("--beta", type=str, help="beta word (prop25)")
    p_exp.add_argument("--canonical-odd", type=int, metavar="N",
                       help="use the odd-strand canonical family (prop25)")
    p_exp.add_argument("--m-min", type=int, help="first m of the sample range")
    p_exp.add_argument("--m-max", type=int, help="last m of the sample range")
    p_exp.add_argument("--corpus", dest="path", type=str, help="corpus TSV path (table8)")
    p_exp.add_argument("--out", type=str, default=".", help="report output directory")
    return parser


# ---------------------------------------------------------------------------
# commands


def _cmd_info(w: BraidWord) -> int:
    perm = permutation_of(w)
    dec = cycle_decomposition(perm)
    adm = admits_exchange(w)
    verdict = nonconjugacy_criterion(w)
    cycles = " ".join("(" + " ".join(map(str, c)) + ")" for c in dec.cycles)
    print(f"strands\t{w.strands}")
    print(f"word\t{w}")
    print(f"permutation\t{cycles}")
    print(f"components\t{dec.count}")
    print(f"exponent_sum\t{exponent_sum(w)}")
    adm_text = "yes" if adm.admissible else "no"
    if adm.degenerate:
        adm_text += " (degenerate: n <= 3)"
    print(f"exchange_admissible\t{adm_text}")
    split = exchange_split(w)
    if split is not None:
        print(f"split_alpha\t{split.alpha}")
        print(f"split_beta\t{split.beta}")
    if verdict.applies:
        print("nonconjugacy_criterion\tapplies")
    else:
        print(f"nonconjugacy_criterion\tfails: {verdict.reason}")
    return OK


def _cmd_invariant(w: BraidWord, degree: int) -> int:
    engine = SkeinEngine()
    closure = closure_diagram(w)
    axis_braid = axis_word(w)
    axis = closure_diagram(axis_braid)
    closure_poly = engine.truncated(closure, degree)
    axis_poly = engine.truncated(axis, degree)
    print(f"word\t{w}")
    print(f"closure_components\t{closure_poly.components}")
    print(f"closure_nabla\t{' '.join(map(str, closure_poly.coeffs))}")
    print(f"axis_components\t{axis_poly.components}")
    print(f"axis_nabla\t{' '.join(map(str, axis_poly.coeffs))}")
    lk = linking_matrix(axis)
    for i, row in enumerate(lk.entries):
        print(f"axis_linking_row_{i}\t{' '.join(map(str, row))}")
    # the axis link's Burau polynomial, zero past its degree, checks both
    # Hoste's lowest coefficient and the skein window; an OracleError fails both
    p = axis_poly.components
    formula_low = hoste_lowest(lk)
    try:
        burau = conway_polynomial(axis_braid) + (0,) * (p + degree)
        hoste_miss = None if burau[p - 1] == formula_low else f" {burau[p - 1]} vs {formula_low}"
        axis_miss = None if burau[:degree + 1] == axis_poly.coeffs else ""
    except OracleError as exc:
        hoste_miss = axis_miss = f" ({exc})"
    ok = _verdict("hoste_check", hoste_miss)
    if len(w.letters) <= 16:  # bounds the full skein evaluation, not Burau
        try:
            closure_ok = conway_matches_alexander(full_conway(closure).coeffs, w)
            closure_miss = None if closure_ok else ""
        except OracleError as exc:
            closure_miss = f" ({exc})"
        ok = _verdict("burau_check", closure_miss) and ok
    else:
        print("burau_check\tskipped (word longer than 16 letters)")
    ok = _verdict("axis_burau_check", axis_miss) and ok
    return OK if ok else CHECK_FAILURE


def _verdict(name: str, mismatch: str | None) -> bool:
    """Print whether check ``name`` passed: ``match`` when ``mismatch`` is
    None, else ``MISMATCH`` followed by it."""
    print(f"{name}\t{'match' if mismatch is None else 'MISMATCH' + mismatch}")
    return mismatch is None


# experiment -> (the options it takes, passed on as keyword arguments of the
# same name except for prop25's; the usage hint when all of them are required;
# whether it samples a family over m and so takes --m-min and --m-max)
_EXPERIMENT_ARGS = {
    "prop25": (("n", "alpha", "beta", "canonical_odd"), None, True),
    "dn": (("n",), "--n (odd, >= 5)", True),
    "lemma64": (("n1", "n2"), "--n1 and --n2", True),
    "eq54": (("n",), "--n (>= 4)", True),
    "table8": (("path",), None, False),
}
_OPTIONS = sorted({opt for options, _, _ in _EXPERIMENT_ARGS.values() for opt in options})
# the largest sizes an experiment accepts: when they were set, a run at each
# cap took about ten seconds on a 2-core x86-64 host (dn 101: 10.5 s, eq54
# 16: 7.7 s, lemma64 12,12: 5.9 s, prop25 --canonical-odd 101: 9.6 s); now it
# takes 0.43 s, 1.2 s, 1.1 s and 0.58 s there, in a fresh process (median of
# five).  The cost still grows without bound past them,
# and a large size with a wide m range is bounded by neither, so the caps
# stay until the engine has a node budget
_CAPS = {
    "dn": {"n": 101},
    "eq54": {"n": 16},
    "lemma64": {"n1": 12, "n2": 12},
    "prop25": {"canonical_odd": 101},
}
# the largest strand count invariant accepts: on a one-letter word it took
# 8.2 s at n = 100 (3.6 s at 80, 13.5 s at 110) on that host, nearly all of
# it the Burau determinant of the n + 1 strand axis word; word length and
# --degree stay unbounded
_INVARIANT_N_CAP = 100
# the largest |m| a family experiment samples: the cost grows steeply with
# it, and at |m| = 25 the steepest, eq54 --n 4, takes about 9 s on that host
# (4 s at 20, 15 s at 30); the caps hold each one alone, not jointly
_M_CAP = 25


def _flag(option: str) -> str:
    return "--corpus" if option == "path" else "--" + option.replace("_", "-")


def _cmd_experiment(args) -> int:
    name = args.name
    if (args.m_min is None) != (args.m_max is None):
        raise WordError("--m-min and --m-max must be given together")
    if args.m_min is not None and args.m_min > args.m_max:
        raise WordError("--m-min must not exceed --m-max")
    options, required, family = _EXPERIMENT_ARGS[name]
    stray = [opt for opt in _OPTIONS if getattr(args, opt) is not None and opt not in options]
    if stray:
        raise WordError(f"{name} takes no {', '.join(map(_flag, stray))}")
    kwargs = {opt: getattr(args, opt) for opt in options if getattr(args, opt) is not None}
    if required is not None and len(kwargs) < len(options):
        raise WordError(f"{name} needs {required}")
    for opt, cap in _CAPS.get(name, {}).items():
        if kwargs.get(opt, 0) > cap:
            raise WordError(f"{name} takes {_flag(opt)} up to {cap}, got {kwargs[opt]}")
    if args.m_min is not None:
        if not family:
            raise WordError(f"{name} takes no --m-min/--m-max")
        if max(-args.m_min, args.m_max) > _M_CAP:
            raise WordError(f"{name} takes m in -{_M_CAP}..{_M_CAP},"
                            f" got {args.m_min}..{args.m_max}")
        kwargs["m_range"] = range(args.m_min, args.m_max + 1)
    if name == "prop25":
        odd = kwargs.pop("canonical_odd", None)
        n, alpha, beta = (kwargs.pop(opt, None) for opt in ("n", "alpha", "beta"))
        explicit = (n, alpha, beta) != (None, None, None)
        if odd is not None:
            if explicit:
                raise WordError("prop25 takes --canonical-odd or --n, --alpha, --beta, not both")
            kwargs["form"] = canonical_odd_knot_braid(odd)
        elif explicit:
            if None in (n, alpha, beta):
                raise WordError("prop25 with explicit words needs --n, --alpha, --beta")
            kwargs["form"] = ExchangeForm(n, parse_word(alpha, n), parse_word(beta, n))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = EXPERIMENTS[name](**kwargs)
    elapsed = time.perf_counter() - t0

    stem = out_dir / f"braidax_{name}"
    stem.with_suffix(".json").write_text(report.to_json())
    stem.with_suffix(".tsv").write_text(report.to_tsv())
    sys.stdout.write(report.to_tsv())
    print(f"result\t{'PASS' if report.passed else 'FAIL'}")
    print(f"[runtime] {name}: {elapsed:.2f}s", file=sys.stderr)
    return OK if report.passed else CHECK_FAILURE


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    word_tokens, rest = _extract_word_tokens(raw)
    parser = _build_parser()
    args = parser.parse_args(rest)
    try:
        if args.command == "experiment":
            return _cmd_experiment(args)
        if word_tokens is None:
            raise WordError("missing braid word: give it after --")
        w = parse_word(word_tokens, args.n)
        if args.command == "info":
            return _cmd_info(w)
        if args.degree < 0:
            raise WordError("--degree must be >= 0")
        if args.n > _INVARIANT_N_CAP:
            raise WordError(f"invariant takes --n up to {_INVARIANT_N_CAP}, got {args.n}")
        return _cmd_invariant(w, args.degree)
    except (WordError, ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
