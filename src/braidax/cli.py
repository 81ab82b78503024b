"""Command-line interface.

Braid words are given on the command line after a ``--`` separator as
whitespace-separated signed integers (i > 0 for the i-th generator, i < 0
for its inverse); the strand count is always explicit via ``--n`` and never
inferred.  Data outputs are deterministic: identical inputs give byte
identical reports, and runtime metadata goes to stderr.

Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage, parse or
file-system error.  A flag that the named experiment does not take is a usage
error, as is ``prop25 --canonical-odd`` given together with explicit words,
or a size above the experiment's cap (``prop25 --n`` included) or an m
beyond ``_M_CAP``, rejected before any work, as is ``invariant --n`` above
``_INVARIANT_N_CAP`` or ``--degree`` above ``_DEGREE_CAP``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .burau import OracleError, conway_polynomial
from .conway import SkeinEngine, hoste_lowest
from .diagram import axis_word, closure_diagram, linking_matrix
from .experiments import (
    ExperimentError,
    corpus_check,
    joint_cycle_check,
    progression_check,
    squared_family_check,
    two_cycle_check,
)
from .words import (
    BraidWord,
    ExchangeForm,
    WordError,
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
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS), help="experiment name")
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
    dec = cycle_decomposition(permutation_of(w))
    split = exchange_split(w)
    verdict = nonconjugacy_criterion(w)
    cycles = " ".join("(" + " ".join(map(str, c)) + ")" for c in dec.cycles)
    print(f"strands\t{w.strands}")
    print(f"word\t{w}")
    print(f"permutation\t{cycles}")
    print(f"components\t{dec.count}")
    print(f"exponent_sum\t{exponent_sum(w)}")
    adm_text = "yes" if w.strands <= 3 or split is not None else "no"
    if w.strands <= 3:
        adm_text += " (degenerate: n <= 3)"
    print(f"exchange_admissible\t{adm_text}")
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
    for i, row in enumerate(lk):
        print(f"axis_linking_row_{i}\t{' '.join(map(str, row))}")
    # the axis link's Burau polynomial also checks Hoste's lowest coefficient,
    # and an OracleError fails both of its checks
    p = axis_poly.components
    formula_low = hoste_lowest(lk)
    burau, axis_miss = _burau_check(axis_braid, axis_poly.coeffs, p + degree)
    if burau is None:
        hoste_miss = axis_miss
    else:
        hoste_miss = None if burau[p - 1] == formula_low else f" {burau[p - 1]} vs {formula_low}"
    ok = _verdict("hoste_check", hoste_miss)
    ok = _verdict("burau_check", _burau_check(w, closure_poly.coeffs, degree + 1)[1]) and ok
    ok = _verdict("axis_burau_check", axis_miss) and ok
    return OK if ok else CHECK_FAILURE


def _burau_check(braid: BraidWord, window: tuple[int, ...], zeros: int):
    """The Burau route's coefficients of the closure of ``braid`` followed by
    ``zeros`` zeros, at least as many as ``window`` holds, and the mismatch
    of the skein's ``window`` with them for ``_verdict``; None and the
    message when the route raises ``OracleError``."""
    try:
        burau = conway_polynomial(braid) + (0,) * zeros
    except OracleError as exc:
        return None, f" ({exc})"
    return burau, None if burau[:len(window)] == window else ""


def _verdict(name: str, mismatch: str | None) -> bool:
    """Print whether check ``name`` passed: ``match`` when ``mismatch`` is
    None, else ``MISMATCH`` followed by it."""
    print(f"{name}\t{'match' if mismatch is None else 'MISMATCH' + mismatch}")
    return mismatch is None


# experiment -> (its function; the options it takes, passed on as keyword
# arguments of the same name except for prop25's, each with the largest value
# it accepts or None; the usage hint when all of them are required; whether it
# samples a family over m and so takes --m-min and --m-max).  The cost grows
# without bound with the size and with |m|, and a large size with a wide m
# range is bounded by neither cap alone, so the caps bound the work until the
# engine has a node budget
_EXPERIMENTS = {
    "prop25": (progression_check,
               {"n": 101, "alpha": None, "beta": None, "canonical_odd": 101}, None, True),
    "dn": (squared_family_check, {"n": 101}, "--n (odd, >= 5)", True),
    "lemma64": (two_cycle_check, {"n1": 12, "n2": 12}, "--n1 and --n2", True),
    "eq54": (joint_cycle_check, {"n": 16}, "--n (>= 4)", True),
    "table8": (corpus_check, {"path": None}, None, False),
}
_OPTIONS = sorted({opt for _, options, _, _ in _EXPERIMENTS.values() for opt in options})
# the largest |m| a family experiment samples, a cap for the same reason
_M_CAP = 25
# the largest strand count invariant accepts.  Its cost is the Burau
# determinants of the n strand word and its n + 1 strand axis word, on the
# blocks that have no unit pivot, so it depends on the word: at n = 100,
# 1 2 .. 99 runs in 0.2 s and a random 300-letter word in 13 s.  Word
# length stays unbounded
_INVARIANT_N_CAP = 100
# the largest --degree invariant accepts, since the output prints degree + 1
# numbers per polynomial.  It bounds no work: the skein's grows with the
# degree up to the diagram's crossing count
_DEGREE_CAP = 1000


def _flag(option: str) -> str:
    return "--corpus" if option == "path" else "--" + option.replace("_", "-")


def _cmd_experiment(args) -> int:
    name = args.name
    if (args.m_min is None) != (args.m_max is None):
        raise WordError("--m-min and --m-max must be given together")
    if args.m_min is not None and args.m_min > args.m_max:
        raise WordError("--m-min must not exceed --m-max")
    run, caps, required, family = _EXPERIMENTS[name]
    stray = [opt for opt in _OPTIONS if getattr(args, opt) is not None and opt not in caps]
    if stray:
        raise WordError(f"{name} takes no {', '.join(map(_flag, stray))}")
    kwargs = {opt: getattr(args, opt) for opt in caps if getattr(args, opt) is not None}
    if required is not None and len(kwargs) < len(caps):
        raise WordError(f"{name} needs {required}")
    for opt, cap in caps.items():
        if cap is not None and kwargs.get(opt, 0) > cap:
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

    t0 = time.perf_counter()
    report = run(**kwargs)
    elapsed = time.perf_counter() - t0

    # made only now, so an argument only the experiment rejects leaves no directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        if args.degree > _DEGREE_CAP:
            raise WordError(f"invariant takes --degree up to {_DEGREE_CAP}, got {args.degree}")
        if args.n > _INVARIANT_N_CAP:
            raise WordError(f"invariant takes --n up to {_INVARIANT_N_CAP}, got {args.n}")
        return _cmd_invariant(w, args.degree)
    except (WordError, ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
