"""Write parser_corpus.json: the identity-language parser's result on a
fixed set of inputs, which tests/test_parser_corpus.py checks the parser
against.

The corpus holds the sides of the built-in catalog and of every stanza
in tests/data/*.cat, the error cases of tests/test_parser.py, limit
cases, and a fixed-seed sample of token soups and multi-line texts. Each
result is the AST's canonical text and repr, or the error's type, text,
line, column and expected token kinds.

The file is regenerated from the current parser, so it pins whatever
that parser does. Run it only for a deliberate change to the grammar or
to its messages, and review the diff of the JSON:

    PYTHONPATH=src python3 tests/data/parser_corpus.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from fibkit.errors import ParseError
from fibkit.expr import to_text
from fibkit.parser import check_identity_scope, parse_expr, parse_identity_sides

HERE = Path(__file__).resolve().parent
BUILTIN = HERE.parents[1] / "src" / "fibkit" / "data" / "builtin.cat"
OUT = HERE / "parser_corpus.json"


def stanzas(path: Path) -> list[tuple[str, list[str]]]:
    """(identity text, params) of each stanza of a catalog file."""
    found, stanza = [], {}
    for raw in path.read_text(encoding="utf-8").splitlines() + [""]:
        line = raw.split("#", 1)[0].strip()
        if ":" in line:
            key, value = line.split(":", 1)
            stanza[key.strip()] = value.strip()
        elif stanza:
            found.append((stanza["identity"], stanza["params"].split()))
            stanza = {}
    return found


def expr(text: str) -> dict:
    return {"kind": "expr", "text": text}


def identity(text: str, params: list[str] | tuple[str, ...]) -> dict:
    return {"kind": "identity", "text": text, "params": list(params)}


# The error and limit cases of tests/test_parser.py, and a few more edges.
_EXPR_CASES = [
    "1 + 2*3", "2*3^2", "-3^2", "-2*m", "a - b - c", "a - (b - c)", "-5", "a - -5",
    "--3", "- - m", "-(3)", "-(-3)", "2^3^2", "(2^3)^2", "2^-3", "-2^-m",
    "F(m + 1)", "binom(n, k)", "sign(n*m)", "pow5floor(n)", "sum(k, 0, n, G(k))",
    "n + 2p", "G(n - 2m + 1)", "2p^2", "2 p", "2\np", "2#c\np", "2_p", "2p3", "12ab*3",
    "F(m", "1 + ", "", "   ", "# only a comment", "1 + # trailing", "1 +\n# c\n",
    "sum(k, 0, n, sum(j, 0, k, F(j)))", "sum(F, 0, n, F(n))", "sum(1, 0, n, m)",
    "F + 1", "F(F(m))", "F(m)^F(2)", "sign(F(m))", "F(2^F(1))", "binom(m, F(1))",
    "pow5floor(sum(k, 0, 1, k))", "F(m)^(2^2)", "F(m)^-(m)", "2^(m*m - 3)",
    "F(m) = F(m)", "F(m) == F(m)", "m =", "1 2", "(1", ")", "sign()", "binom(1)",
    "binom(1, 2, 3)", "G(,)", "m ^", "* m", "m $ n", "m\n\n  $", "٣", "m + n",
    "m\x0c+\x1cn * ?", "é", "x\t+\ty\r\n+ z\n  + ²",
    "(" * 64 + "m" + ")" * 64, "(" * 65 + "m" + ")" * 65, "(" * 100 + "m" + ")" * 99,
    " + ".join(["G(m)"] * 63), " + ".join(["G(m)"] * 64), " + ".join(["G(m)"] * 200),
    " + ".join(["G(m)"] * 200) + " )", "*".join(["m"] * 70), "-" * 63 + "m", "-" * 64 + "m",
    "-" * 100 + "F(m)", "-" * 100 + "7", "m" + "^m" * 63, "m" + "^m" * 64,
    "F(" + "+".join(["m"] * 70) + ")", "sum(k, 0, n, " + "+".join(["k"] * 70) + ")",
    "2" * 30 + "m" * 3, "1" + "0" * 400,
]

_IDENTITY_CASES = [
    ("G(p) == G(p)", ["p"]),
    ("sum(k,0,n, binom(n,k)*sign(k)*F(m)^k*F(m+q)^(n-k)*G(p+q*k)) "
     "== sign(n*m)*F(q)^n*G(p-n*m)", ["n", "m", "p", "q"]),
    ("F(m+1)*F(n) + F(m)*F(n-1) == F(n+m)", ["m", "n"]),
    ("F(m) == F(z)", ["m"]), ("F(z) + F(a) == F(y)", ["m"]),
    ("sum(k, 0, n, F(k)) == F(n + 2) - 1", ["n"]),
    ("sum(k, 0, n, F(k)) + F(k) == F(n)", ["n"]),
    ("sum(k, k, n, F(k)) == F(n)", ["n"]),
    ("sum(n, 0, m, F(n)) == F(m)", ["m", "n"]),
    ("F(m + 1) == F(m) + F(m - 1)", ["m", "p", "m"]),
    ("F(m) == F(m)", ["m", "sum"]), ("F(m) == F(m)", ["G"]),
    ("F(m) = F(m)", ["m"]), ("F(m) == ", ["m"]), ("== F(m)", ["m"]),
    ("F(m) == F(m) == F(m)", ["m"]), ("F(m) == F(m))", ["m"]),
    (" + ".join(["G(m)"] * 63) + " == 63*G(m)", ["m"]),
    (" + ".join(["G(m)"] * 64) + " == 64*G(m)", ["m"]),
    ("G(m) == " + " + ".join(["G(m)"] * 64), ["m"]),
    (" + ".join(["G(m)"] * 64) + " == F(z)", ["m"]),
    ("F(m) + 10^2000000 == F(m) + F(z)", ["m"]),
    ("sum(m, 0, 1, m) + 10^2000000 == F(m)", ["m"]),
    ("F(m) == 10^2000000 + F(z)", ["m"]),
    ("F(m) == F(10000000) + sum(m, 0, 1, m)", ["m"]),
    ("sum(k, 0, m, k^1000000 + 10^2000000) == 0", ["m"]),
    ("sum(k, 0, 10^2000000, k) == 0", ["m"]),
    ("3^1000000*10^1999999 == 1", []),
    ("F(3)^5 + binom(10, 3)*sign(7) - pow5floor(9)*L(-4) == 2^(2*3) - -1", []),
    ("F(0 - 3)^(1 - 2) + binom(3, 5) + binom(-2, 1) + pow5floor(-1) == 0", []),
]

for constant in ["10^2000000", "F(10000000)", "(2^1000000)^7", "F(1" + "0" * 400 + ")",
                 "2^(1" + "0" * 400 + ")", "binom(1" + "0" * 400 + ", 1" + "0" * 399 + ")",
                 "10^1999999", "F(9000000)", "binom(6000000, 3000000)", "F(2)^100000000",
                 "(3 - 3)^100000000", "sign(7)^100000000", "binom(1" + "0" * 400 + ", 3)",
                 "binom(5, 7)^100000000", "2^(0 - 100000000)", "m^100000000",
                 "G(1)^100000000", "L(-10000000)", "pow5floor(4000001)", "-F(9999999)*-1",
                 "F(5000000)*F(5000000)", "F(1000)^2000", "F(1000)^2001" + "0" * 3]:
    _IDENTITY_CASES.append((f"F(m) + {constant} == F(m)", ["m"]))


# Fragments for the random texts: tokens of the language, near misses,
# whitespace of several kinds, comments and characters outside the language.
_FRAGMENTS = [
    "F", "L", "G", "sum", "binom", "sign", "pow5floor", "m", "n", "k", "p", "q", "x1",
    "_a", "0", "1", "17", "007", "2p", "3m", "+", "-", "*", "^", "(", ")", ",", "==",
    " ", "  ", "\n", "\t", "# note\n", "#", "\r\n", "\x0c", "\u00a0", "\u2028", "9" * 25,
]
_STRAYS = ["=", "\u0663", "\u00e9", "$", "\\", ".", "\x00"]


def _random_side(rng: random.Random, depth: int, names: str) -> str:
    """Mostly well-formed text of one side, over the symbols in names."""
    pick = rng.random()
    if depth <= 0 or pick < 0.25:
        return rng.choice([rng.choice(names), str(rng.randint(0, 30)),
                           f"{rng.randint(1, 9)}{rng.choice(names)}"])
    index = _random_index(rng, 2, names)
    if pick < 0.45:
        op = rng.choice([" + ", " - ", "*", " * ", "-"])
        return (_random_side(rng, depth - 1, names) + op
                + _random_side(rng, depth - 1, names))
    if pick < 0.55:
        return f"({_random_side(rng, depth - 1, names)})"
    if pick < 0.62:
        return f"-{_random_side(rng, depth - 1, names)}"
    if pick < 0.7:
        return f"{_random_side(rng, 0, names)}^{_random_index(rng, 1, names)}"
    if pick < 0.8:
        return f"{rng.choice('FLG')}({index})"
    if pick < 0.86:
        return f"binom({index}, {_random_index(rng, 1, names)})"
    if pick < 0.9:
        return f"{rng.choice(['sign', 'pow5floor'])}({index})"
    var = rng.choice(["k", "j", names[0]])
    return (f"sum({var}, {_random_index(rng, 1, names)}, {index}, "
            f"{_random_side(rng, depth - 1, names + var)})")


def _random_index(rng: random.Random, depth: int, names: str) -> str:
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice([rng.choice(names), str(rng.randint(-3, 12))])
    op = rng.choice([" + ", " - ", "*"])
    return _random_index(rng, depth - 1, names) + op + _random_index(rng, depth - 1, names)


def _mutate(rng: random.Random, text: str) -> str:
    """text with a fragment inserted, a span deleted, or spaces turned into
    line breaks and comments."""
    choice = rng.random()
    at = rng.randint(0, len(text))
    if choice < 0.35:
        return text[:at] + rng.choice(_FRAGMENTS + _STRAYS) + text[at:]
    if choice < 0.6:
        return text[:at] + text[at + rng.randint(1, 4):]
    return "".join(rng.choice([" ", "\n", " # c\n", "\t"]) if ch == " " and rng.random() < 0.3
                   else ch for ch in text)


def random_cases(seed: int = 2018) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    for i in range(60):  # token soups, one in three with a stray character
        pool = _FRAGMENTS + _STRAYS if i % 3 == 0 else _FRAGMENTS
        cases.append(expr(rng.choice(["", " "]).join(
            rng.choice(pool) for _ in range(rng.randint(1, 25)))))
    for _ in range(60):  # generated sides, half of them mutated
        text = _random_side(rng, 4, "mnpq")
        cases.append(expr(_mutate(rng, text) if rng.random() < 0.5 else text))
    for _ in range(40):  # generated identities, some multi-line
        text = f"{_random_side(rng, 3, 'mnp')} == {_random_side(rng, 3, 'mnpq')}"
        for _ in range(rng.randint(0, 2)):
            text = _mutate(rng, text)
        cases.append(identity(text, rng.choice([["m", "n", "p"], ["m", "n", "p", "q"]])))
    return cases


def cases() -> list[dict]:
    found = []
    for path in [BUILTIN, *sorted(HERE.glob("*.cat"))]:
        for text, params in stanzas(path):
            found.append(identity(text, params))
            found.extend(expr(side) for side in text.split("=="))
    found.extend(expr(text) for text in _EXPR_CASES)
    found.extend(identity(text, params) for text, params in _IDENTITY_CASES)
    return found + random_cases()


def outcome(case: dict) -> dict:
    """The parser's result on one case, as JSON data."""
    try:
        if case["kind"] == "expr":
            sides = {"ast": parse_expr(case["text"])}
        else:
            lhs, rhs = parse_identity_sides(case["text"])
            check_identity_scope(lhs, rhs, tuple(case["params"]))
            sides = {"lhs": lhs, "rhs": rhs}
    except ParseError as exc:
        return {"error": type(exc).__name__, "str": str(exc), "line": exc.line,
                "col": exc.col, "expected": sorted(exc.expected)}
    result = {}
    for name, node in sides.items():
        result[name] = to_text(node)
        result[name + "_repr"] = repr(node)
    return result


def main() -> None:
    corpus = [dict(case, result=outcome(case)) for case in cases()]
    OUT.write_text(json.dumps(corpus, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {OUT}")


if __name__ == "__main__":
    main()
