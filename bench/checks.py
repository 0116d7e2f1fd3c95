"""Checks of the program's outputs, made apart from the program.

Nothing here imports marblesim or compares against a stored copy of its
output.  Expected values come from Python integer arithmetic, from the
gate functions below (written from the gates' definitions, not from
``marblesim.gates.boolean_spec``), or from properties the method must have.
"""

from __future__ import annotations

from itertools import product


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _and(a, b):
    return (a & b,)


def _or(a, b):
    return (a | b,)


def _xor(a, b):
    return (a ^ b,)


def _not(a):
    return (1 - a,)


def _nand(a, b):
    return (1 - (a & b),)


def _nor(a, b):
    return (1 - (a | b),)


def toffoli(c, x1, x2):
    """Controlled-controlled NOT: the target flips when both controls are 1."""
    return (c, x1, x2 ^ (c & x1))


def fredkin(u, x1, x2):
    """Controlled swap: the data lines pass straight when u is 1, crossed
    when u is 0 (the library's convention)."""
    return (u, x1, x2) if u else (u, x2, x1)


def _half_adder(a, b):
    return ((a + b) & 1, (a + b) >> 1)


def _full_adder(a, b, cin):
    return ((a + b + cin) & 1, (a + b + cin) >> 1)


GATE_FUNCTIONS = {
    "AND": _and,
    "OR": _or,
    "XOR": _xor,
    "NOT_SYRINGE": _not,
    "NOT_INTERACTION": _not,
    "NAND": _nand,
    "NOR_CHAINED": _nor,
    "NOR_ALT": _nor,
    "TOFFOLI": toffoli,
    "FREDKIN_CHAINED": fredkin,
    "FREDKIN_DIRECT": fredkin,
    "HALF_ADDER": _half_adder,
    "FULL_ADDER": _full_adder,
}

# Of all library gates only the two-junction Fredkin routes every marble to
# an output without injecting or wasting any.
PHYSICALLY_CONSERVATIVE = frozenset({"FREDKIN_DIRECT"})


def gate_arity(name: str) -> int:
    return GATE_FUNCTIONS[name].__code__.co_argcount


def gate_table(name: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Rows of a gate's function, first input most significant."""
    fn = GATE_FUNCTIONS[name]
    return [(bits, fn(*bits)) for bits in product((0, 1),
                                                  repeat=gate_arity(name))]


def is_reversible(rows, n_inputs: int, n_outputs: int) -> bool:
    """Equal arity and a bijection on bit vectors."""
    images = {outputs for _, outputs in rows}
    return n_inputs == n_outputs and len(images) == len(rows) == 2 ** n_inputs


def is_conservative(rows) -> bool:
    """Every row keeps the number of 1 bits."""
    return all(sum(bits) == sum(outputs) for bits, outputs in rows)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_sum(n: int, bits, outputs) -> None:
    """``bits`` are a0..a(n-1), b0..b(n-1), cin; ``outputs`` s0..s(n-1),
    cout; bit 0 is the least significant."""
    expect(len(bits) == 2 * n + 1 and len(outputs) == n + 1,
           f"{n}-bit adder: wrong vector width")
    a = sum(bit << k for k, bit in enumerate(bits[:n]))
    b = sum(bit << k for k, bit in enumerate(bits[n:2 * n]))
    got = sum(bit << k for k, bit in enumerate(outputs))
    expect(got == a + b + bits[2 * n],
           f"{n}-bit adder: {a} + {b} + {bits[2 * n]} gave {got}")


def check_ledger(ledger, bits) -> None:
    """Mass balances exactly, and one marble entered per 1 input bit."""
    expect(ledger.input_mass + ledger.injected_mass
           == ledger.output_mass + ledger.waste_mass,
           f"ledger does not balance: {ledger.input_mass} + "
           f"{ledger.injected_mass} != {ledger.output_mass} + "
           f"{ledger.waste_mass}")
    expect(ledger.input_marbles == sum(bits),
           f"{ledger.input_marbles} input marbles for {sum(bits)} set bits")


def check_table_rows(rows, n_inputs: int, fn) -> None:
    """Rows count up with the first input most significant and each row's
    outputs equal ``fn`` of its inputs."""
    expect(len(rows) == 2 ** n_inputs,
           f"{len(rows)} rows for {n_inputs} inputs")
    for value, (bits, outputs) in enumerate(rows):
        want = tuple((value >> (n_inputs - 1 - k)) & 1
                     for k in range(n_inputs))
        expect(tuple(bits) == want, f"row {value} has inputs {bits}")
        expect(tuple(outputs) == fn(*bits),
               f"row {''.join(map(str, bits))}: got {outputs}, "
               f"want {fn(*bits)}")


def check_modes_agree(bounce_rows, merge_rows, what: str) -> None:
    expect(list(bounce_rows) == list(merge_rows),
           f"{what}: bounce and merge tables differ")


def parse_table_records(text: str):
    """``row<TAB>bits<TAB>outputs`` lines into bit-tuple rows."""
    rows = []
    for line in text.splitlines():
        fields = line.split("\t")
        expect(len(fields) == 3 and fields[0] == "row"
               and set(fields[1] + fields[2]) <= {"0", "1"},
               f"unexpected table record {line!r}")
        rows.append((tuple(map(int, fields[1])), tuple(map(int, fields[2]))))
    return rows


def parse_verify_records(text: str) -> dict[str, dict[str, bool]]:
    """``verify<TAB>gate<TAB>field<TAB>yes|no`` lines by gate and field."""
    verdicts: dict[str, dict[str, bool]] = {}
    for line in text.splitlines():
        fields = line.split("\t")
        expect(len(fields) == 4 and fields[0] == "verify"
               and fields[3] in ("yes", "no"),
               f"unexpected verify record {line!r}")
        _, gate, field, value = fields
        verdicts.setdefault(gate, {})[field] = value == "yes"
    return verdicts


def expected_verdicts(name: str) -> dict[str, bool]:
    """What ``verify`` must say of a gate, from its function's properties."""
    rows = gate_table(name)
    n = gate_arity(name)
    reversible = is_reversible(rows, n, len(rows[0][1]))
    conservative = is_conservative(rows)
    physical = name in PHYSICALLY_CONSERVATIVE
    return {
        "table_bounce": True,
        "table_merge": True,
        "modes_agree": True,
        "reversible": reversible,
        "reversible_claim": reversible,
        "conservative": conservative,
        "conservative_claim": conservative,
        "physical_bounce": physical,
        "physical_merge": physical,
        "ok": True,
    }


def check_verify(verdicts: dict[str, dict[str, bool]]) -> None:
    expect(set(verdicts) == set(GATE_FUNCTIONS),
           f"verify covered {sorted(verdicts)}")
    for name, got in verdicts.items():
        want = expected_verdicts(name)
        for field, value in want.items():
            expect(got.get(field) == value,
                   f"verify {name} {field}: got {got.get(field)}, "
                   f"want {value}")
