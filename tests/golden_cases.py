"""The figure-reproduction commands and their committed golden outputs."""

CASES = [
    ("boolean_free.txt", ["free", "varieties/boolean.var", "-n", "1"]),
    # the exactness certificate's reason names no generating algebra
    ("boolean_con.txt", ["con", "varieties/boolean.var"]),
    ("boolean_con.dot", ["con", "varieties/boolean.var", "--dot"]),
    ("boolean_solve.json",
     ["solve", "varieties/boolean.var", "or(x,not(x))", "1", "--json"]),
    ("kleene_free.txt", ["free", "varieties/kleene.var", "-n", "1"]),
    # the only golden that reaches the exactness certificate's pointed
    # relations
    ("kleene_con.txt", ["con", "varieties/kleene.var"]),
    # the solve goldens: each answer's kernel, witness elements and
    # retract-pair check come from memos keyed on term ranges and on
    # (congruence, retract pair)
    ("kleene_solve.json",
     ["solve", "varieties/kleene.var", "and(x,not(x))", "and(y,not(y))",
      "--json"]),
    ("kleene_solve.dot",
     ["solve", "varieties/kleene.var", "and(x,not(x))", "and(y,not(y))",
      "--dot"]),
    ("kleene_dual_k3.txt", ["kleene-dual", "varieties/kleene.var", "K3"]),
    ("kleene_dual_k3.dot",
     ["kleene-dual", "varieties/kleene.var", "K3", "--dot"]),
    ("godel3_free.txt", ["free", "varieties/godel3.var", "-n", "1"]),
    ("godel3_props.txt", ["props", "varieties/godel3.var"]),
    # n3 is not 1EP: classification beyond the 1EP shortcut
    ("n3_con.txt", ["con", "varieties/n3.var"]),
    ("n3_solve.json",
     ["solve", "varieties/n3.var", "oplus(x,x)", "oplus(y,oplus(y,y))",
      "--json"]),
    ("semilattice_free.txt", ["free", "varieties/semilattice.var", "-n", "1"]),
    ("semilattice_solve.txt",
     ["solve", "varieties/semilattice.var", "or(x,y)", "or(y,w)"]),
    ("lattice_free.txt", ["free", "varieties/lattice.var", "-n", "1"]),
    ("lattice_solve.txt",
     ["solve", "varieties/lattice.var", "and(x,y)", "or(y,w)"]),
    ("lgg_clash.txt", ["lgg", "f(a,a)", "f(b,b)"]),
    # text paths no case above reaches: the approximate G-congruences block
    # of an inconclusive solve, props with a `no` witness, and con --json
    ("n3_solve.txt",
     ["solve", "varieties/n3.var", "oplus(x,x)", "oplus(y,oplus(y,y))"]),
    ("n3_props.txt", ["props", "varieties/n3.var"]),
    # con --json also holds the projectivity transcripts and verdict
    # details, which one walk of F(1)..F(bound) per congruence gives
    ("kleene_con.json", ["con", "varieties/kleene.var", "--json"]),
    # the JSON documents of kleene-dual and free, which the text reads
    ("kleene_dual_k3.json",
     ["kleene-dual", "varieties/kleene.var", "K3", "--json"]),
    ("kleene_free.json", ["free", "varieties/kleene.var", "-n", "1", "--json"]),
    # the generality comparison, which no case above runs
    ("boolean_compare.txt", ["compare", "varieties/boolean.var", "1", "z"]),
    # free algebras on more than one generator, where the closure permutes
    # variables
    # (boolean F(3): one-byte packed keys, rows derived across two swaps)
    ("boolean_free3.txt", ["free", "varieties/boolean.var", "-n", "3"]),
    ("n3_free4.txt", ["free", "varieties/n3.var", "-n", "4"]),
    # (n3 F(5) builds in about 0.4 s, its new vectors read as slices of the
    # rows' translated columns; the closure without variable swaps and byte
    # vectors took 17 s)
    ("n3_free5.txt", ["free", "varieties/n3.var", "-n", "5"]),
    # the iterated pairing procedure, which no case above runs
    ("boolean_solve_pairwise.txt",
     ["solve", "varieties/boolean.var", "1", "or(x,not(x))", "or(y,not(y))",
      "--pairwise"]),
    # a projective factor product outside 1EP, whose answer is a least term
    # of F(2)
    ("n3_solve_shortcut.txt",
     ["solve", "varieties/n3.var", "x", "oplus(x,oplus(x,x))"]),
    # the text of validate and the JSON document of lgg, which no case above
    # prints
    ("boolean_validate.txt", ["validate", "varieties/boolean.var"]),
    ("lgg_clash.json", ["lgg", "f(a,a)", "f(b,b)", "--json"]),
]

# exit codes expected alongside the output: an inconclusive solve exits 3
# and still prints its report
EXPECTED_EXIT = {"n3_solve.json": 3, "n3_solve.txt": 3}


def run_case(argv):
    """Run a CLI invocation in-process; returns (exit_code, stdout_text)."""
    import contextlib
    import io

    from algen.cli import main

    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue()
