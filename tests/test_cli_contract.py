"""The command line's input contract, on seeded malformed, degenerate and
over-budget inputs and option values: every run exits 0, 1 or 2 and never
shows a traceback, and a refusal (exit 2) prints nothing on stdout and
exactly one stderr line, starting ``error:``. ``main`` runs in process,
each case under a ``CASE_SECONDS`` wall-time cap, except for the over-budget
inputs and large ring moduli, which run under ``timeout 20``; either way a
missing budget fails instead of hanging."""

import json
import os
import random
import signal
import subprocess
import sys

import pytest

from polytoric import ehrhart as eh
from polytoric.cli import main

SEED = 27
# The slowest in-process case takes about 0.08 s on a 2-vCPU machine, so a
# refusal that starts sweeping fails in seconds instead of hanging the run.
CASE_SECONDS = 1.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HUGE = str(10**30)
SQ = [[0, 0], [1, 0], [0, 1], [1, 1]]

COMMANDS = [
    ("faces",),
    ("faces", "--star", "0,0"),
    ("classify", "--kind", "vis", "--x", "2,2"),
    ("ehrhart",),
    ("cohomology", "--twist", "1"),
    ("verify",),
]


@pytest.fixture(autouse=True)
def wall_time_cap(request):
    """Fail an in-process case (one that runs ``main`` under ``capsys``) that
    takes longer than ``CASE_SECONDS``, by a real-time interval timer."""
    if "capsys" not in request.fixturenames:
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"in-process case ran longer than {CASE_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_contract(code, out, err):
    assert code in (0, 1, 2), (code, out, err)
    assert "Traceback" not in out + err, err
    if code == 2:
        assert out == "", out
        assert err.count("\n") == 1 and err.startswith("error:"), err


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    check_contract(code, out, err)
    return code, out, err


def label(argv):
    """A test id: values of more than 40 characters by their length."""
    return " ".join(v if len(v) <= 40 else f"<{len(v)} chars>" for v in argv)


def write(tmp_path, content, name="in.json"):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


# ---------------------------------------------------------------------------
# input files

MALFORMED = {
    "not_utf8": b'\xff\xfe{"vertices": [[0, 0], [1, 0], [0, 1]]}',
    "nested_1e5": b'{"vertices": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
    "int_5000_digits": b'{"vertices": [[0, 0], [1, 0], [0, ' + b"7" * 5000 + b"]]}",
}


@pytest.mark.parametrize("command", COMMANDS, ids=label)
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_undecodable_file_is_one_malformed_json_line(capsys, tmp_path, name, command):
    path = write(tmp_path, MALFORMED[name])
    code, _, err = run(capsys, *command, "--input", path)
    assert code == 2 and err.startswith(f"error: malformed JSON in {path}: ")


def test_seeded_bytes_keep_the_contract(capsys, tmp_path):
    rng = random.Random(SEED)
    valid = json.dumps({"vertices": SQ}).encode()
    for _ in range(40):
        data = bytearray(valid)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        for command in COMMANDS:
            run(capsys, *command, "--input", write(tmp_path, bytes(data)))


@pytest.mark.parametrize("coord", [True, False, None, 1.0, 0.5, float("inf"), "1", [1], {"x": 1}])
def test_non_integer_coordinate_is_refused(capsys, tmp_path, coord):
    path = write(tmp_path, {"vertices": [[0, 0], [1, 0], [0, coord]]})
    for command in COMMANDS:
        code, _, err = run(capsys, *command, "--input", path)
        assert code == 2 and "non-integer coordinate" in err, (command, err)


@pytest.mark.parametrize(
    "content",
    [
        {"vertices": [[0, 0], [1], [0, 1]]},
        {"vertices": [[0, 0], [1, 0, 0], [0, 1]]},
        {"vertices": [[0, 0, 0], [1, 0], [0, 1], [1, 1]]},
        {"vertices": [[]]},
        {"vertices": [[], []]},
        {"vertices": []},
        {"vertices": [0, 1]},
        {"vertices": 5},
        {"vertices": None},
        {"points": SQ},
        SQ,
        None,
        "vertices",
    ],
)
def test_ragged_mixed_or_misshapen_input_is_refused(capsys, tmp_path, content):
    path = write(tmp_path, content)
    for command in COMMANDS:
        assert run(capsys, *command, "--input", path)[0] == 2, (command, content)


def seeded_shapes():
    """Per dimension 1..6: random point sets, with repeated points, of up to
    dim + 4 points and of at most dim points, and dim + 2 points on the
    hyperplane x_0 = 0 (degenerate)."""
    rng = random.Random(SEED)
    reach = {1: 3, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1}
    shapes = []
    for dim in range(1, 7):
        r = reach[dim]
        for count in [rng.randint(dim + 1, dim + 4) for _ in range(3)] + [rng.randint(1, dim)]:
            points = [[rng.randint(-r, r) for _ in range(dim)] for _ in range(count)]
            points += rng.sample(points, rng.randint(0, count))
            shapes.append((dim, points))
        flat = [[0] + [rng.randint(-1, 1) for _ in range(dim - 1)] for _ in range(dim + 2)]
        shapes.append((dim, flat))
    return shapes


@pytest.mark.parametrize(("dim", "points"), seeded_shapes())
def test_seeded_shapes_keep_the_contract(capsys, tmp_path, dim, points):
    path = write(tmp_path, {"vertices": points})
    origin = ",".join(["0"] * dim)
    commands = [
        ("faces",),
        ("faces", "--star", origin),
        ("classify", "--kind", "lowup", "--x", origin),
    ]
    if dim <= 3:
        commands += [
            ("classify", "--kind", "frontback", "--x", origin),
            ("ehrhart",),
            ("cohomology", "--twist", "-1"),
            ("verify", "--suite", "combinatorics"),
        ]
    codes = [run(capsys, *command, "--input", path)[0] for command in commands]
    if len({tuple(p) for p in points}) <= dim or all(p[0] == 0 for p in points):
        assert codes[0] == 2


# ---------------------------------------------------------------------------
# option values

POINTS = ["-1,0", "1/2,-3", "0,0", f"{HUGE},0", "1,2,3", "1", "", "a,b", "1/0,1", "1//2,0"]
INTEGERS = ["-1", "1/2", "0", HUGE, "-" + HUGE, "1,2", "", "x", "3"]
RINGS = ["Zp:-1", "Zp:1/2", "Zp:0", "Zp:" + HUGE, "Zp:" + "7" * 5000, "Zp:2,3", "Zp:2", "Q"]


def option_cases():
    cases = [("faces", "--star", v) for v in POINTS]
    kinds = ("vis", "frontback", "lowup")
    cases += [("classify", "--kind", k, "--x", v) for k in kinds for v in POINTS]
    cases += [("ehrhart", "--kmax", v) for v in INTEGERS]
    cases += [("cohomology", "--twist", v) for v in INTEGERS]
    cases += [("cohomology", "--twist", "1", "--ring", r) for r in RINGS]
    cases += [("verify", "--suite", "classify", "--seed", v) for v in INTEGERS]
    # seeded points and twists: integers and rationals of any sign and size
    rng = random.Random(SEED)
    for _ in range(12):
        coords = []
        for _ in range(rng.choice([1, 2, 2, 3])):
            num, den = rng.randint(-9, 9), rng.randint(-3, 3)
            coords.append(rng.choice([str(num), f"{num}/{den}", HUGE]))
        kind = rng.choice(kinds)
        cases.append(("classify", "--kind", kind, "--x", ",".join(coords)))
        cases.append(("faces", "--star", ",".join(coords)))
        cases.append(("cohomology", "--twist", str(rng.randint(-4, 4))))
    return cases


@pytest.mark.parametrize("argv", option_cases(), ids=label)
def test_option_values_keep_the_contract(capsys, tmp_path, argv):
    run(capsys, argv[0], "--input", write(tmp_path, {"vertices": SQ}), *argv[1:])


BAD_RINGS = [r for r in RINGS if r not in ("Zp:2", "Q")]


@pytest.mark.parametrize("tag", BAD_RINGS, ids=[label([r]) for r in BAD_RINGS])
def test_bad_ring_tag_is_named_before_the_input_is_read(capsys, tag):
    argv = ("cohomology", "--input", "missing.json", "--twist", "1", "--ring", tag)
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith(f"error: bad ring tag {tag!r}"), err[:80]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("frobnicate",), "argument command: invalid choice: 'frobnicate'"),
        (("verify", "--suite", "nope"), "argument --suite: invalid choice: 'nope'"),
        (("classify", "--kind", "nope", "--x", "2,2"), "argument --kind: invalid choice: 'nope'"),
        (("classify",), "the following arguments are required: --kind, --x"),
        (("cohomology",), "the following arguments are required: --twist"),
        (("ehrhart", "--kmax", "1/2"), "argument --kmax: invalid int value: '1/2'"),
        (("verify", "--seed", HUGE + ".5"), "argument --seed: invalid int value"),
        (("faces", "--bogus"), "unrecognized arguments: --bogus"),
    ],
)
def test_usage_error_is_one_error_line(capsys, tmp_path, argv, message):
    code, _, err = run(capsys, argv[0], "--input", write(tmp_path, {"vertices": SQ}), *argv[1:])
    assert code == 2 and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ((), "the following arguments are required: command"),
        (("faces",), "the following arguments are required: --input"),
        (("--input", "sq.json"), "argument command: invalid choice: 'sq.json'"),
    ],
)
def test_missing_command_or_input_is_one_error_line(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith(f"error: {message}"), err


def test_help_still_exits_0(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0 and out.startswith("usage: polytoric verify") and err == ""


# ---------------------------------------------------------------------------
# failed internal checks


def test_splitting_index_arithmetic_error_is_an_internal_check(capsys, tmp_path, monkeypatch):
    message = "splitting index mismatch: 1 roots vs first interior dilate 0"

    def mismatch(poly):
        raise ArithmeticError(message)

    monkeypatch.setattr(eh, "splitting_index", mismatch)
    code, out, err = run(capsys, "ehrhart", "--input", write(tmp_path, {"vertices": SQ}))
    assert (code, out, err) == (1, "", f"error: internal check failed: {message}\n")


# ---------------------------------------------------------------------------
# over-budget inputs, each in its own process under a 20-second timeout

CROSS6 = [[s * (i == j) for j in range(6)] for i in range(6) for s in (1, -1)]
OVER_BUDGET = {
    "TRI5": [[0, 0], [10**5, 0], [0, 10**5]],
    "WIDE": [[0, 0], [10**30, 0], [0, 1]],
    "CROSS6": CROSS6,
}
BUDGET_RUNS = [
    ("TRI5", ("ehrhart",)),
    ("TRI5", ("verify", "--suite", "all")),
    ("TRI5", ("cohomology", "--twist", "2")),
    ("WIDE", ("ehrhart",)),
    ("WIDE", ("verify", "--suite", "all")),
    ("WIDE", ("cohomology", "--twist", "2")),
    ("CROSS6", ("ehrhart",)),
    ("CROSS6", ("verify", "--suite", "all")),
]


@pytest.mark.parametrize(
    ("name", "argv"), BUDGET_RUNS, ids=[" ".join((name, *argv)) for name, argv in BUDGET_RUNS]
)
def test_over_budget_input_is_refused_within_20_seconds(tmp_path, name, argv):
    path = write(tmp_path, {"vertices": OVER_BUDGET[name]})
    proc = subprocess.run(
        ["timeout", "20", sys.executable, "-m", "polytoric.cli", *argv, "--input", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    check_contract(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == 2 and "allowed" in proc.stderr, (proc.returncode, proc.stderr)


@pytest.mark.parametrize(
    ("modulus", "code"),
    [("1000000000000000003", 0), ("3317044064679887385961981", 2), (HUGE, 2)],
)
def test_large_ring_modulus_is_decided_within_20_seconds(tmp_path, modulus, code):
    # a prime near 10^18 once ran trial division for hours; primality is
    # decided by Miller-Rabin, and a modulus it cannot decide is refused
    path = write(tmp_path, {"vertices": [[0, 0], [1, 0], [0, 1]]})
    argv = ["cohomology", "--twist", "1", "--ring", f"Zp:{modulus}", "--json", "--input", path]
    proc = subprocess.run(
        ["timeout", "20", sys.executable, "-m", "polytoric.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    check_contract(proc.returncode, proc.stdout, proc.stderr)
    assert proc.returncode == code, (proc.returncode, proc.stderr)
    if code == 0:
        assert json.loads(proc.stdout)["ring"] == f"Z/{modulus}"
    else:
        assert proc.stderr.startswith(f"error: bad ring tag 'Zp:{modulus}'"), proc.stderr
        assert "is too large" in proc.stderr, proc.stderr
