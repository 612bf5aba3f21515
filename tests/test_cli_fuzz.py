"""Fuzz test of the CLI contract: whatever graph text, graph6 file or
pattern list arrives, ``color``, ``analyze``, ``verify --in`` and ``gen``
exit 0 or 2 and raise nothing out of ``main``."""

from hypothesis import HealthCheck, given, settings, strategies as st

from chibind.cli import main
from chibind.harness import COLORERS, TARGETS

COMMANDS = [["color", "--pipeline", p] for p in sorted(COLORERS)]
COMMANDS.append(["analyze"])

GRAPH6_CHARS = "".join(chr(c) for c in range(63, 127))
vertex = st.integers(min_value=0, max_value=12)
edge = st.builds("{}-{}".format, vertex, vertex)
edges_text = st.one_of(st.lists(edge, max_size=16),
                       st.lists(st.one_of(edge, st.text(max_size=4)), max_size=16)).map(",".join)


def _graph6_of_length(n: int):
    """Size character plus a payload of the right length, so most of these
    decode; the padding bits are not forced to zero."""
    size = -(-n * (n - 1) // 12)
    return st.text(alphabet=GRAPH6_CHARS, min_size=size, max_size=size).map(chr(63 + n).__add__)


g6_text = st.one_of(st.text(max_size=12), st.integers(min_value=0, max_value=12).flatmap(_graph6_of_length))
graph_arg = st.one_of(g6_text.map("--g6={}".format), edges_text.map("--edges={}".format))
file_bytes = st.one_of(st.binary(max_size=40),
                       st.lists(g6_text, max_size=6).map("\n".join).map(str.encode))
pattern_text = st.one_of(st.text(max_size=12),
                         st.lists(st.sampled_from(["P5", "K3", "K2,3", "2K2", "C5", "K1+2K2", "X"]),
                                  max_size=3).map(",".join))

@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(COMMANDS), graph_arg)
def test_cli_exits_zero_or_two(capsys, command, arg):
    code = main(command + [arg])
    capsys.readouterr()
    assert code in (0, 2), (command, arg)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(TARGETS)), st.integers(min_value=-1, max_value=6), file_bytes)
def test_cli_verify_file_exits_zero_or_two(tmp_path, capsys, target, n, data):
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    code = main(["verify", "--target", target, f"--n={n}", "--in", str(path)])
    capsys.readouterr()
    assert code in (0, 2), (target, n, data)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([*range(-3, 7), 11]), st.booleans(), pattern_text)
def test_cli_gen_exits_zero_or_two(capsys, n, connected, free):
    code = main(["gen", f"--n={n}", f"--free={free}"] + ["--connected"] * connected)
    capsys.readouterr()
    assert code in (0, 2), (n, connected, free)


def test_cli_rejects_a_huge_vertex_count(capsys):
    # rows for 2**62 vertices cannot be allocated, so the count is checked first
    for command in COMMANDS:
        assert main(command + ["--edges=0-1", f"--n={2 ** 62}"]) == 2, command
        assert "outside 0..64" in capsys.readouterr().err
