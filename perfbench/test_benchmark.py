"""The benchmark's own checks: a wrong verdict and a wrong map must each
count as a failed operation, a CLI exit code that breaks the README's
table must count as failed without marking the answers wrong, and a wrong
answer must miss every latency limit.

    python3 -m pytest perfbench/test_benchmark.py

Uses the fingeo already importable (src/ on the path) and never installs
the tracer, so it is safe inside a larger test session.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import classify_cold  # noqa: E402
import cli_session  # noqa: E402
import reconstruct_warm  # noqa: E402
from common import FAILED_MS, SRC, Round, Tally, layers, load_golden  # noqa: E402

if SRC not in sys.path:
    sys.path.append(SRC)

fg = layers()
GOLDEN = load_golden()


def test_altered_verdict_is_a_failure():
    golden = GOLDEN[classify_cold.NAME]
    key = classify_cold.example_key("elliptic-quadric", 2)
    report = fg.classify.classify(fg.gallery.build_example("elliptic-quadric", fg.gf.gf(2)))
    tally = Tally()
    assert classify_cold.check(tally, key, classify_cold.report_digest(report), golden)
    verdict = report.verdicts["ovoid"]
    verdict.verdict = not verdict.verdict
    assert not classify_cold.check(tally, key, classify_cold.report_digest(report), golden)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_wrong_map_is_a_failure():
    K = fg.gf.gf(3)
    sigma = fg.gf.identity_hom(K)
    gen = fg.projective.SemilinearMap(sigma, ((1, 0, 2, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 1)))
    wrong = fg.projective.SemilinearMap(sigma, ((1, 0, 2, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 2, 0, 2)))
    tally = Tally()
    assert reconstruct_warm.check(fg, tally, "ag(3,3)", gen.scaled(2), gen)
    assert not reconstruct_warm.check(fg, tally, "ag(3,3)", wrong, gen)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_exit_code_outside_the_readme_table_is_a_failure():
    label, argv, expect = next(c for c in cli_session.COMMANDS if c[0] == "malformed: unmapped points")
    state = {"fg": fg, "golden": GOLDEN[cli_session.NAME]}
    tally = Tally()
    assert cli_session.check(state, tally, label, argv, expect, 2, "", "error: unmapped\n")
    assert not cli_session.check(state, tally, label, argv, expect, 1, '{"reconstruction": null}', "")
    assert not cli_session.check(state, tally, label, argv, expect, 1, "", "Traceback (most recent call last):\n")
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 0)


def test_wrong_answer_misses_every_latency_limit():
    rnd = Round()
    rnd.add_chunk([0.002, 0.003, 0.004], 0.5)
    rnd.tally.record("right", True)
    rnd.tally.record("wrong map", False)
    rnd.tally.record("exit 1, README says 2", True, contract_ok=False)
    assert rnd.latencies_ms() == [1.0, FAILED_MS, 2.0]
    assert rnd.latencies_ms(scaled=False) == [2.0, FAILED_MS, 4.0]
    assert abs(rnd.wall() - 0.0045) < 1e-12
