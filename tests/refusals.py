"""Every refusal that comes before any draw, one row each, with its exact message.

A row is a cell, which test_refusals runs through plan_cell, its planner, an
`estimate` command line (unless the row says no command line spells it) and
an `experiment` config, or a command line.  Its stage is where the refusal
comes:

- check: the cell's keys and value types (harness._check_cell), before its
  EstimatorConfig; on a command line, before any spec is read;
- config: the cell's EstimatorConfig, before any spec is read;
- size: a spec's size or a JSON file's load, before the planner;
- plan: the planner, on the spec's size, before any distribution is built;
- build: plan_cell passes, and building the cell (or, on a command line,
  resolving a spec) refuses.

Where a row's cell has two faults, a comment names the one that loses, so a
change of refusal order changes that row's message.  A row's files are
written to the working directory first.
"""

import math
from dataclasses import dataclass
from typing import Optional

STAGES = ("check", "config", "size", "plan", "build")
EXPERIMENT = ("experiment", "--config", "c.json", "--out", "o.csv")

LARGE = "zipf:1.5:16777216"  # 2^24 symbols: building it takes ~1 s and ~400 MB
BAD = "no-such-family:8"  # read as a file that does not exist
BAD_4 = "no-such-family:4"
EXACT = "exact-expectation"

BUDGET = "budget M=%s is above the largest outcome table built, M=1048576 (2^20)"
TOO_SMALL = "epsilon must be at least 1e-150, got %r"
TOO_LARGE = "epsilon must be positive and at most 1e+150, got %r"
DELTA = "delta must lie in (0, 1)"
MODE = "mode must be one of 'contract', 'exact-expectation', got mode %r"
DIGITS = ("alpha=%s: its query charges can exceed 4300 decimal digits, the most Python "
          "converts to a string")
ROUNDS = ("epsilon %r is too small for integer order alpha=%d: the count phase would run "
          "~%s rounds, past the ceiling of 2^40")
INTENSITY = ("epsilon %r is too small for min-entropy on n = %d: its rounds could draw ~2^%s "
             "positions, past the ceiling of 2^40")
NO_LAW = "%s has no payoff law to integrate: it runs only in contract mode, not exact-expectation"
F_BELOW_1 = "ratio bound f must be at least 1, got %r: p_i <= f * q_i for every i sums to 1 <= f"
SPEC = "instance spec %r (format %s): %s"
ARGUMENTS = "instance spec %r has 2 arguments; %s takes 1"
SYMBOLS = "N = %s symbols is above the ceiling of 2^24 = 16777216"
NEITHER = "distribution %r is neither a known instance family nor a file"
ALPHABETS = "p and q must share an alphabet"
UNBOUNDED = "ratio unbounded: p puts mass on a bin where q is zero"
UNDEFINED = "KL divergence undefined: p puts mass on a bin where q is zero"
ABOVE_F = "ratio promise violated at symbol 1: p_i > 2.0 * q_i"
ORDER_0 = ("order 0 needs a support promise: estimate the support size instead (algo "
           "'support', with its promise m)")
PLUGIN_CEILING = ("n_samples %d is too large for the plug-in: each side would draw that many "
                  "positions, past the ceiling of 2^40")
GROUP = ("the additive contract asks for %s draws per group at sigma/epsilon = %s, more than "
         "int64 holds")
BAD_COUNTS = ("counts must be Python or numpy integers, not bools, and must be non-negative "
              "integers below 2**63; got %s")
OUTSIDE = BAD_COUNTS % "a count outside [0, 2**63)"
NOT_AN_OBJECT = 'distribution file must be an object {"S": ..., "counts": [...]}'


@dataclass(frozen=True)
class Refusal:
    id: str
    stage: str
    message: str
    cell: Optional[dict] = None
    argv: tuple = ()
    files: tuple = ()  # (name, text) pairs
    estimate: bool = False  # the cell also runs as an `estimate` command line


def rows(stage: str, *entries, estimate=True) -> list:
    """The rows of one stage from (id, cell or command line, message) entries."""
    return [Refusal(id, stage, message, cell=given, estimate=estimate)
            if isinstance(given, dict) else Refusal(id, stage, message, argv=given)
            for id, given, message in entries]


def json_file(id: str, text: str, message: str) -> Refusal:
    """A shannon cell on a JSON distribution file of this text."""
    return Refusal(id, "size", message, cell=shannon("bad.json"), files=(("bad.json", text),),
                   estimate=True)


def exact_file(id: str, text: str, message: str) -> Refusal:
    """`exact` on a JSON distribution file of this text."""
    return Refusal(id, "build", message, argv=exact("d.json", "shannon"),
                   files=(("d.json", text),))


def config_file(id: str, fields: str, message: str) -> Refusal:
    """`experiment` on a config of one cell of 2^24 symbols and these fields."""
    text = '{"cells": [{"algo": "shannon", "dist": "%s", "eps": 0.5}]%s}' % (LARGE, fields)
    return Refusal(id, "check", message, argv=EXPERIMENT, files=(("c.json", text),))


def exact(dist: str, measure: str, *more: str) -> tuple:
    return ("exact", "--dist", dist, "--measure", measure) + more


def shannon(dist="uniform:16", **keys) -> dict:
    return dict(algo="shannon", dist=dist, **keys)


def kl(p, q, **keys) -> dict:
    return dict(algo="kl", dist=p, dist_q=q, **keys)


def renyi(alpha, dist="uniform:16", **keys) -> dict:
    return dict(algo="renyi", dist=dist, alpha=alpha, **keys)


def plugin(measure="shannon", n_samples=8, dist="uniform:4", **keys) -> dict:
    return dict(algo="plugin", dist=dist, measure=measure, n_samples=n_samples, **keys)


def cell(algo, dist, **keys) -> dict:
    return dict(algo=algo, dist=dist, **keys)


ROWS = [
    # Values no `estimate` command line spells: argparse refuses them, or
    # reads them as other values, before the cell is made.
    *rows(
        "check",
        ("unknown-key-epsilon", shannon(epsilon=0.05), "unknown cell keys: epsilon"),
        ("unknown-key-distinctness-cost", shannon(distinctness_cost="belovs"),
         "unknown cell keys: distinctness_cost"),
        ("unknown-key-dist-seed", shannon("uniform:4", dist_seed=1),
         "unknown cell keys: dist_seed"),
        ("cell-without-algo", {"dist": "uniform:8"}, "cell needs at least 'algo' and 'dist'"),
        ("dist-not-a-string", shannon(4), "dist must be a string, got 4"),
        # BAD does not resolve, and loses
        ("unknown-algo", cell("entropy", BAD), "unknown algo 'entropy'"),
        ("algo-not-a-string", cell(["shannon"], BAD), "unknown algo ['shannon']"),
        ("eps-None", shannon(eps=None), "epsilon must be a real number, got None (cell key 'eps')"),
        ("eps-string", shannon(eps="2"), "epsilon must be a real number, got '2' (cell key 'eps')"),
        ("eps-True", shannon(eps=True), "epsilon must be a real number, got True (cell key 'eps')"),
        ("eps-10^400", shannon(eps=10 ** 400),
         "epsilon must be a real number, got %d (cell key 'eps')" % 10 ** 400),
        ("delta-None", shannon(delta=None),
         "delta must be a real number, got None (cell key 'delta')"),
        ("delta-string", shannon(delta="2"),
         "delta must be a real number, got '2' (cell key 'delta')"),
        ("delta-True", shannon(delta=True),
         "delta must be a real number, got True (cell key 'delta')"),
        ("delta-10^400", shannon(delta=10 ** 400),
         "delta must be a real number, got %d (cell key 'delta')" % 10 ** 400),
        # alpha, f, m and n_samples are keys shannon cells do not read, and lose
        ("alpha-None", shannon(alpha=None),
         "alpha must be a real number, got None (cell key 'alpha')"),
        ("alpha-string", shannon(alpha="2"),
         "alpha must be a real number, got '2' (cell key 'alpha')"),
        ("alpha-True", shannon(alpha=True),
         "alpha must be a real number, got True (cell key 'alpha')"),
        ("alpha-10^400", shannon(alpha=10 ** 400),
         "alpha must be a real number, got %d (cell key 'alpha')" % 10 ** 400),
        ("f-None", shannon(f=None), "f must be a real number, got None (cell key 'f')"),
        ("f-string", shannon(f="2"), "f must be a real number, got '2' (cell key 'f')"),
        ("f-True", shannon(f=True), "f must be a real number, got True (cell key 'f')"),
        ("f-10^400", shannon(f=10 ** 400),
         "f must be a real number, got %d (cell key 'f')" % 10 ** 400),
        ("m-None", shannon(m=None), "m must be an integer below 2^63, got None"),
        ("m-string", shannon(m="2"), "m must be an integer below 2^63, got '2'"),
        ("m-True", shannon(m=True), "m must be an integer below 2^63, got True"),
        ("m-nan", shannon(m=math.nan), "m must be an integer below 2^63, got nan"),
        ("m-inf", shannon(m=math.inf), "m must be an integer below 2^63, got inf"),
        ("m-99.9", shannon(m=99.9), "m must be an integer below 2^63, got 99.9"),
        ("m-16.0", shannon(m=16.0), "m must be an integer below 2^63, got 16.0"),
        ("n_samples-None", shannon(n_samples=None),
         "n_samples must be an integer below 2^63, got None"),
        ("n_samples-string", shannon(n_samples="2"),
         "n_samples must be an integer below 2^63, got '2'"),
        ("n_samples-True", shannon(n_samples=True),
         "n_samples must be an integer below 2^63, got True"),
        ("n_samples-nan", shannon(n_samples=math.nan),
         "n_samples must be an integer below 2^63, got nan"),
        ("n_samples-inf", shannon(n_samples=math.inf),
         "n_samples must be an integer below 2^63, got inf"),
        ("n_samples-99.9", shannon(n_samples=99.9),
         "n_samples must be an integer below 2^63, got 99.9"),
        ("n_samples-16.0", shannon(n_samples=16.0),
         "n_samples must be an integer below 2^63, got 16.0"),
        ("trials-2.7", shannon(trials=2.7), "cell 'trials' must be a positive integer, got 2.7"),
        ("trials-0", shannon(trials=0), "cell 'trials' must be a positive integer, got 0"),
        ("trials--1", shannon(trials=-1), "cell 'trials' must be a positive integer, got -1"),
        ("trials-None", shannon(trials=None), "cell 'trials' must be a positive integer, got None"),
        ("plugin-measure-not-a-string", plugin(3), "measure must be a string, got 3"),
        estimate=False),
    *rows(
        "check",
        ("kl-without-dist-q-on-uniform-8", cell("kl", "uniform:8"), "kl cells need 'dist_q'"),
        ("eps-nan", shannon(eps=math.nan),
         "epsilon must be a real number, got nan (cell key 'eps')"),
        ("eps-nan-on-uniform-4", shannon("uniform:4", eps=math.nan),
         "epsilon must be a real number, got nan (cell key 'eps')"),
        ("delta-nan", shannon(delta=math.nan),
         "delta must be a real number, got nan (cell key 'delta')"),
        ("delta-inf", shannon(delta=math.inf),
         "delta must be a real number, got inf (cell key 'delta')"),
        ("coverage-n-samples-2^63", cell("coverage", "uniform:4", n_samples=2 ** 63),
         "n_samples must be an integer below 2^63, got 9223372036854775808"),
        ("coverage-n-samples-10^400", cell("coverage", "uniform:16", n_samples=10 ** 400),
         "n_samples must be an integer below 2^63, got %d" % 10 ** 400),
        ("support-m-10^400", cell("support", "uniform:16", m=10 ** 400),
         "m must be an integer below 2^63, got %d" % 10 ** 400),
        ("plugin-shannon-reads-no-dist-q", plugin("shannon", 16, dist_q="uniform:4"),
         "plugin cells with measure 'shannon' do not read 'dist_q'"),
        ("plugin-measure-unknown", plugin("entropy"), "unknown measure 'entropy'"),
        ("plugin-measure-renyi-abc", plugin("renyi:abc"),
         "measure 'renyi:abc' needs a numeric order, not NaN, after the colon, got 'abc'"),
        # alpha, f, m and n_samples are keys shannon cells do not read, and lose
        ("alpha-nan", shannon(alpha=math.nan),
         "alpha must be a real number, got nan (cell key 'alpha')"),
        ("f-nan", shannon(f=math.nan), "f must be a real number, got nan (cell key 'f')"),
        ("f-inf", shannon(f=math.inf), "f must be a real number, got inf (cell key 'f')"),
        ("m-10^400", shannon(m=10 ** 400), "m must be an integer below 2^63, got %d" % 10 ** 400),
        ("n_samples-10^400", shannon(n_samples=10 ** 400),
         "n_samples must be an integer below 2^63, got %d" % 10 ** 400),
        # BAD and BAD_4 do not resolve, and lose
        ("kl-without-dist_q", cell("kl", BAD), "kl cells need 'dist_q'"),
        ("renyi-without-alpha", cell("renyi", BAD), "renyi cells need 'alpha'"),
        ("coverage-without-n_samples", cell("coverage", BAD), "coverage cells need 'n_samples'"),
        ("support-without-m", cell("support", BAD), "support cells need 'm'"),
        ("plugin-without-measure-n_samples", cell("plugin", BAD, measure="shannon"),
         "plugin cells need 'measure' and 'n_samples'"),
        ("plugin-kl-without-dist-q", plugin("kl", 8, BAD), "KL plugin cells need 'dist_q'"),
        ("shannon-reads-no-dist_q", shannon(BAD_4, dist_q="uniform:4"),
         "shannon cells do not read 'dist_q'"),
        ("shannon-reads-no-f", shannon(BAD_4, f=2.0), "shannon cells do not read 'f'"),
        ("shannon-reads-no-alpha", shannon(BAD_4, alpha=2.5), "shannon cells do not read 'alpha'"),
        ("shannon-reads-no-m", shannon(BAD_4, m=4), "shannon cells do not read 'm'"),
        ("shannon-reads-no-n_samples", shannon(BAD_4, n_samples=16),
         "shannon cells do not read 'n_samples'"),
        ("shannon-reads-no-measure", shannon(BAD_4, measure="shannon"),
         "shannon cells do not read 'measure'"),
        ("kl-reads-no-alpha", kl(BAD_4, "uniform:4", alpha=2.5), "kl cells do not read 'alpha'"),
        ("kl-reads-no-m", kl(BAD_4, "uniform:4", m=4), "kl cells do not read 'm'"),
        ("kl-reads-no-n_samples", kl(BAD_4, "uniform:4", n_samples=16),
         "kl cells do not read 'n_samples'"),
        ("kl-reads-no-measure", kl(BAD_4, "uniform:4", measure="shannon"),
         "kl cells do not read 'measure'"),
        ("renyi-reads-no-dist_q", renyi(2.5, BAD_4, dist_q="uniform:4"),
         "renyi cells do not read 'dist_q'"),
        ("renyi-reads-no-f", renyi(2.5, BAD_4, f=2.0), "renyi cells do not read 'f'"),
        ("renyi-reads-no-m", renyi(2.5, BAD_4, m=4), "renyi cells do not read 'm'"),
        ("renyi-reads-no-n_samples", renyi(2.5, BAD_4, n_samples=16),
         "renyi cells do not read 'n_samples'"),
        ("renyi-reads-no-measure", renyi(2.5, BAD_4, measure="shannon"),
         "renyi cells do not read 'measure'"),
        ("minentropy-reads-no-dist_q", cell("minentropy", BAD_4, dist_q="uniform:4"),
         "minentropy cells do not read 'dist_q'"),
        ("minentropy-reads-no-f", cell("minentropy", BAD_4, f=2.0),
         "minentropy cells do not read 'f'"),
        ("minentropy-reads-no-alpha", cell("minentropy", BAD_4, alpha=2.5),
         "minentropy cells do not read 'alpha'"),
        ("minentropy-reads-no-m", cell("minentropy", BAD_4, m=4),
         "minentropy cells do not read 'm'"),
        ("minentropy-reads-no-n_samples", cell("minentropy", BAD_4, n_samples=16),
         "minentropy cells do not read 'n_samples'"),
        ("minentropy-reads-no-measure", cell("minentropy", BAD_4, measure="shannon"),
         "minentropy cells do not read 'measure'"),
        ("coverage-reads-no-dist_q", cell("coverage", BAD_4, dist_q="uniform:4", n_samples=16),
         "coverage cells do not read 'dist_q'"),
        ("coverage-reads-no-f", cell("coverage", BAD_4, f=2.0, n_samples=16),
         "coverage cells do not read 'f'"),
        ("coverage-reads-no-alpha", cell("coverage", BAD_4, alpha=2.5, n_samples=16),
         "coverage cells do not read 'alpha'"),
        ("coverage-reads-no-m", cell("coverage", BAD_4, m=4, n_samples=16),
         "coverage cells do not read 'm'"),
        ("coverage-reads-no-measure", cell("coverage", BAD_4, measure="shannon", n_samples=16),
         "coverage cells do not read 'measure'"),
        ("support-reads-no-dist_q", cell("support", BAD_4, dist_q="uniform:4", m=4),
         "support cells do not read 'dist_q'"),
        ("support-reads-no-f", cell("support", BAD_4, f=2.0, m=4),
         "support cells do not read 'f'"),
        ("support-reads-no-alpha", cell("support", BAD_4, alpha=2.5, m=4),
         "support cells do not read 'alpha'"),
        ("support-reads-no-n_samples", cell("support", BAD_4, n_samples=16, m=4),
         "support cells do not read 'n_samples'"),
        ("support-reads-no-measure", cell("support", BAD_4, measure="shannon", m=4),
         "support cells do not read 'measure'"),
        ("plugin-reads-no-f", plugin("shannon", 16, BAD_4, f=2.0), "plugin cells do not read 'f'"),
        ("plugin-reads-no-alpha", plugin("shannon", 16, BAD_4, alpha=2.5),
         "plugin cells do not read 'alpha'"),
        ("plugin-reads-no-m", plugin("shannon", 16, BAD_4, m=4), "plugin cells do not read 'm'"),
        # command lines
        ("estimate-negative-seed",
         ("estimate", "--algo", "shannon", "--dist", LARGE, "--seed", "-1"),
         "--seed must be a non-negative integer, got -1"),
        ("exact-renyi:nan", exact("uniform:16", "renyi:nan"),
         "measure 'renyi:nan' needs a numeric order, not NaN, after the colon, got 'nan'"),
        ("exact-power-sum:nan", exact("uniform:16", "power-sum:nan"),
         "measure 'power-sum:nan' needs a numeric order, not NaN, after the colon, got 'nan'"),
        ("exact-renyi:abc", exact("uniform:16", "renyi:abc"),
         "measure 'renyi:abc' needs a numeric order, not NaN, after the colon, got 'abc'"),
        ("exact-coverage:abc", exact("uniform:16", "coverage:abc"),
         "measure 'coverage:abc' needs an integer sample count below 2^63 after the colon, "
         "got 'abc'"),
        ("exact-coverage-10^400", exact("uniform:16", "coverage:%d" % 10 ** 400),
         "measure 'coverage:%d' needs an integer sample count below 2^63 after the colon, "
         "got '%d'" % (10 ** 400, 10 ** 400)),
        ("exact-unknown-measure", exact(LARGE, "bogus"), "unknown measure 'bogus'"),
        ("exact-kl-without-dist-q", exact(LARGE, "kl"), "measure 'kl' needs a second distribution"),
        ("exact-shannon-reads-no-dist-q", exact(LARGE, "shannon", "--dist-q", "uniform:8"),
         "measure 'shannon' does not read --dist-q")),
    Refusal("config-without-cells", "check", "experiment config must be a JSON object with "
            "'cells'", argv=EXPERIMENT, files=(("c.json", "{}"),)),
    config_file("config-unknown-key", ', "bogus": 1', "unknown config keys: bogus"),
    config_file("config-cells-not-objects", ', "cells": [1]', "'cells' must be a list of objects"),
    config_file("config-record-timing-string-false", ', "record_timing": "false"',
                "'record_timing' must be true or false, got 'false'"),
    config_file("config-record-timing-1", ', "record_timing": 1',
                "'record_timing' must be true or false, got 1"),
    config_file("config-trials--3", ', "trials": -3',
                "config 'trials' must be a positive integer, got -3"),
    config_file("config-trials-0", ', "trials": 0',
                "config 'trials' must be a positive integer, got 0"),
    config_file("config-trials-2.7", ', "trials": 2.7',
                "config 'trials' must be a positive integer, got 2.7"),
    config_file("config-trials-true", ', "trials": true',
                "config 'trials' must be a positive integer, got True"),
    config_file("config-trials-string-2", ', "trials": "2"',
                "config 'trials' must be a positive integer, got '2'"),
    config_file("config-master-seed-string-x", ', "master_seed": "x"',
                "'master_seed' must be a non-negative integer or null, got 'x'"),
    config_file("config-master-seed-string-1", ', "master_seed": "1"',
                "'master_seed' must be a non-negative integer or null, got '1'"),
    config_file("config-master-seed-true", ', "master_seed": true',
                "'master_seed' must be a non-negative integer or null, got True"),
    config_file("config-master-seed-1.5", ', "master_seed": 1.5',
                "'master_seed' must be a non-negative integer or null, got 1.5"),
    config_file("config-master-seed--1", ', "master_seed": -1',
                "'master_seed' must be a non-negative integer or null, got -1"),
    Refusal("config-cell-1-refused", "plan", INTENSITY % (0.02, 16777216, "50.0") + " (cell 1)",
            argv=EXPERIMENT, files=(("c.json", '{"cells": [{"algo": "shannon", "dist": '
                                     '"uniform:4"}, {"algo": "minentropy", "dist": "%s", '
                                     '"eps": 0.02}]}' % LARGE),)),
    *rows(
        "config",
        ("shannon-eps-inf", shannon(eps=math.inf), TOO_LARGE % math.inf),
        ("shannon-eps-1e+300", shannon(eps=1e300), TOO_LARGE % 1e300),
        ("shannon-eps-2e+150", shannon(eps=2e150), TOO_LARGE % 2e150),
        ("shannon-delta-0.1-eps-0.0", shannon(delta=0.1, eps=0.0), TOO_LARGE % 0.0),
        ("minentropy-eps-1e+300", cell("minentropy", "uniform:16", eps=1e300), TOO_LARGE % 1e300),
        ("shannon-uniform-4-eps-0", shannon("uniform:4", eps=0), TOO_LARGE % 0.0),
        ("plugin-eps-inf", plugin(eps=math.inf), TOO_LARGE % math.inf),
        ("plugin-eps-0", plugin(eps=0), TOO_LARGE % 0.0),
        ("plugin-eps--1", plugin(eps=-1), TOO_LARGE % -1.0),
        ("plugin-uniform-64-eps--1", plugin("shannon", 100, "uniform:64", eps=-1),
         TOO_LARGE % -1.0),
        ("renyi-2-eps-1e-300", renyi(2, eps=1e-300), TOO_SMALL % 1e-300),
        ("renyi-3-eps-1e-300", renyi(3, eps=1e-300), TOO_SMALL % 1e-300),
        ("minentropy-eps-1e-300", cell("minentropy", "uniform:16", eps=1e-300), TOO_SMALL % 1e-300),
        ("renyi-2-eps-1e-160", renyi(2, eps=1e-160), TOO_SMALL % 1e-160),
        ("support-eps-1e-300", cell("support", "uniform:16", m=16, eps=1e-300), TOO_SMALL % 1e-300),
        ("shannon-eps-5e-324", shannon(eps=5e-324), TOO_SMALL % 5e-324),
        ("kl-eps-5e-324", kl("uniform:16", "uniform:16", eps=5e-324), TOO_SMALL % 5e-324),
        ("renyi-2.5-eps-5e-324", renyi(2.5, eps=5e-324), TOO_SMALL % 5e-324),
        ("renyi-0.75-eps-5e-324", renyi(0.75, eps=5e-324), TOO_SMALL % 5e-324),
        ("coverage-eps-5e-324", cell("coverage", "uniform:16", n_samples=16, eps=5e-324),
         TOO_SMALL % 5e-324),
        ("support-eps-5e-324", cell("support", "uniform:16", m=16, eps=5e-324), TOO_SMALL % 5e-324),
        ("shannon-delta-2", shannon("uniform:4", delta=2), DELTA),
        ("shannon-eps-0.1-delta-1.0", shannon(eps=0.1, delta=1.0), DELTA),
        ("shannon-delta-0.0", shannon("uniform:4", delta=0.0), DELTA),
        ("plugin-delta-5", plugin(delta=5), DELTA),
        ("plugin-uniform-64-delta-5", plugin("shannon", 100, "uniform:64", delta=5), DELTA),
        ("shannon-large-delta-1.5", shannon(LARGE, delta=1.5), DELTA)),
    *rows(
        "config",  # --mode offers only the two modes
        ("plugin-mode-bogus", plugin(mode="bogus"), MODE % "bogus"),
        ("shannon-mode-exact", shannon(mode="exact"), MODE % "exact"),
        ("shannon-mode-magic", shannon(eps=0.1, delta=0.1, mode="magic"), MODE % "magic"),
        estimate=False),
    *rows(
        "size",
        ("unresolvable-dist", shannon(BAD), NEITHER % BAD),
        ("plugin-kl-unresolvable-dist-q", plugin("kl", dist_q=BAD_4), NEITHER % BAD_4),
        ("spec-counts:1,2,3:6", shannon("counts:1,2,3:6"),
         ARGUMENTS % ("counts:1,2,3:6", "counts:C1,C2,...")),
        ("spec-counts:1,2,3:7", shannon("counts:1,2,3:7"),
         ARGUMENTS % ("counts:1,2,3:7", "counts:C1,C2,...")),
        ("spec-uniform:8:9", shannon("uniform:8:9"), ARGUMENTS % ("uniform:8:9", "uniform:N")),
        ("kl-dist-q-uniform-0", kl("uniform:4", "uniform:0"),
         SPEC % ("uniform:0", "uniform:N", "need n >= 1")),
        ("kl-alphabets", kl("uniform:4", "uniform:8"), ALPHABETS),
        ("kl-alphabets-large", kl(LARGE, "uniform:16777215"), ALPHABETS),
        ("kl-alphabets-f", kl("counts:1,1", "counts:1,1,2", f=2.0), ALPHABETS),
        ("kl-alphabets-exact-f", kl("counts:1,1", "counts:1,1,2"), ALPHABETS),
        ("plugin-alphabets-large", plugin("kl", 10, LARGE, dist_q="uniform:16777215"), ALPHABETS)),
    json_file("json-sum-is-not-s", '{"S": 4, "counts": [1, 1, 1]}',
              "sum(counts) != S: counts sum to 3, denominator is 4"),
    json_file("json-s-a-float", '{"S": 4.0, "counts": [1, 3]}',
              "denominator must be an integer, got 4.0"),
    json_file("json-count-a-bool", '{"S": 2, "counts": [true, 1]}',
              BAD_COUNTS % "a count of type bool"),
    json_file("json-not-an-object", "[]", NOT_AN_OBJECT),
    json_file("json-counts-not-a-list", '{"S": 1, "counts": 1}',
              "counts must be a list of integers"),
    json_file("json-no-bin", '{"S": 1, "counts": []}', "need at least one bin"),
    json_file("json-negative-count", '{"S": 4, "counts": [5, -1]}', OUTSIDE),
    json_file("json-s-0", '{"S": 0, "counts": []}',
              "denominator must be a positive integer below 2**63, got 0"),
    json_file("json-without-counts", '{"S": 4}', NOT_AN_OBJECT),
    # "extra" is read by nothing, and no error names it
    json_file("json-sum-is-not-s-with-an-extra-key", '{"S": 4, "counts": [1, 1], "extra": 0}',
              "sum(counts) != S: counts sum to 2, denominator is 4"),
    *rows(
        "plan",
        ("shannon-budget-2^28", shannon("uniform:64", eps=1e-7), BUDGET % "2^28"),
        ("shannon-budget-large", shannon(LARGE, eps=1e-7), BUDGET % "2^37"),
        ("shannon-budget-2^335", shannon("uniform:4", eps=1e-100), BUDGET % "2^335"),
        ("shannon-budget-2^43", shannon(eps=1e-12), BUDGET % "2^43"),
        ("kl-f-budget-inf", kl("uniform:4", "uniform:4", f=1e308), BUDGET % "inf"),
        ("kl-f-budget-inf-eps-0.01", kl("uniform:16", "uniform:16", f=1e308, eps=0.01),
         BUDGET % "inf"),
        # p_i > f * q_i at symbol 1, and it loses
        ("kl-f-budget-M-p", kl("counts:3,1", "counts:1,3", f=2.0, eps=1e-7), BUDGET % "2^25"),
        ("kl-f-budget-M-q", kl("zipf:1.5:64", "uniform:64", f=1e6, eps=0.01), BUDGET % "2^31"),
        ("kl-f-0.5", kl("uniform:4", "uniform:4", f=0.5), F_BELOW_1 % 0.5),
        ("kl-f-0", kl("uniform:4", "uniform:4", f=0), F_BELOW_1 % 0.0),
        ("kl-f--3", kl("uniform:4", "uniform:4", f=-3), F_BELOW_1 % -3.0),
        ("renyi-alpha-negative", renyi(-1.0), "alpha must be non-negative"),
        ("renyi-order-0", renyi(0), ORDER_0),
        ("renyi-order-0-large", renyi(0, LARGE), ORDER_0),
        ("renyi-1-budget", renyi(1, "uniform:4", eps=1e-100), BUDGET % "2^335"),
        ("renyi-1-budget-large", renyi(1, LARGE, eps=1e-7), BUDGET % "2^37"),
        ("renyi-annealed-n-0.5", renyi(0.5, "uniform:2"),
         "need n >= 3 so the annealing ratio is meaningful"),
        ("renyi-annealed-n-1.5", renyi(1.5, "uniform:2"),
         "need n >= 3 so the annealing ratio is meaningful"),
        ("renyi-annealed-budget", renyi(2.5, "uniform:4", eps=1e-100), BUDGET % "2^343"),
        ("renyi-annealed-budget-large", renyi(1.5, LARGE, eps=0.01), BUDGET % "2^24"),
        ("renyi-exact-budget", renyi(0.5, "uniform:4", eps=1e-100, mode=EXACT), BUDGET % "2^344"),
        ("renyi-exact-budget-large", renyi(0.75, LARGE, eps=1e-4, mode=EXACT), BUDGET % "2^35"),
        ("renyi-tiny-order", renyi(0.001, mode=EXACT), BUDGET % "inf"),
        ("renyi-1.5-contract-budget-zipf-64", renyi(1.5, "zipf:1.5:64", eps=1e-4, mode="contract"),
         BUDGET % "2^21"),
        ("renyi-1.5-exact-expectation-budget-zipf-64",
         renyi(1.5, "zipf:1.5:64", eps=1e-4, mode=EXACT), BUDGET % "2^21"),
        ("renyi-0.75-contract-budget-zipf-64",
         renyi(0.75, "zipf:1.5:64", eps=1e-4, mode="contract"), BUDGET % "2^22"),
        ("renyi-0.75-exact-expectation-budget-zipf-64",
         renyi(0.75, "zipf:1.5:64", eps=1e-4, mode=EXACT), BUDGET % "2^22"),
        ("shannon-eps-1e-150", shannon("zipf:1.5:16", eps=1e-150), BUDGET % "2^502"),
        ("kl-eps-1e-150", kl("zipf:1.5:16", "uniform:16", eps=1e-150), BUDGET % "2^502"),
        ("coverage-eps-1e-150", cell("coverage", "zipf:1.5:16", n_samples=10, eps=1e-150),
         BUDGET % "2^252"),
        ("minentropy-eps-1e-150", cell("minentropy", "zipf:1.5:16", eps=1e-150),
         INTENSITY % (1e-150, 16, "1505.2")),
        ("renyi-0.5-eps-1e-150", renyi(0.5, "zipf:1.5:16", eps=1e-150), BUDGET % "2^512"),
        ("renyi-2.5-eps-1e-150", renyi(2.5, "zipf:1.5:16", eps=1e-150), BUDGET % "2^510"),
        ("renyi-3-eps-1e-150", renyi(3, "zipf:1.5:16", eps=1e-150),
         ROUNDS % (1e-150, 3, "8e+300")),
        ("renyi-integer-rounds", renyi(3, "uniform:4", eps=1e-6), ROUNDS % (1e-6, 3, "8e+12")),
        ("renyi-integer-rounds-alpha-2", renyi(2, eps=1e-150), ROUNDS % (1e-150, 2, "8e+300")),
        ("renyi-integer-rounds-large", renyi(3, LARGE, eps=1e-7), ROUNDS % (1e-7, 3, "8e+14")),
        ("renyi-120-digits", renyi(120, "uniform:4"), DIGITS % "120"),
        ("renyi-200-digits", renyi(200, "uniform:4"), DIGITS % "200"),
        ("renyi-3000-digits", renyi(3000, "uniform:4"), DIGITS % "3000"),
        ("renyi-1000000-digits", renyi(1000000, "uniform:4"), DIGITS % "1000000"),
        ("renyi-1e300-digits", renyi(1e300), DIGITS % "1e+300"),
        ("renyi-2-exact", renyi(2, mode=EXACT), NO_LAW % "the integer-order collision estimator"),
        ("renyi-2-exact-large", renyi(2, LARGE, mode=EXACT),
         NO_LAW % "the integer-order collision estimator"),
        ("renyi-3-exact", renyi(3, mode=EXACT), NO_LAW % "the integer-order collision estimator"),
        ("renyi-inf-exact", renyi(math.inf, mode=EXACT), NO_LAW % "the min-entropy estimator"),
        ("minentropy-exact", cell("minentropy", "uniform:16", mode=EXACT),
         NO_LAW % "the min-entropy estimator"),
        ("minentropy-exact-large", cell("minentropy", LARGE, mode=EXACT),
         NO_LAW % "the min-entropy estimator"),
        ("plugin-exact", plugin("shannon", 8, "uniform:16", mode=EXACT),
         NO_LAW % "the plug-in estimator"),
        ("minentropy-n", cell("minentropy", "point:1"), "need n >= 2"),
        ("minentropy-eps-1e-07", cell("minentropy", "uniform:16", eps=1e-7),
         INTENSITY % (1e-7, 16, "80.1")),
        ("minentropy-eps-1e-12", cell("minentropy", "uniform:16", eps=1e-12),
         INTENSITY % (1e-12, 16, "130.0")),
        ("minentropy-eps-0.001", cell("minentropy", "uniform:16", eps=0.001),
         INTENSITY % (0.001, 16, "40.3")),
        ("minentropy-eps-0.005", cell("minentropy", "uniform:1048576", eps=0.005),
         INTENSITY % (0.005, 1048576, "51.7")),
        ("minentropy-eps-0.02", cell("minentropy", LARGE, eps=0.02),
         INTENSITY % (0.02, 16777216, "50.0")),
        ("coverage-n-samples-0", cell("coverage", "uniform:4", n_samples=0),
         "n_samples must be positive, got 0"),
        ("coverage-n-samples-negative", cell("coverage", "uniform:4", n_samples=-5),
         "n_samples must be positive, got -5"),
        ("coverage-n-samples-0-large", cell("coverage", LARGE, n_samples=0),
         "n_samples must be positive, got 0"),
        ("plugin-n-samples-0", plugin("shannon", 0), "n_samples must be positive, got 0"),
        ("coverage-budget", cell("coverage", "uniform:4", n_samples=5, eps=1e-100),
         BUDGET % "2^169"),
        ("coverage-budget-2^40-samples", cell("coverage", LARGE, n_samples=2 ** 40),
         BUDGET % "2^22"),
        ("coverage-budget-eps-1e-20", cell("coverage", "uniform:16", n_samples=16, eps=1e-20),
         BUDGET % "2^37"),
        ("coverage-group-size", cell("coverage", "uniform:4", n_samples=1, eps=1e-9),
         GROUP % ("2e+19", "2e+09")),
        ("support-m-0", cell("support", "uniform:4", m=0), "m must be positive"),
        ("support-eps-2", cell("support", "uniform:4", m=4, eps=2),
         "epsilon must be below 2 for the reduction to make sense"),
        ("support-eps-below-floor", cell("support", "uniform:16", m=16, eps=1e-149),
         "epsilon must be at least 6.791202259091746e-148 for support size, got 1e-149: its "
         "coverage epsilon eps/(2 ln(2/eps)) must be at least 1e-150"),
        ("support-budget-at-floor", cell("support", "uniform:16", m=16, eps=6.791202259091746e-148),
         BUDGET % "2^257"),
        ("support-budget", cell("support", "uniform:4", m=4, eps=1e-100), BUDGET % "2^177"),
        # 0 < p_i < 1/m fails at symbol 1, and loses
        ("support-budget-promise", cell("support", "uniform:16", m=4, eps=1e-12), BUDGET % "2^28"),
        ("support-budget-eps-1e-30", cell("support", "uniform:16", m=16, eps=1e-30),
         BUDGET % "2^60"),
        ("support-group-size", cell("support", "point:4", m=1, eps=1e-8),
         GROUP % ("2.92e+20", "7.65e+09")),
        ("plugin-n-samples-10^18", plugin("shannon", 10 ** 18, "uniform:16"),
         PLUGIN_CEILING % 10 ** 18),
        ("plugin-n-samples-10^13-large", plugin("shannon", 10 ** 13, LARGE),
         PLUGIN_CEILING % 10 ** 13)),
    *rows(
        "build",
        ("kl-unbounded", kl("uniform:4", "point:4"), UNBOUNDED),
        ("kl-above-f", kl("point:4", "uniform:4", f=2), ABOVE_F),
        ("kl-above-f-counts", kl("counts:3,1", "counts:1,3", f=2.0), ABOVE_F),
        ("plugin-kl-unbounded", plugin("kl", dist_q="point:4"), UNBOUNDED),
        ("support-promise", cell("support", "counts:15,1", m=4),
         "promise violated at symbol 2: 0 < p_i < 1/m"),
        ("plugin-measure-renyi-negative", plugin("renyi:-1"),
         "alpha must be non-negative, got alpha=-1.0"),
        ("plugin-measure-power-sum-0", plugin("power-sum:0"),
         "power sums are defined here for alpha > 0, got alpha=0.0"),
        ("exact-kl-undefined-uniform:4", exact("uniform:4", "kl", "--dist-q", "point:4"),
         UNDEFINED),
        ("exact-kl-undefined-counts:1,1", exact("counts:1,1", "kl", "--dist-q", "counts:2,0"),
         UNDEFINED),
        ("spec-two-valued:3:1:2:8", shannon("two-valued:3:1:2:8"),
         SPEC % ("two-valued:3:1:2:8", "two-valued:N:C:D:S", "S must be divisible by n")),
        ("spec-two-valued:4:3:1:8", shannon("two-valued:4:3:1:8"),
         SPEC % ("two-valued:4:3:1:8", "two-valued:N:C:D:S", "c must divide (n-c)*d")),
        ("spec-two-valued:4:2:5:8", shannon("two-valued:4:2:5:8"),
         SPEC % ("two-valued:4:2:5:8", "two-valued:N:C:D:S",
                 "d too large: light bins would go negative")),
        ("spec-two-valued:4:2:-1:8", shannon("two-valued:4:2:-1:8"),
         SPEC % ("two-valued:4:2:-1:8", "two-valued:N:C:D:S", "need d >= 0")),
        ("spec-hard-coverage:256:0.1:1", shannon("hard-coverage:256:0.1:1"),
         SPEC % ("hard-coverage:256:0.1:1", "hard-coverage:N:EPS:{1|2}",
                 "epsilon too large for this n: need ceil(6*n*eps) <= n/2")),
        ("spec-hard-shannon:4:0.5:1", shannon("hard-shannon:4:0.5:1"),
         SPEC % ("hard-shannon:4:0.5:1", "hard-shannon:N:EPS:{1|2}",
                 "epsilon too large for this n: need ceil(n*eps/ln2) <= n/2")),
        ("spec-hard-shannon:16:0.25:3", shannon("hard-shannon:16:0.25:3"),
         SPEC % ("hard-shannon:16:0.25:3", "hard-shannon:N:EPS:{1|2}",
                 "pair member must be 1 or 2")),
        ("spec-zipf:0:16", shannon("zipf:0:16"),
         SPEC % ("zipf:0:16", "zipf:S:N", "need s > 0 and n >= 1")),
        ("spec-lpairs:4:3", shannon("lpairs:4:3"),
         SPEC % ("lpairs:4:3", "lpairs:N:L", "need 2*l <= n")),
        ("spec-counts:-1,3", shannon("counts:-1,3"),
         SPEC % ("counts:-1,3", "counts:C1,C2,...", OUTSIDE)),
        ("exact-spec-counts:2^63,1", exact("counts:%d,1" % 2 ** 63, "shannon"),
         SPEC % ("counts:%d,1" % 2 ** 63, "counts:C1,C2,...", OUTSIDE)),
        ("exact-spec-uniform:1e3", exact("uniform:1e3", "shannon"),
         SPEC % ("uniform:1e3", "uniform:N", "'1e3' is not an integer")),
        ("exact-spec-zipf:abc:16", exact("zipf:abc:16", "shannon"),
         SPEC % ("zipf:abc:16", "zipf:S:N", "'abc' is not a finite number")),
        ("exact-spec-zipf:nan:16", exact("zipf:nan:16", "shannon"),
         SPEC % ("zipf:nan:16", "zipf:S:N", "'nan' is not a finite number")),
        ("exact-spec-two-valued:4:5:1:8", exact("two-valued:4:5:1:8", "shannon"),
         SPEC % ("two-valued:4:5:1:8", "two-valued:N:C:D:S", "need 1 <= c <= n")),
        ("exact-spec-two-valued:4:2:1:18446744073709551616",
         exact("two-valued:4:2:1:18446744073709551616", "shannon"),
         SPEC % ("two-valued:4:2:1:18446744073709551616", "two-valued:N:C:D:S",
                 "denominator must be a positive integer below 2**63, got 18446744073709551616")),
        ("exact-spec-hard-shannon:16:inf:1", exact("hard-shannon:16:inf:1", "shannon"),
         SPEC % ("hard-shannon:16:inf:1", "hard-shannon:N:EPS:{1|2}",
                 "'inf' is not a finite number")),
        ("exact-spec-counts:1,x", exact("counts:1,x", "shannon"),
         SPEC % ("counts:1,x", "counts:C1,C2,...",
                 "'1,x' is not a comma-separated list of integers")),
        ("exact-spec-uniform:0", exact("uniform:0", "shannon"),
         SPEC % ("uniform:0", "uniform:N", "need n >= 1")),
        ("exact-spec-point:-3", exact("point:-3", "shannon"),
         SPEC % ("point:-3", "point:N", "need n >= 1")),
        ("exact-spec-uniform:1000000000000", exact("uniform:1000000000000", "shannon"),
         SPEC % ("uniform:1000000000000", "uniform:N", SYMBOLS % "1000000000000")),
        ("exact-spec-point:16777217", exact("point:16777217", "shannon"),
         SPEC % ("point:16777217", "point:N", SYMBOLS % "16777217")),
        ("exact-spec-zipf:1.5:16777217", exact("zipf:1.5:16777217", "shannon"),
         SPEC % ("zipf:1.5:16777217", "zipf:S:N", SYMBOLS % "16777217")),
        ("exact-spec-two-valued:16777217:1:0:16777217",
         exact("two-valued:16777217:1:0:16777217", "shannon"),
         SPEC % ("two-valued:16777217:1:0:16777217", "two-valued:N:C:D:S",
                 SYMBOLS % "16777217")),
        ("exact-spec-lpairs:16777217:1", exact("lpairs:16777217:1", "shannon"),
         SPEC % ("lpairs:16777217:1", "lpairs:N:L", SYMBOLS % "16777217")),
        ("exact-spec-hard-shannon:16777217:0.1:1", exact("hard-shannon:16777217:0.1:1", "shannon"),
         SPEC % ("hard-shannon:16777217:0.1:1", "hard-shannon:N:EPS:{1|2}",
                 SYMBOLS % "16777217")),
        ("exact-spec-hard-coverage:16777217:0.01:2",
         exact("hard-coverage:16777217:0.01:2", "shannon"),
         SPEC % ("hard-coverage:16777217:0.01:2", "hard-coverage:N:EPS:{1|2}",
                 SYMBOLS % "16777217"))),
    exact_file("exact-json-floats", '{"S": 2.9, "counts": [1.5, 1.5]}',
               "denominator must be an integer, got 2.9"),
    exact_file("exact-json-float-S", '{"S": 2.0, "counts": [1, 1]}',
               "denominator must be an integer, got 2.0"),
    exact_file("exact-json-float-counts", '{"S": 2, "counts": [1.0, 1.0]}',
               BAD_COUNTS % "a count of type float"),
    exact_file("exact-json-bool-counts", '{"S": 2, "counts": [true, true]}',
               BAD_COUNTS % "a count of type bool"),
    exact_file("exact-json-bool-S", '{"S": true, "counts": [1]}',
               "denominator must be an integer, got True"),
    exact_file("exact-json-strings", '{"S": "3", "counts": ["1", "2"]}',
               "denominator must be an integer, got '3'"),
    exact_file("exact-json-string-count", '{"S": 3, "counts": [1, "2"]}',
               BAD_COUNTS % "a count of type str"),
]

# Refusals no row reaches, each with the reason
LIBRARY_ONLY = {
    **dict.fromkeys((
        "M must be a power of two, at least 2", "amplitude must lie in [0, 1]",
        "p_floor must lie in (0, 1]", "epsilon must be positive",
        "values must be a non-empty 1-D array", "values and probabilities must align",
        "values must be finite", "probabilities must be non-negative",
        "probabilities must be finite and sum to 1", "epsilon must be positive and finite",
        "sigma must be non-negative and finite", "sigma must be positive and finite",
        "need at least one repetition", "need mean bounds 0 < a <= b",
        "charges must be non-negative", "collisions need k >= 2", "k must be positive",
        "fail_prob must lie in (0, 1)", "variant must be 'estamp' or 'estamp-prime'",
        "symbol out of range", "counts must be a 1-D array, got %d dimensions",
    ), "an argument each caller computes in range, or a library call's"),
    **dict.fromkeys((
        "alpha must be positive, finite and != 1",
        "annealed power sums need a positive, finite, non-integer alpha",
        "integer power sums need integer alpha >= 2",
    ), "renyi_plan routes these orders elsewhere"),
    **dict.fromkeys((
        "annealed level alpha=%r: %s; variance_bound_exceeded=%s",
        "the bounded-l2 step asks for %d main-sample draws in one run (%d in all), more than "
        "int64 holds",
    ), "only a draw shows it"),
    "the plan is for n = %d symbols, but the distribution has n = %d":
        "plan_cell plans on the size it builds",
    "unknown instance family %r in spec %r": "a spec of no family is read as a missing file",
    "seed must be a non-negative integer, got %r":
        "a trial's seed: --seed and master_seed are refused first",
    "unknown suite %r (choose from %s, all)": "verify's choices refuse it first",
}
