"""Output checks of the dpg benchmark.

Every function here compares one output of the program against a value
the benchmark computed apart from the program (from the sequence it
generated), or against a property the method must have. Each returns a
list of error strings; an empty list means the output passed.
"""

import json
import math
import re
import sys

# The workspace's default package discount alpha (mcs_model::defaults);
# every command of the benchmark runs under the default cost model.
ALPHA = 0.8
EPS = sys.float_info.epsilon

SERVE_SUMMARY = re.compile(
    r"done: admitted=(\d+) stale=(\d+) rejected=(\d+) malformed=(\d+) replayed=(\d+)"
)
LEDGER_SUMMARY = re.compile(r"wrote \S+: (\d+) events, total (-?[0-9.]+) ")


def parse_run_json(stdout):
    """The JSON document `dpg run --json` prints, or None."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_run(doc, algo, accesses):
    """`dpg run --json`: the solver ran, on every access of the input."""
    if doc is None:
        return ["run output is not a JSON object"]
    errs = []
    if doc.get("algo") != algo:
        errs.append(f"algo {doc.get('algo')!r}, expected {algo!r}")
    if doc.get("total_accesses") != accesses:
        errs.append(
            f"{algo}: total_accesses {doc.get('total_accesses')} != generated {accesses}"
        )
    total = doc.get("total_cost")
    if not isinstance(total, (int, float)) or not math.isfinite(total) or total <= 0:
        errs.append(f"{algo}: total_cost {total!r} is not a positive number")
    elif accesses and not math.isclose(doc.get("ave_cost", -1), total / accesses, rel_tol=1e-12):
        errs.append(f"{algo}: ave_cost {doc.get('ave_cost')} != total/accesses")
    return errs


def ledger_sum(lines):
    """Re-sums a ledger's event costs in file order, with a reader of our
    own. Returns (events, total, sum of |cost|)."""
    events, total, mag = 0, 0.0, 0.0
    for line in lines:
        if not line.strip():
            continue
        cost = json.loads(line)["cost"]
        events += 1
        total += cost
        mag += abs(cost)
    return events, total, mag


def check_ledger(lines, stdout, reported_total):
    """`dpg trace solve`: the JSONL ledger re-sums to the solver's total.

    `reported_total` is the full-precision total of the same solve from
    `dpg run --json`. The tolerance is n*eps*sum|cost|, the rounding a
    sum of n floats can pick up; one mispriced event exceeds it.
    """
    m = LEDGER_SUMMARY.search(stdout)
    if m is None:
        return ["trace solve printed no ledger summary"]
    events, total, mag = ledger_sum(lines)
    errs = []
    if events != int(m.group(1)):
        errs.append(f"ledger has {events} lines, trace solve reported {m.group(1)}")
    tol = max(events, 1) * EPS * mag
    if abs(total - reported_total) > tol:
        errs.append(
            f"ledger re-sums to {total!r}, solver reported {reported_total!r} "
            f"(gap {abs(total - reported_total):.3e} > {tol:.3e})"
        )
    if abs(total - float(m.group(2))) > 0.5e-4 + tol:
        errs.append(f"ledger re-sums to {total!r}, trace solve printed {m.group(2)}")
    return errs


def check_bounds(costs, packing):
    """Theorem 1 and the baselines' definitions: optimal <= greedy, and
    alpha*optimal <= packing solver <= (2/alpha)*optimal. A solve that
    failed is already counted as a failed operation and bounds nothing."""
    errs = []
    opt = costs.get("optimal")
    if opt is None:
        return []
    if "greedy" in costs and not opt <= costs["greedy"]:
        errs.append(f"optimal {opt} > greedy {costs['greedy']}")
    for name in packing:
        if name not in costs:
            continue
        c = costs[name]
        if not ALPHA * opt <= c <= (2.0 / ALPHA) * opt:
            errs.append(f"{name} {c} outside [{ALPHA}*optimal, {2.0 / ALPHA}*optimal] = "
                        f"[{ALPHA * opt}, {2.0 / ALPHA * opt}]")
    return errs


def check_same_bits(a, b, what):
    """Two solves that must agree to the last bit."""
    if a is None or b is None:
        return [f"{what}: a cost is missing"]
    if float(a).hex() != float(b).hex():
        return [f"{what}: {a!r} != {b!r}"]
    return []


def parse_serve_summary(stdout):
    """The `serve: ... done:` line of a `dpg serve` run, as a dict."""
    m = SERVE_SUMMARY.search(stdout)
    if m is None:
        return None
    keys = ("admitted", "stale", "rejected", "malformed", "replayed")
    return dict(zip(keys, map(int, m.groups())))


def check_serve_summary(summary, admitted, replayed=0):
    """Admission accounting of one `dpg serve` run."""
    if summary is None:
        return ["serve printed no summary line"]
    want = {"admitted": admitted, "stale": 0, "rejected": 0, "malformed": 0,
            "replayed": replayed}
    return [f"serve {k}={summary[k]}, expected {v}" for k, v in want.items()
            if summary[k] != v]


def check_served_state(state, expect):
    """`dpg serve --dump-state` after the stream run.

    `expect` holds the values the benchmark recomputed in-process:
    requests, epochs, settled accesses, and the sum of the registry
    solver's cost on every epoch's slice, both with the slices' absolute
    request times (`cum_cost`, how the daemon prices epochs today) and
    with each slice's times rebased to its epoch's start
    (`cum_cost_rebased`). The daemon's cum_cost must equal one of the two
    to the last bit.
    """
    if not isinstance(state, dict):
        return ["dump-state is not a JSON object"]
    errs = []
    n, epochs = expect["requests"], expect["epochs"]
    checks = [
        ("admitted", state.get("admitted"), n),
        ("epoch", state.get("epoch"), epochs),
        ("pending", len(state.get("pending", [])), n - epochs * expect["epoch_len"]),
        ("degraded_epochs", state.get("degraded_epochs"), []),
        ("degraded_accesses", state.get("degraded_accesses"), 0),
        ("ok_accesses", state.get("ok_accesses"), expect["settled_accesses"]),
    ]
    errs += [f"state {k}={got!r}, expected {want!r}" for k, got, want in checks if got != want]
    got = state.get("cum_cost")
    if not isinstance(got, (int, float)) or not any(
            float(got).hex() == float(expect[k]).hex() for k in ("cum_cost", "cum_cost_rebased")):
        errs.append(f"daemon cum_cost {got!r} is neither the absolute-time sum "
                    f"{expect['cum_cost']!r} nor the rebased sum {expect['cum_cost_rebased']!r}")
    return errs


def check_recovered_state(text, first_text, requests):
    """A `--dump-state` restart over the filled directory: every record
    of the fill replayed into the open epoch. A later restart must print
    the same bytes as the first, which this function has validated."""
    if first_text is not None:
        return [] if text == first_text else ["recovered state differs between restarts"]
    try:
        state = json.loads(text)
    except ValueError:
        return ["recovered dump-state is not JSON"]
    errs = []
    if state.get("epoch") != 0 or state.get("admitted") != requests:
        errs.append(f"recovered epoch={state.get('epoch')} admitted={state.get('admitted')}, "
                    f"expected 0 and {requests}")
    if len(state.get("pending", [])) != requests:
        errs.append(f"recovered {len(state.get('pending', []))} pending requests, "
                    f"expected {requests} replayed")
    return errs
