/**
 * @file
 * Self-test of the benchmark's own arithmetic and invariants (ctest
 * target mcabench_selftest): span self time, quartiles, digests, and
 * that untraced, traced and profiled trials of shrunken versions of
 * every workload agree on their digest and break no check.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hh"
#include "prof/prof.hh"
#include "runner/table2.hh"

namespace
{

using namespace mcabench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testSelfTimes()
{
    // root [0,100] holds A [10,40] (which holds A1 [15,20]), B [30,60]
    // overlapping A, and C [90,120] sticking out of root.
    const std::vector<Span> spans = {
        {"root", "", 0, 100, -1, 0}, {"A", "", 10, 40, 0, 0},
        {"A1", "", 15, 20, 1, 0},    {"B", "", 30, 60, 0, 0},
        {"C", "", 90, 120, 0, 0},
    };
    const std::vector<std::uint64_t> self = selfTimes(spans);
    check(self[0] == 40, "root self = 100 - |[10,60] u [90,100]|");
    check(self[1] == 25, "A self = 30 - A1's 5");
    check(self[2] == 5 && self[3] == 30 && self[4] == 30,
          "leaf self = duration");

    Tracer tracer;
    {
        Tracer::Scope outer(tracer, "outer");
        Tracer::Scope inner(tracer, "inner");
    }
    {
        Tracer::Scope again(tracer, "inner");
    }
    const auto &s = tracer.spans();
    check(s.size() == 3 && s[0].parent == -1 && s[1].parent == 0 &&
              s[2].parent == -1,
          "tracer records nesting");
    const auto byName = tracer.selfNsByName();
    check(byName.at("outer") ==
              (s[0].endNs - s[0].startNs) - (s[1].endNs - s[1].startNs),
          "tracer self time excludes the child");
    check(byName.at("inner") == (s[1].endNs - s[1].startNs) +
                                    (s[2].endNs - s[2].startNs),
          "tracer sums self time by name");
}

void
testQuartiles()
{
    // Reference values: Python statistics.quantiles(data, n=4).
    const Quartiles a = quartiles({1, 2, 3, 4, 5});
    check(near(a.q1, 1.5) && near(a.median, 3.0) && near(a.q3, 4.5),
          "quartiles of 1..5 = 1.5, 3, 4.5");
    const Quartiles b = quartiles({4, 1, 3, 2});
    check(near(b.q1, 1.25) && near(b.median, 2.5) && near(b.q3, 3.75),
          "quartiles of 1..4 (unsorted) = 1.25, 2.5, 3.75");
    const Quartiles c = quartiles({1, 2});
    check(near(c.q1, 0.75) && near(c.median, 1.5) && near(c.q3, 2.25),
          "quartiles of 1, 2 = 0.75, 1.5, 2.25");
    const Quartiles d = quartiles({7});
    check(d.q1 == 7 && d.median == 7 && d.q3 == 7 && d.n == 1,
          "one value is its own quartiles");
}

void
testDigestAndOutcome()
{
    Digest x, y;
    x.add(std::string_view("ab"));
    x.add(std::string_view("c"));
    y.add(std::string_view("a"));
    y.add(std::string_view("bc"));
    check(x.hex() != y.hex() && x.hex().size() == 16,
          "digest fields are length-prefixed");

    Outcome o;
    o.add(3);
    o.fail(1, "first");
    o.fail(1, "second");
    check(o.ops() == 3 && o.wrong() == 1 && o.failures().size() == 2,
          "an operation counts wrong once");
    o.failAll("all");
    check(o.wrong() == 3, "failAll marks every operation");
}

/** Every workload, shrunk to a second or less. */
Workload
shrunk(const std::string &name)
{
    Workload w = makeWorkload(name, 7);
    switch (w.kind) {
    case Kind::Table2:
        w.table2.workload.scale = 0.2;
        w.table2.maxInsts = 20'000;
        w.points = mca::runner::table2Jobs(w.table2);
        break;
    case Kind::Sweep:
        std::erase_if(w.points, [](const mca::runner::JobSpec &p) {
            return p.memLat != 16 ||
                   (p.benchmark != "compress" && p.benchmark != "gcc1");
        });
        w.expectCompiles = 18; // 2 benchmarks x 3 schedulers x 3 shapes
        break;
    case Kind::Detail:
        for (auto &p : w.points) {
            p.scale = 0.2;
            p.maxInsts = 20'000;
        }
        break;
    case Kind::Sampled:
        for (auto &p : w.points) {
            p.scale = 1.0;
            p.maxInsts = 60'000;
            p.samplePeriod = 20'000;
            p.sampleDetail = 2'000;
            p.sampleWarmup = 500;
        }
        break;
    }
    return w;
}

void
testWorkload(const std::string &name)
{
    const std::string dir = "selftest-work/" + name;
    const Workload w = shrunk(name);
    const Compiled c = setUp(w);

    const TrialResult first = runTrial(w, c, dir);
    const TrialResult second = runTrial(w, c, dir);
    const std::string digest = digestOf(first.records);
    check(first.outcome.ops() > 0 && first.outcome.wrong() == 0 &&
              second.outcome.wrong() == 0,
          name + ": trials pass every check");
    check(digestOf(second.records) == digest,
          name + ": digest stable across two in-process trials");

    Tracer tracer;
    const Ledger ledger = runLedger(w, tracer, dir);
    check(ledger.outcome.wrong() == 0, name + ": ledger passes every check");
    check(digestOf(ledger.records) == digest,
          name + ": traced digest = untraced digest");

    mca::prof::reset();
    mca::prof::setEnabled(true);
    const TrialResult profiled = runTrial(w, c, dir);
    mca::prof::setEnabled(false);
    const auto stages = profStages(mca::prof::snapshot());
    mca::prof::reset();
    check(digestOf(profiled.records) == digest,
          name + ": profiled digest = untraced digest");

    bool finite = true;
    bool withinWall = true;
    for (const auto &[metric, v] : ledger.metrics) {
        finite = finite && std::isfinite(v);
        if (metric.ends_with("_ms"))
            withinWall = withinWall && v >= 0.0 && v <= 1e3 * ledger.wallS;
    }
    check(ledger.metrics.size() + stages.size() == 47 && finite,
          name + ": 47 finite per-layer metrics");
    check(withinWall, name + ": every _ms metric within the ledger's wall");
    check(stages.at("core.stage.begin_ns_per_cycle") > 0.0,
          name + ": profiler saw the cycle kernel");
}

} // namespace

int
main()
{
    testSelfTimes();
    testQuartiles();
    testDigestAndOutcome();
    for (const std::string &name : workloadNames())
        testWorkload(name);
    std::cout << (failures ? "FAILED" : "PASSED") << " (" << failures
              << " failures)\n";
    return failures ? 1 : 0;
}
