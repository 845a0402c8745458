#include "obs/perfetto.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <utility>

#include "support/format.hh"

namespace mca::obs
{

namespace
{

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    const auto r = std::to_chars(buf, buf + sizeof buf, value);
    return r.ec == std::errc{} ? std::string(buf, r.ptr) : "0";
}

/** One instruction copy's lifetime inside one cluster. */
struct Slice
{
    InstSeq seq = 0;
    unsigned cluster = 0;
    Cycle begin = 0;
    Cycle end = 0;
    std::vector<std::uint32_t> recordIdx;
};

} // namespace

void
PerfettoExporter::ensureProcessNames(unsigned numClusters)
{
    for (unsigned c = namedClusters_; c < numClusters; ++c) {
        Event ev;
        ev.ph = 'M';
        ev.pid = c;
        ev.name = "process_name";
        ev.meta = "cluster " + std::to_string(c);
        events_.push_back(std::move(ev));
    }
    namedClusters_ = std::max(namedClusters_, numClusters);
}

void
PerfettoExporter::addTimeline(const core::TimelineRecorder &recorder,
                              unsigned numClusters)
{
    ensureProcessNames(numClusters);

    // Group the stream into per-(seq, cluster) slices. std::map keeps
    // the grouping deterministic across platforms.
    const auto &records = recorder.records();
    std::map<std::pair<InstSeq, unsigned>, Slice> slices;
    for (std::uint32_t i = 0; i < records.size(); ++i) {
        const auto &rec = records[i];
        auto [it, fresh] = slices.try_emplace({rec.seq, rec.cluster});
        Slice &s = it->second;
        if (fresh) {
            s.seq = rec.seq;
            s.cluster = rec.cluster;
            s.begin = rec.cycle;
            s.end = rec.cycle;
        } else {
            s.begin = std::min(s.begin, rec.cycle);
            s.end = std::max(s.end, rec.cycle);
        }
        s.recordIdx.push_back(i);
    }

    // Pack slices into per-cluster lanes so overlapping instructions
    // render on separate rows. Greedy: earliest-starting slice takes
    // the lowest lane that is already free.
    std::map<unsigned, std::vector<Slice>> byCluster;
    for (auto &[key, s] : slices)
        byCluster[key.second].push_back(std::move(s));

    for (auto &[cluster, list] : byCluster) {
        std::sort(list.begin(), list.end(),
                  [](const Slice &a, const Slice &b) {
                      return a.begin != b.begin ? a.begin < b.begin
                                                : a.seq < b.seq;
                  });
        std::vector<Cycle> laneFreeAt; // one past the lane's last cycle
        for (const Slice &s : list) {
            unsigned lane = 0;
            while (lane < laneFreeAt.size() && laneFreeAt[lane] > s.begin)
                ++lane;
            if (lane == laneFreeAt.size())
                laneFreeAt.push_back(0);
            laneFreeAt[lane] = s.end + 1;

            Event slice;
            slice.name = "inst " + std::to_string(s.seq);
            slice.ph = 'X';
            slice.ts = s.begin;
            slice.dur = s.end - s.begin + 1;
            slice.pid = s.cluster;
            slice.tid = lane + 1; // tid 0 is the counter track
            events_.push_back(std::move(slice));

            for (const std::uint32_t idx : s.recordIdx) {
                const auto &rec = records[idx];
                Event inst;
                inst.name = timelineEventName(rec.event) + " #" +
                            std::to_string(rec.seq);
                inst.ph = 'i';
                inst.ts = rec.cycle;
                inst.pid = s.cluster;
                inst.tid = lane + 1;
                events_.push_back(std::move(inst));
            }
        }
    }
}

void
PerfettoExporter::addCounters(const CycleObs &obs)
{
    ensureProcessNames(static_cast<unsigned>(obs.clusters.size()));
    for (unsigned c = 0; c < obs.clusters.size(); ++c) {
        const ClusterObs &cl = obs.clusters[c];
        const struct
        {
            const char *name;
            unsigned value;
        } counters[] = {
            {"dispatch queue", cl.queueOcc},
            {"operand buffer", cl.otbInUse},
            {"result buffer", cl.rtbInUse},
        };
        for (const auto &ctr : counters) {
            Event ev;
            ev.name = ctr.name;
            ev.ph = 'C';
            ev.ts = obs.cycle;
            ev.pid = c;
            ev.tid = 0;
            ev.value = ctr.value;
            events_.push_back(std::move(ev));
        }
    }

    // Memory hierarchy: in-flight fills per level, on a dedicated
    // process track after the clusters.
    const unsigned mem_pid = static_cast<unsigned>(obs.clusters.size());
    if (!namedMemory_) {
        Event ev;
        ev.ph = 'M';
        ev.pid = mem_pid;
        ev.name = "process_name";
        ev.meta = "memory system";
        events_.push_back(std::move(ev));
        namedMemory_ = true;
    }
    const struct
    {
        const char *name;
        unsigned value;
        bool enabled;
    } levels[] = {
        {"L1I in-flight fills", obs.l1iInFlight, true},
        {"L1D in-flight fills", obs.l1dInFlight, true},
        {"L2 in-flight fills", obs.l2InFlight, obs.hasL2},
        {"memory in-flight reads", obs.memInFlight, true},
    };
    for (const auto &lvl : levels) {
        if (!lvl.enabled)
            continue;
        Event ev;
        ev.name = lvl.name;
        ev.ph = 'C';
        ev.ts = obs.cycle;
        ev.pid = mem_pid;
        ev.tid = 0;
        ev.value = lvl.value;
        events_.push_back(std::move(ev));
    }
}

void
PerfettoExporter::nameProcess(unsigned pid, const std::string &name)
{
    Event ev;
    ev.ph = 'M';
    ev.pid = pid;
    ev.name = "process_name";
    ev.meta = name;
    events_.push_back(std::move(ev));
}

void
PerfettoExporter::addSlice(const std::string &name, unsigned pid,
                           unsigned tid, Cycle ts, Cycle dur)
{
    Event ev;
    ev.name = name;
    ev.ph = 'X';
    ev.ts = ts;
    ev.dur = dur;
    ev.pid = pid;
    ev.tid = tid;
    events_.push_back(std::move(ev));
}

void
PerfettoExporter::addCounterValue(const std::string &name, unsigned pid,
                                  Cycle ts, double value)
{
    Event ev;
    ev.name = name;
    ev.ph = 'C';
    ev.ts = ts;
    ev.pid = pid;
    ev.tid = 0;
    ev.value = value;
    events_.push_back(std::move(ev));
}

namespace
{

/** Flame-graph layout: a node spans [start, start+total), children
 *  pack sequentially from its start; the tail gap is the self time.
 *  Offsets stay in ns until emission so rounding never accumulates. */
void
emitProfileNode(PerfettoExporter &ex, const prof::ProfileNode &node,
                std::uint64_t start_ns, unsigned pid)
{
    ex.addSlice(node.name, pid, 1, start_ns / 1000,
                std::max<Cycle>(node.totalNs / 1000, 1));
    std::uint64_t off = start_ns;
    for (const auto &child : node.children) {
        emitProfileNode(ex, child, off, pid);
        off += child.totalNs;
    }
}

} // namespace

void
PerfettoExporter::addHostProfile(const prof::ProfileNode &root,
                                 unsigned pid)
{
    nameProcess(pid, "host profile");
    emitProfileNode(*this, root, 0, pid);
}

std::vector<PerfettoExporter::Event>
PerfettoExporter::sortedEvents() const
{
    std::vector<Event> sorted = events_;
    // Metadata first, then globally by timestamp. Stable, so events at
    // the same cycle keep insertion order (counters stay per-cycle
    // grouped). A globally sorted stream makes every (pid, tid) track
    // monotonically non-decreasing in ts.
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Event &a, const Event &b) {
                         if ((a.ph == 'M') != (b.ph == 'M'))
                             return a.ph == 'M';
                         return a.ts < b.ts;
                     });
    return sorted;
}

void
PerfettoExporter::write(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const Event &ev : sortedEvents()) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"ph\":\""
           << ev.ph << "\",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
        switch (ev.ph) {
        case 'M':
            os << ",\"args\":{\"name\":\"" << jsonEscape(ev.meta)
               << "\"}";
            break;
        case 'X':
            os << ",\"ts\":" << ev.ts << ",\"dur\":" << ev.dur
               << ",\"args\":{}";
            break;
        case 'C':
            os << ",\"ts\":" << ev.ts << ",\"args\":{\"value\":"
               << jsonNumber(ev.value) << "}";
            break;
        default: // 'i'
            os << ",\"ts\":" << ev.ts << ",\"s\":\"t\",\"args\":{}";
            break;
        }
        os << "}";
    }
    os << "\n]}\n";
}

} // namespace mca::obs
