#include "prof/prof.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "prof/hwcounters.hh"
#include "support/format.hh"
#include "support/panic.hh"

namespace mca::prof
{

namespace
{

/** Hardware counters are sampled only this deep (root children = 1). */
constexpr std::uint32_t kHwMaxDepth = 2;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
}

/** Region-name intern table. Index 0 is reserved for the merge root. */
struct InternTable {
    std::mutex mutex;
    std::vector<std::string> names{"total"};
    std::unordered_map<std::string, RegionId> ids{{"total", 0}};
};

InternTable &
internTable()
{
    static InternTable table;
    return table;
}

std::atomic<bool> g_hwRequested{false};
std::atomic<bool> g_hwAvailable{false};
std::atomic<std::uint64_t> g_enableT0{0};

} // namespace

namespace detail
{

std::atomic<bool> enabledFlag{false};

struct ThreadData {
    struct Node {
        RegionId region = 0;
        std::uint32_t parent = 0;
        std::uint32_t depth = 0;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
        std::uint64_t hw[4] = {0, 0, 0, 0};
        bool hwValid = false;
        /** While the region is open: its entry time and, when
         *  hwOpen, the counters read at entry. */
        std::uint64_t t0 = 0;
        std::uint64_t hw0[4] = {0, 0, 0, 0};
        bool hwOpen = false;
        /** Small linear child map: (region, node index). */
        std::vector<std::pair<RegionId, std::uint32_t>> children;
    };

    std::vector<Node> nodes;
    std::uint32_t current = 0;
    HwGroup hwGroup;
    bool hwTried = false;

    ThreadData()
    {
        nodes.reserve(64);
        nodes.emplace_back(); // root
    }

    std::uint32_t
    enter(RegionId region)
    {
        for (const auto &[r, idx] : nodes[current].children) {
            if (r == region) {
                current = idx;
                return idx;
            }
        }
        const std::uint32_t parent = current;
        const auto idx = static_cast<std::uint32_t>(nodes.size());
        Node child;
        child.region = region;
        child.parent = parent;
        child.depth = nodes[parent].depth + 1;
        nodes.push_back(std::move(child));
        nodes[parent].children.emplace_back(region, idx);
        current = idx;
        return idx;
    }

    void
    clear()
    {
        nodes.clear();
        nodes.emplace_back();
        current = 0;
    }
};

namespace
{

struct Registry {
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadData>> threads;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

ThreadData &
threadData()
{
    thread_local std::shared_ptr<ThreadData> data = [] {
        auto p = std::make_shared<ThreadData>();
        auto &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.threads.push_back(p);
        return p;
    }();
    return *data;
}

} // namespace detail

RegionId
internRegion(std::string_view name)
{
    auto &table = internTable();
    std::lock_guard<std::mutex> lock(table.mutex);
    std::string key(name);
    const auto it = table.ids.find(key);
    if (it != table.ids.end())
        return it->second;
    const auto id = static_cast<RegionId>(table.names.size());
    table.names.push_back(key);
    table.ids.emplace(std::move(key), id);
    return id;
}

const std::string &
regionName(RegionId id)
{
    auto &table = internTable();
    std::lock_guard<std::mutex> lock(table.mutex);
    MCA_ASSERT(id < table.names.size(), "bad region id ", id);
    return table.names[id];
}

void
setEnabled(bool on)
{
    if (on)
        g_enableT0.store(nowNs(), std::memory_order_relaxed);
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

void
setHwEnabled(bool on)
{
    g_hwRequested.store(on, std::memory_order_relaxed);
}

bool
hwRequested()
{
    return g_hwRequested.load(std::memory_order_relaxed);
}

bool
hwAvailable()
{
    return g_hwAvailable.load(std::memory_order_relaxed);
}

detail::ThreadData *
ScopeTimer::begin(RegionId region)
{
    const std::uint64_t t0 = nowNs(); // first: our overhead lands in us
    auto &td = detail::threadData();
    auto &node = td.nodes[td.enter(region)];
    node.t0 = t0;
    node.hwOpen = false;

    if (g_hwRequested.load(std::memory_order_relaxed) &&
        node.depth <= kHwMaxDepth) {
        if (!td.hwTried) {
            td.hwTried = true;
            if (td.hwGroup.open())
                g_hwAvailable.store(true, std::memory_order_relaxed);
        }
        if (td.hwGroup.usable())
            node.hwOpen = td.hwGroup.read(node.hw0);
    }
    return &td;
}

void
ScopeTimer::end(detail::ThreadData &td)
{
    auto &node = td.nodes[td.current];

    if (node.hwOpen) {
        std::uint64_t hw1[4];
        if (td.hwGroup.read(hw1)) {
            for (int i = 0; i < 4; ++i)
                node.hw[i] += hw1[i] - node.hw0[i];
            node.hwValid = true;
        }
        node.hwOpen = false;
    }

    const std::uint64_t t1 = nowNs(); // last: our overhead lands in us
    node.ns += t1 - node.t0;
    node.calls += 1;
    td.current = node.parent;
}

namespace
{

ProfileNode &
findOrAddChild(ProfileNode &parent, const std::string &name)
{
    for (auto &child : parent.children)
        if (child.name == name)
            return child;
    parent.children.emplace_back();
    parent.children.back().name = name;
    return parent.children.back();
}

void
mergeThreadNode(ProfileNode &dst, const detail::ThreadData &td,
                std::uint32_t srcIdx)
{
    const auto &src = td.nodes[srcIdx];
    dst.calls += src.calls;
    dst.totalNs += src.ns;
    if (src.hwValid) {
        dst.hw.cycles += src.hw[0];
        dst.hw.instructions += src.hw[1];
        dst.hw.cacheMisses += src.hw[2];
        dst.hw.branchMisses += src.hw[3];
        dst.hw.valid = true;
    }
    for (const auto &[region, childIdx] : src.children)
        mergeThreadNode(findOrAddChild(dst, regionName(region)), td,
                        childIdx);
}

void
finalize(ProfileNode &node)
{
    std::sort(node.children.begin(), node.children.end(),
              [](const ProfileNode &a, const ProfileNode &b) {
                  return a.name < b.name;
              });
    node.childNs = 0;
    for (auto &child : node.children) {
        finalize(child);
        node.childNs += child.totalNs;
    }
}

} // namespace

const ProfileNode *
ProfileNode::child(std::string_view name) const
{
    for (const auto &c : children)
        if (c.name == name)
            return &c;
    return nullptr;
}

const ProfileNode *
ProfileNode::find(std::initializer_list<std::string_view> path) const
{
    const ProfileNode *node = this;
    for (const auto name : path) {
        node = node->child(name);
        if (!node)
            return nullptr;
    }
    return node;
}

Profile
snapshot()
{
    Profile out;
    out.root.name = "total";
    out.hwAvailable = hwAvailable();

    auto &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &td : reg.threads) {
        if (td->nodes.size() <= 1 && td->nodes[0].children.empty())
            continue;
        ++out.threads;
        mergeThreadNode(out.root, *td, 0);
    }
    // The per-thread root never exits a scope, so its own ns/calls are
    // zero; the merged root's total is the sum of its children.
    finalize(out.root);
    out.root.totalNs = out.root.childNs;
    out.root.calls = 0;

    const std::uint64_t t0 = g_enableT0.load(std::memory_order_relaxed);
    out.wallNs = t0 ? nowNs() - t0 : 0;
    return out;
}

void
reset()
{
    auto &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &td : reg.threads)
        td->clear();
    if (enabled())
        g_enableT0.store(nowNs(), std::memory_order_relaxed);
}

namespace
{

void
dumpNode(std::ostream &os, const ProfileNode &node, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    os << pad << "{\"name\": \"" << jsonEscape(node.name)
       << "\", \"calls\": " << node.calls
       << ", \"total_ns\": " << node.totalNs
       << ", \"self_ns\": " << node.selfNs();
    if (node.hw.valid) {
        os << ", \"hw\": {\"cycles\": " << node.hw.cycles
           << ", \"instructions\": " << node.hw.instructions
           << ", \"cache_misses\": " << node.hw.cacheMisses
           << ", \"branch_misses\": " << node.hw.branchMisses << "}";
    }
    if (!node.children.empty()) {
        os << ", \"children\": [\n";
        for (std::size_t i = 0; i < node.children.size(); ++i) {
            dumpNode(os, node.children[i], indent + 1);
            os << (i + 1 < node.children.size() ? ",\n" : "\n");
        }
        os << pad << "]";
    }
    os << "}";
}

} // namespace

void
Profile::dumpJson(std::ostream &os) const
{
    os << "{\n"
       << "  \"version\": 1,\n"
       << "  \"wall_ns\": " << wallNs << ",\n"
       << "  \"hw_available\": " << (hwAvailable ? "true" : "false")
       << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"root\":\n";
    dumpNode(os, root, 1);
    os << "\n}\n";
}

std::string
Profile::jsonString() const
{
    std::ostringstream oss;
    dumpJson(oss);
    return oss.str();
}

} // namespace mca::prof
