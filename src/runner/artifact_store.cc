#include "runner/artifact_store.hh"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <thread>
#include <type_traits>

#include "prof/prof.hh"
#include "support/panic.hh"

namespace mca::runner
{

namespace
{

// v7: every line after the key, and every name in the key, comes from
// the record's field list (jobspec.hh forEachField), spelled as in the
// JSONL. v6 and older entries fail the version check and read as
// cold; a rerun overwrites them in place.
constexpr int kFormatVersion = 7;

/** Read one stored value back into `value`: true only if `text` is a
 *  whole value of the field's type, as fieldText() writes it. */
template <class T>
bool
parseField(const std::string &text, T &value)
{
    if constexpr (std::is_same_v<T, std::string>) {
        value = text;
        return true;
    } else if constexpr (std::is_same_v<T, JobStatus>) {
        for (const JobStatus status :
             {JobStatus::Ok, JobStatus::TimedOut, JobStatus::Failed})
            if (text == jobStatusName(status)) {
                value = status;
                return true;
            }
        return false;
    } else if constexpr (std::is_same_v<T, bool>) {
        value = text == "true";
        return value || text == "false";
    } else {
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        return ec == std::errc{} && ptr == end;
    }
}

} // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ArtifactStore::resultPath(const JobSpec &spec) const
{
    return dir_ + "/" + spec.contentHash() + ".result";
}

std::optional<JobResult>
ArtifactStore::loadResult(const JobSpec &spec) const
{
    if (!persistent())
        return std::nullopt;
    std::ifstream in(resultPath(spec));
    if (!in)
        return std::nullopt;

    std::map<std::string, std::string, std::less<>> fields;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        fields[line.substr(0, tab)] = line.substr(tab + 1);
    }

    // Reject stale formats, foreign payload types, and (theoretical)
    // hash collisions: the artifact must carry the exact canonical key
    // of the requesting spec.
    if (fields["version"] != std::to_string(kFormatVersion) ||
        fields["type"] != "result" ||
        fields["key"] != spec.canonicalKey())
        return std::nullopt;

    // A malformed or incomplete artifact is a miss; the rerun
    // overwrites it. Failed jobs are never stored, so one is foreign.
    JobResult out;
    out.spec = spec;
    bool valid = true;
    forEachField(out, [&](std::string_view name, auto &value) {
        const auto it = fields.find(name);
        valid = valid && it != fields.end() && parseField(it->second, value);
    });
    if (!valid || out.status == JobStatus::Failed)
        return std::nullopt;
    out.fromCache = true;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.resultHits;
    }
    return out;
}

void
ArtifactStore::storeResult(const JobResult &result) const
{
    if (!persistent() || result.status == JobStatus::Failed)
        return;

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        MCA_WARN("artifact store: cannot create '", dir_, "': ",
                 ec.message());
        return;
    }

    const std::string path = resultPath(result.spec);
    const std::string tmp =
        path + ".tmp." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            MCA_WARN("artifact store: cannot write '", tmp, "'");
            return;
        }
        std::string text = "version\t" + std::to_string(kFormatVersion) +
                           "\ntype\tresult\nkey\t" +
                           result.spec.canonicalKey() + "\n";
        forEachField(result, [&](std::string_view name, const auto &value) {
            text.append(name).append("\t");
            text.append(fieldText(value)).append("\n");
        });
        out << text;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        MCA_WARN("artifact store: cannot rename '", tmp, "': ",
                 ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

ArtifactStore::Compiled
ArtifactStore::getOrCompile(const std::string &key, const Builder &build,
                            bool *hit)
{
    std::promise<Compiled> promise;
    std::shared_future<Compiled> future;
    bool building = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.compileLookups;
        auto it = compiled_.find(key);
        if (it == compiled_.end()) {
            building = true;
            ++stats_.compiles;
            future = promise.get_future().share();
            compiled_.emplace(key, future);
        } else {
            ++stats_.compileHits;
            future = it->second;
        }
    }
    if (hit)
        *hit = !building;
    if (!building) {
        // Counted as a host-profile region so campaign profiles show
        // how often jobs adopt someone else's compile. Under the
        // task-graph campaign the future is already ready (the compile
        // node preceded us), so this never blocks a worker.
        PROF_SCOPE("runner.artifacts.compile_hit");
        return future.get();
    }
    try {
        promise.set_value(
            std::make_shared<const compiler::CompileOutput>(build()));
    } catch (...) {
        promise.set_exception(std::current_exception());
    }
    return future.get();
}

ArtifactStore::Stats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::string
ArtifactStore::compileKeyFor(const JobSpec &spec,
                             const compiler::CompileOptions &options)
{
    return "benchmark=" + spec.benchmark + ";scale=" +
           formatDouble(spec.scale) + ";" + options.canonicalKey();
}

} // namespace mca::runner
