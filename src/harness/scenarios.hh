/**
 * @file
 * The five execution scenarios of §2.1 (Figures 2-5), reproduced as
 * cycle-accurate event timelines.
 *
 * Each scenario builds a two-instruction trace — a 6-cycle producer
 * (integer multiply) that writes the interesting operand, followed by
 * the `add` instruction whose register placement realizes the scenario —
 * and runs it on the dual-cluster machine with a timeline recorder
 * attached. Registers are chosen so the default even/odd map yields the
 * paper's placements (with one register promoted to global for the
 * scenarios that need a global destination).
 */

#ifndef MCA_HARNESS_SCENARIOS_HH
#define MCA_HARNESS_SCENARIOS_HH

#include <string>
#include <vector>

#include "core/config.hh"
#include "core/timeline.hh"
#include "obs/cycle_stack.hh"

namespace mca::harness
{

struct ScenarioResult
{
    unsigned number = 0;
    std::string title;
    std::string description;
    /** Timeline of the scenario's add instruction. */
    std::vector<core::TimelineRecord> addEvents;
    /** Timeline of the producer feeding it. */
    std::vector<core::TimelineRecord> producerEvents;
    /** Total cycles the two-instruction program took. */
    Cycle totalCycles = 0;
    /** The add was dual-distributed. */
    bool dual = false;
    /** Retire-slot stall attribution of the whole scenario run. */
    obs::CycleStack stack;
};

/** Run all five scenarios on the paper's dual-cluster configuration. */
std::vector<ScenarioResult> runScenarios();

/**
 * Same, with ProcessorConfig::idleSkip forced (default config
 * otherwise). The lockstep tests run the wake-gated and the reference
 * mode and require identical timelines.
 */
std::vector<ScenarioResult> runScenarios(bool idle_skip);

/** Render one scenario as the text block the bench prints. */
std::string formatScenario(const ScenarioResult &scenario);

} // namespace mca::harness

#endif // MCA_HARNESS_SCENARIOS_HH
