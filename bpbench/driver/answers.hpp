/**
 * @file
 * Canonical answer strings for the serve checks. A served reply and a
 * direct in-process computation of the same request render to the same
 * string exactly when every field the reply carries is bit-identical.
 */

#ifndef BPBENCH_ANSWERS_HPP
#define BPBENCH_ANSWERS_HPP

#include <cstdint>
#include <memory>
#include <string>

#include "bp/predictor.hpp"
#include "bp/sim.hpp"
#include "frontend/frontend.hpp"
#include "serve/protocol.hpp"
#include "trace/sink.hpp"

namespace bpbench {

/** Render the fields of a Simulate or BranchStats reply. */
std::string replyAnswer(const bpnsp::serve::ServeReply &reply);

/**
 * Direct computation of a BranchStats answer: the per-branch table and
 * per-class target counts a server computes over a whole trace. Feed
 * records through sink(), then read answer().
 */
class BranchStatsCalc
{
  public:
    explicit BranchStatsCalc(const std::string &predictor);

    BranchStatsCalc(const BranchStatsCalc &) = delete;
    BranchStatsCalc &operator=(const BranchStatsCalc &) = delete;

    bpnsp::TraceSink &sink() { return fanout; }

    /** The answer with the `top_k` most-mispredicted branches. */
    std::string answer(uint32_t top_k) const;

  private:
    std::unique_ptr<bpnsp::BranchPredictor> bp;
    bpnsp::PredictorSim sim;
    bpnsp::FrontendModel fe;
    bpnsp::FanoutSink fanout;
};

/** Answer string of a direct Simulate computation. */
std::string simulateAnswer(uint64_t delivered,
                           const bpnsp::PredictorSim &sim);

} // namespace bpbench

#endif // BPBENCH_ANSWERS_HPP
