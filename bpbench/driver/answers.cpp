#include "answers.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/target_stats.hpp"
#include "bp/factory.hpp"

namespace bpbench {

using bpnsp::serve::BranchRow;
using bpnsp::serve::MessageType;
using bpnsp::serve::ServeReply;
using bpnsp::serve::TargetClassStat;

namespace {

std::string
renderBranchStats(uint64_t delivered, uint64_t execs, uint64_t mispreds,
                  const std::vector<BranchRow> &rows,
                  const std::vector<TargetClassStat> &classes)
{
    std::ostringstream oss;
    oss << "stats d=" << delivered << " e=" << execs << " m=" << mispreds
        << " rows=";
    for (const BranchRow &r : rows)
        oss << std::hex << r.ip << std::dec << ':' << r.execs << ':'
            << r.mispreds << ':' << r.taken << ',';
    oss << " classes=";
    for (const TargetClassStat &c : classes)
        oss << unsigned(c.cls) << ':' << c.execs << ':' << c.targetMispreds
            << ',';
    return oss.str();
}

std::string
renderSimulate(uint64_t delivered, uint64_t execs, uint64_t mispreds,
               uint64_t accuracy_bits)
{
    std::ostringstream oss;
    oss << "simulate d=" << delivered << " e=" << execs << " m=" << mispreds
        << " a=" << std::hex << accuracy_bits;
    return oss.str();
}

} // namespace

std::string
replyAnswer(const ServeReply &reply)
{
    switch (reply.type) {
      case MessageType::SimulateReply:
        return renderSimulate(reply.delivered, reply.condExecs,
                              reply.condMispreds, reply.accuracyBits);
      case MessageType::BranchStatsReply:
        return renderBranchStats(reply.delivered, reply.condExecs,
                                 reply.condMispreds, reply.branches,
                                 reply.targetClasses);
      default:
        return std::string("unexpected reply ") +
               bpnsp::serve::messageTypeName(reply.type);
    }
}

BranchStatsCalc::BranchStatsCalc(const std::string &predictor)
    : bp(bpnsp::makePredictor(predictor)),
      sim(*bp, /*collect_per_branch=*/true),
      fe(bpnsp::FrontendConfig()), fanout({&sim, &fe})
{
}

std::string
BranchStatsCalc::answer(uint32_t top_k) const
{
    std::vector<BranchRow> rows;
    rows.reserve(sim.perBranch().size());
    for (const auto &[ip, c] : sim.perBranch())
        rows.push_back({ip, c.execs, c.mispreds, c.taken});
    // Most-mispredicted first, IP ascending on ties.
    std::sort(rows.begin(), rows.end(),
              [](const BranchRow &a, const BranchRow &b) {
                  if (a.mispreds != b.mispreds)
                      return a.mispreds > b.mispreds;
                  return a.ip < b.ip;
              });
    if (top_k != 0 && rows.size() > top_k)
        rows.resize(top_k);
    std::vector<TargetClassStat> classes;
    for (const bpnsp::TargetClassRow &row : bpnsp::targetClassRows(fe))
        classes.push_back({static_cast<uint8_t>(row.cls), row.execs,
                           row.targetMispreds});
    return renderBranchStats(sim.instructions(), sim.condExecs(),
                             sim.condMispreds(), rows, classes);
}

std::string
simulateAnswer(uint64_t delivered, const bpnsp::PredictorSim &sim)
{
    return renderSimulate(delivered, sim.condExecs(), sim.condMispreds(),
                          bpnsp::serve::doubleBits(sim.accuracy()));
}

} // namespace bpbench
