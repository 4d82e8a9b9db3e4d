#include "util/cancel.hpp"

#include <thread>

namespace bpnsp {

namespace {

thread_local CancelToken *tCurrentToken = nullptr;

} // namespace

const char *
cancelCauseName(CancelCause cause)
{
    switch (cause) {
      case CancelCause::None:
        return "none";
      case CancelCause::User:
        return "user request";
      case CancelCause::Signal:
        return "signal";
      case CancelCause::Deadline:
        return "deadline";
    }
    return "unknown";
}

void
CancelToken::setDeadlineAfterMs(uint64_t ms)
{
    if (ms == 0) {
        deadlineNs.store(kNoDeadline, std::memory_order_relaxed);
        return;
    }
    setDeadline(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms));
}

Status
CancelToken::check() const
{
    if (chain != nullptr) {
        const Status up = chain->check();
        if (!up.ok())
            return up;
    }
    const CancelCause why = cause();   // latches an expired deadline
    switch (why) {
      case CancelCause::None:
        return Status();
      case CancelCause::Deadline:
        return Status::deadlineExceeded("deadline expired");
      default:
        return Status::cancelled(std::string("cancelled by ") +
                                 cancelCauseName(why));
    }
}

CancelToken &
globalCancelToken()
{
    static CancelToken token;
    return token;
}

CancelToken *
currentCancelToken()
{
    return tCurrentToken != nullptr ? tCurrentToken
                                    : &globalCancelToken();
}

CancelScope::CancelScope(CancelToken &token)
    : saved(tCurrentToken)
{
    tCurrentToken = &token;
}

CancelScope::~CancelScope()
{
    tCurrentToken = saved;
}

Status
cancellableSleepMs(uint64_t ms)
{
    CancelToken *token = currentCancelToken();
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < until) {
        const Status st = token->check();
        if (!st.ok())
            return st;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return token->check();
}

} // namespace bpnsp
