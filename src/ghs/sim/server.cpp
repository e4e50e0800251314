#include "ghs/sim/server.hpp"

#include <algorithm>

#include "ghs/util/error.hpp"
#include "ghs/util/math.hpp"

namespace ghs::sim {

SimTime SerialServer::submit_batch(SimTime now, SimTime service,
                                   std::int64_t count) {
  GHS_REQUIRE(now >= 0 && service >= 0 && count >= 0,
              "now=" << now << " service=" << service << " count=" << count);
  if (count == 0) return std::max(now, available_at_);
  const SimTime start = std::max(now, available_at_);
  const SimTime total = service * count;
  available_at_ = start + total;
  busy_time_ += total;
  completed_ += count;
  return available_at_;
}

void SerialServer::fast_forward(const SerialServer& since, SimTime dt,
                                std::int64_t k) {
  if (completed_ == since.completed_) return;  // the run left it alone
  available_at_ += repeated(available_at_, k, dt, "the combine unit's clock");
  busy_time_ += repeated(busy_time_, k, busy_time_ - since.busy_time_,
                         "the combine unit's busy time");
  completed_ += repeated(completed_, k, completed_ - since.completed_,
                         "combine completions");
}

}  // namespace ghs::sim
