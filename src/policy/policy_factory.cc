#include "policy/policy_factory.h"

#include "policy/arc.h"
#include "policy/car.h"
#include "policy/clock.h"
#include "policy/clock_pro.h"
#include "policy/fifo.h"
#include "policy/gclock.h"
#include "policy/lirs.h"
#include "policy/lru.h"
#include "policy/lru_k.h"
#include "policy/mq.h"
#include "policy/seq.h"
#include "policy/two_q.h"

namespace bpw {

StatusOr<std::unique_ptr<ReplacementPolicy>> CreatePolicy(
    const std::string& name, size_t num_frames) {
  if (num_frames == 0) {
    return Status::InvalidArgument("policy needs at least one frame");
  }
  if (name == "lru") {
    return std::unique_ptr<ReplacementPolicy>(new LruPolicy(num_frames));
  }
  if (name == "lru2") {
    return std::unique_ptr<ReplacementPolicy>(new LruKPolicy(num_frames));
  }
  if (name == "fifo") {
    return std::unique_ptr<ReplacementPolicy>(new FifoPolicy(num_frames));
  }
  if (name == "clock") {
    return std::unique_ptr<ReplacementPolicy>(new ClockPolicy(num_frames));
  }
  if (name == "gclock") {
    return std::unique_ptr<ReplacementPolicy>(new GClockPolicy(num_frames));
  }
  if (name == "clockpro") {
    return std::unique_ptr<ReplacementPolicy>(new ClockProPolicy(num_frames));
  }
  if (name == "2q") {
    return std::unique_ptr<ReplacementPolicy>(new TwoQPolicy(num_frames));
  }
  if (name == "lirs") {
    return std::unique_ptr<ReplacementPolicy>(new LirsPolicy(num_frames));
  }
  if (name == "mq") {
    return std::unique_ptr<ReplacementPolicy>(new MqPolicy(num_frames));
  }
  if (name == "seq") {
    return std::unique_ptr<ReplacementPolicy>(new SeqPolicy(num_frames));
  }
  if (name == "arc") {
    return std::unique_ptr<ReplacementPolicy>(new ArcPolicy(num_frames));
  }
  if (name == "car") {
    return std::unique_ptr<ReplacementPolicy>(new CarPolicy(num_frames));
  }
  return Status::InvalidArgument("unknown policy: " + name);
}

std::vector<std::string> KnownPolicies() {
  return {"lru", "lru2", "fifo", "clock", "gclock", "clockpro",
          "2q",  "lirs", "mq",   "seq",   "arc",    "car"};
}

}  // namespace bpw
