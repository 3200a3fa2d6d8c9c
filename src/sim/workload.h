// Scalable workload generation for benches (§8.1's simulated clients).
//
// The paper simulates up to 2M clients on five VMs; a full VuvuzelaClient per
// simulated user would measure client bookkeeping, not server throughput. The
// workload generator produces exactly the onion batches such users would
// send — paired users share a dead drop, idle users pick random drops —
// with parallel onion wrapping, which is the only part whose cost matters.
// Every onion is wrapped with fresh ephemeral keys per layer, exactly as
// client::VuvuzelaClient wraps, so hops see the protocol's own traffic.

#ifndef VUVUZELA_SRC_SIM_WORKLOAD_H_
#define VUVUZELA_SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/crypto/x25519.h"
#include "src/dialing/protocol.h"
#include "src/util/bytes.h"

namespace vuvuzela::sim {

struct WorkloadConfig {
  uint64_t num_users = 0;
  // Fraction of users in active pairwise conversations (each pair shares a
  // drop). §8.1 runs with every user sending each round; performance is the
  // same for idle users, which we verify in the ablation bench.
  double pairing_fraction = 1.0;
  uint64_t seed = 1;
  bool parallel = true;
};

// Builds one conversation round's client onions.
std::vector<util::Bytes> GenerateConversationWorkload(
    const WorkloadConfig& config, std::span<const crypto::X25519PublicKey> chain, uint64_t round);

// Builds one dialing round's client onions; `dial_fraction` of users send a
// real invitation (to a random other user's drop), the rest no-ops (§8.1
// uses 5%).
std::vector<util::Bytes> GenerateDialingWorkload(const WorkloadConfig& config,
                                                 std::span<const crypto::X25519PublicKey> chain,
                                                 uint64_t round,
                                                 const dialing::RoundConfig& dial_config,
                                                 double dial_fraction);

}  // namespace vuvuzela::sim

#endif  // VUVUZELA_SRC_SIM_WORKLOAD_H_
