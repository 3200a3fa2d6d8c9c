#include "src/sim/workload.h"

#include "src/crypto/onion.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/messages.h"

namespace vuvuzela::sim {

namespace {

// Runs fn(i, rng) for i in [0, n) with a per-iteration deterministic RNG, in
// parallel when configured.
void ForEachUser(uint64_t n, uint64_t seed, bool parallel,
                 const std::function<void(size_t, util::Rng&)>& fn) {
  auto run_one = [&](size_t i) {
    // splitmix-style per-user stream: independent and reproducible.
    util::Xoshiro256Rng rng(seed * 0x9e3779b97f4a7c15ULL + i);
    fn(i, rng);
  };
  if (parallel) {
    util::GlobalPool().ParallelFor(n, run_one);
  } else {
    for (size_t i = 0; i < n; ++i) {
      run_one(i);
    }
  }
}

// splitmix64's finalizer: a bijection on 64-bit words.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Base of one round's per-user streams, distinct for every round under a
// fixed (seed, domain). Hashed rather than XOR-ed: with `seed ^ round`, a
// caller that also varies the seed by round (seed + round, as the fig9
// drivers do) gets one stream in two rounds, and so repeats every user's
// ephemeral onion keys and dead drops across them.
uint64_t RoundStream(uint64_t seed, uint64_t round, uint64_t domain) {
  return Mix64(Mix64(Mix64(seed) ^ domain) + round);
}

constexpr uint64_t kConversationDomain = 1;
constexpr uint64_t kPairDomain = 2;
constexpr uint64_t kDialingDomain = 3;

}  // namespace

std::vector<util::Bytes> GenerateConversationWorkload(
    const WorkloadConfig& config, std::span<const crypto::X25519PublicKey> chain,
    uint64_t round) {
  uint64_t paired_users = static_cast<uint64_t>(
      static_cast<double>(config.num_users) * config.pairing_fraction);
  paired_users &= ~1ULL;  // pairs need two users

  std::vector<util::Bytes> onions(config.num_users);
  const uint64_t user_stream = RoundStream(config.seed, round, kConversationDomain);
  const uint64_t pair_stream = RoundStream(config.seed, round, kPairDomain);
  ForEachUser(config.num_users, user_stream, config.parallel,
              [&](size_t i, util::Rng& rng) {
                wire::ExchangeRequest request;
                if (i < paired_users) {
                  // Users 2k and 2k+1 converse: both derive the pair's drop.
                  uint64_t pair = i / 2;
                  util::Xoshiro256Rng pair_rng(pair_stream * 0xd1342543de82ef95ULL + pair);
                  pair_rng.Fill(request.dead_drop);
                } else {
                  rng.Fill(request.dead_drop);  // idle: random drop
                }
                rng.Fill(request.envelope);  // sealed contents: random-equivalent
                onions[i] = crypto::OnionWrap(chain, round, request.Serialize(), rng).data;
              });
  return onions;
}

std::vector<util::Bytes> GenerateDialingWorkload(const WorkloadConfig& config,
                                                 std::span<const crypto::X25519PublicKey> chain,
                                                 uint64_t round,
                                                 const dialing::RoundConfig& dial_config,
                                                 double dial_fraction) {
  uint64_t dialers = static_cast<uint64_t>(
      static_cast<double>(config.num_users) * dial_fraction);

  std::vector<util::Bytes> onions(config.num_users);
  const uint64_t user_stream = RoundStream(config.seed, round, kDialingDomain);
  ForEachUser(config.num_users, user_stream, config.parallel,
              [&](size_t i, util::Rng& rng) {
                wire::DialRequest request;
                if (i < dialers) {
                  // A real invitation to a random recipient's drop. The
                  // invitation bytes are random-equivalent (sealed boxes are
                  // indistinguishable from random), so skip the seal cost.
                  request.dead_drop_index =
                      static_cast<uint32_t>(rng.UniformUint64(dial_config.num_real_drops));
                } else {
                  request.dead_drop_index = dial_config.noop_index();
                }
                rng.Fill(request.invitation);
                onions[i] = crypto::OnionWrap(chain, round, request.Serialize(), rng).data;
              });
  return onions;
}

}  // namespace vuvuzela::sim
