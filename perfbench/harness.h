// Bench-side instruments for the fleet benchmark.
//
// Everything here observes the program from outside: a HopTransport
// decorator around each TcpTransport handed to the round scheduler, a
// DistributionBackend decorator around the DistRouter, a span recorder the
// load generators write into, and process-level counters (CPU, peak RSS).
// Nothing in src/ is modified or instrumented further.

#ifndef VUVUZELA_PERFBENCH_HARNESS_H_
#define VUVUZELA_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/coord/distributor.h"
#include "src/transport/hop_chain.h"
#include "src/transport/hop_transport.h"

namespace perfbench {

namespace coord = vuvuzela::coord;
namespace deaddrop = vuvuzela::deaddrop;
namespace mixnet = vuvuzela::mixnet;
namespace transport = vuvuzela::transport;
namespace util = vuvuzela::util;
namespace wire = vuvuzela::wire;

using Clock = std::chrono::steady_clock;

// Steady-clock microseconds: the same base obs::TraceJournal stamps its
// mono_us with, so journal records and bench spans share one time axis.
inline int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// User+system CPU seconds of the whole process.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Resets the kernel's peak-RSS mark so VmHWM covers only what follows.
inline void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// Peak resident set since the last reset, in KiB (VmHWM).
inline uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

// --- Spans ------------------------------------------------------------------

// One bench-side span. Every span of a round hangs off that round's root
// span ("round"); `parent` is the root's id, 0 for roots themselves.
struct Span {
  uint64_t pass = 0;
  uint64_t round = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

// Spans kept in memory while the workload runs and written out at exit.
// Recording is off until Enable(); a disabled recorder costs one relaxed
// load per call site.
class SpanRecorder {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Child span of `round`'s root.
  void Record(uint64_t round, const std::string& name, int64_t start_us, int64_t end_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({pass_, round, NextId(), RootIdLocked(round), name, start_us, end_us});
  }

  // Starts a new pass: round numbers may repeat from here on (each pass
  // runs on a fresh fleet), so later spans get fresh root ids.
  void NewPass() {
    std::lock_guard<std::mutex> lock(mutex_);
    roots_.clear();
    ++pass_;
  }

  // The round's root span.
  void RecordRoot(uint64_t round, int64_t start_us, int64_t end_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({pass_, round, RootIdLocked(round), 0, "round", start_us, end_us});
  }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"pass\":%llu,\"round\":%llu,\"id\":%llu,\"parent\":%llu,"
                   "\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld}\n",
                   static_cast<unsigned long long>(s.pass),
                   static_cast<unsigned long long>(s.round),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.start_us), static_cast<long long>(s.end_us));
    }
    return std::fclose(out) == 0;
  }

 private:
  uint64_t NextId() { return ++next_id_; }
  uint64_t RootIdLocked(uint64_t round) {
    auto [it, inserted] = roots_.try_emplace(round, 0);
    if (inserted) {
      it->second = NextId();
    }
    return it->second;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<uint64_t, uint64_t> roots_;
  uint64_t next_id_ = 0;
  uint64_t pass_ = 0;
};

// --- Hop transport decorator ------------------------------------------------

// What one hop RPC did, as the scheduler's ServerRoundStats report it.
struct HopCall {
  uint64_t round = 0;
  size_t hop = 0;
  char kind = 'f';  // f: forward, l: last hop, b: backward
  double seconds = 0;  // call wall time; recorded only while tracing
  mixnet::ServerRoundStats stats;
};

// Wraps the TcpTransport of one hop. Always: counts each call's
// ServerRoundStats and keeps an 8-byte prefix of every input onion's layer
// header (its ephemeral public key) for the faithfulness guard. When the
// recorder is enabled: one span per call ("transport.fwd.hN", ...).
class TimedTransport final : public transport::HopTransport {
 private:
  template <typename Fn>
  auto Timed(uint64_t round, char kind, const char* span, const std::vector<util::Bytes>& batch,
             mixnet::ServerRoundStats* stats, Fn&& call) {
    for (const auto& onion : batch) {
      uint64_t prefix = 0;
      if (onion.size() >= sizeof prefix) {
        std::memcpy(&prefix, onion.data(), sizeof prefix);
      }
      key_prefixes_.push_back(prefix);
    }
    return TimedNoKeys(round, kind, span, stats, std::forward<Fn>(call));
  }

  template <typename Fn>
  auto TimedNoKeys(uint64_t round, char kind, const char* span, mixnet::ServerRoundStats* stats,
                   Fn&& call) {
    HopCall record{round, hop_, kind, 0, {}};
    const bool traced = spans_.enabled();
    const int64_t start = traced ? NowUs() : 0;
    auto out = call(&record.stats);
    if (traced) {
      const int64_t end = NowUs();
      record.seconds = (end - start) / 1e6;
      spans_.Record(round, span + std::to_string(hop_), start, end);
    }
    if (stats != nullptr) {
      *stats = record.stats;
    }
    calls_.push_back(record);
    return out;
  }

 public:
  TimedTransport(std::unique_ptr<HopTransport> inner, size_t hop, SpanRecorder& spans)
      : inner_(std::move(inner)), hop_(hop), spans_(spans) {}

  std::vector<util::Bytes> ForwardConversation(
      uint64_t round, std::vector<util::Bytes> batch,
      mixnet::ServerRoundStats* stats) override {
    return Timed(round, 'f', "transport.fwd.h", batch, stats, [&](mixnet::ServerRoundStats* s) {
      return inner_->ForwardConversation(round, std::move(batch), s);
    });
  }
  std::vector<util::Bytes> BackwardConversation(
      uint64_t round, std::vector<util::Bytes> responses,
      mixnet::ServerRoundStats* stats) override {
    return TimedNoKeys(round, 'b', "transport.bwd.h", stats,
                       [&](mixnet::ServerRoundStats* s) {
                         return inner_->BackwardConversation(round, std::move(responses), s);
                       });
  }
  mixnet::MixServer::LastServerResult ProcessConversationLastHop(
      uint64_t round, std::vector<util::Bytes> batch,
      mixnet::ServerRoundStats* stats) override {
    return Timed(round, 'l', "transport.last.h", batch, stats, [&](mixnet::ServerRoundStats* s) {
      return inner_->ProcessConversationLastHop(round, std::move(batch), s);
    });
  }
  std::vector<util::Bytes> ForwardDialing(uint64_t round,
                                                    std::vector<util::Bytes> batch,
                                                    uint32_t num_drops,
                                                    mixnet::ServerRoundStats* stats) override {
    return Timed(round, 'f', "transport.fwd.h", batch, stats, [&](mixnet::ServerRoundStats* s) {
      return inner_->ForwardDialing(round, std::move(batch), num_drops, s);
    });
  }
  deaddrop::InvitationTable ProcessDialingLastHop(
      uint64_t round, std::vector<util::Bytes> batch, uint32_t num_drops,
      mixnet::ServerRoundStats* stats) override {
    return Timed(round, 'l', "transport.last.h", batch, stats, [&](mixnet::ServerRoundStats* s) {
      return inner_->ProcessDialingLastHop(round, std::move(batch), num_drops, s);
    });
  }
  void ExpireRounds(uint64_t newest_round, uint64_t keep) override {
    inner_->ExpireRounds(newest_round, keep);
  }

  // Calls and key prefixes seen so far. Read only after the scheduler is
  // drained (each transport is driven by one stage worker).
  const std::vector<HopCall>& calls() const { return calls_; }
  const std::vector<uint64_t>& key_prefixes() const { return key_prefixes_; }

 private:
  std::unique_ptr<HopTransport> inner_;
  size_t hop_;
  SpanRecorder& spans_;
  std::vector<HopCall> calls_;
  std::vector<uint64_t> key_prefixes_;
};

// --- Distribution decorator ---------------------------------------------------

// Wraps the DistRouter the scheduler's Distribute stage publishes into:
// one "dist.publish" span per published round when tracing.
class TimedDistribution final : public coord::DistributionBackend {
 public:
  TimedDistribution(coord::DistributionBackend& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  void Publish(uint64_t round, deaddrop::InvitationTable table) override {
    // Invitations in the real drops; the no-op drop is the last one.
    uint64_t real_drops = 0;
    for (uint32_t d = 0; d + 1 < table.num_drops(); ++d) {
      real_drops += table.Drop(d).size();
    }
    real_drop_invitations_.fetch_add(real_drops);
    const bool traced = spans_.enabled();
    const int64_t start = traced ? NowUs() : 0;
    inner_.Publish(round, std::move(table));
    if (traced) {
      spans_.Record(round, "dist.publish", start, NowUs());
    }
    publishes_.fetch_add(1);
  }
  std::vector<wire::Invitation> Fetch(uint64_t round, uint32_t drop_index) override {
    return inner_.Fetch(round, drop_index);
  }
  bool HasRound(uint64_t round) const override { return inner_.HasRound(round); }
  void Expire(size_t keep_latest) override { inner_.Expire(keep_latest); }
  uint64_t bytes_served() const override { return inner_.bytes_served(); }
  uint64_t downloads_served() const override { return inner_.downloads_served(); }

  uint64_t publishes() const { return publishes_.load(); }
  // Invitations, real and noise, published into the real drops.
  uint64_t real_drop_invitations() const { return real_drop_invitations_.load(); }

 private:
  coord::DistributionBackend& inner_;
  SpanRecorder& spans_;
  std::atomic<uint64_t> publishes_{0};
  std::atomic<uint64_t> real_drop_invitations_{0};
};

// --- Fleet ------------------------------------------------------------------------

// The threaded loopback fleet: three HopDaemons (the last one driving its
// dead-drop stage through two ExchangedDaemon partitions) and two DistDaemon
// shards, each daemon served from its own thread over 127.0.0.1 TCP.
struct Fleet {
  std::unique_ptr<transport::ExchangePartitionGroup> exchange;
  std::unique_ptr<transport::DistGroup> dist;
  std::unique_ptr<transport::LoopbackChain> chain;

  bool ok() const { return exchange && dist && chain; }

  static Fleet Launch(const mixnet::ChainConfig& config, uint64_t key_seed) {
    Fleet fleet;
    fleet.exchange = transport::ExchangePartitionGroup::Start(2);
    fleet.dist = transport::DistGroup::Start(2);
    if (fleet.exchange && fleet.dist) {
      fleet.chain = transport::LoopbackChain::Start(
          config, key_seed, transport::kDefaultChunkPayload,
          fleet.exchange->RouterConfig());
    }
    return fleet;
  }

  // Stops the hops first (the last hop holds exchange connections), then
  // the partitions and the dist shards.
  void Stop() {
    chain.reset();
    exchange.reset();
    dist.reset();
  }
};

}  // namespace perfbench

#endif  // VUVUZELA_PERFBENCH_HARNESS_H_
