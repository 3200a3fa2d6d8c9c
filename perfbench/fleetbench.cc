// Fleet benchmark driver: runs one workload on the threaded loopback fleet
// (three HopDaemons, two ExchangedDaemon partitions behind the last hop, two
// DistDaemon shards, and for `conv_clients` an in-process CoordinatorDaemon
// with its FrontDoor), all in this process and all talking over 127.0.0.1
// TCP.
//
//   fleetbench --workload conv_bulk|conv_clients|dial_fetch --seed N
//              --seconds S --trace 0|1 --spans PATH
//
// A run is a few passes, each on a freshly launched fleet and each long
// enough for ten round samples beyond p90; their number follows --seconds.
// The program prints one JSON object of raw observations (per-pass samples,
// counts, per-layer figures, check results) as its last stdout line;
// perfbench/run.py turns that into the benchmark's metrics. With --trace 1
// the passes alternate untraced and traced, so the tracing overhead is
// measured in the same process; the traced passes' spans go to PATH as JSONL.
//
// Protocol faithfulness: every onion is wrapped with a fresh ephemeral key
// per layer (the bulk onions with OnionWrapPrecomp, which is byte-identical
// to the OnionWrap that client::VuvuzelaClient calls, given the same RNG
// stream); noise is deterministic µ (§8.1); no timed path sleeps.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>

#include "perfbench/harness.h"
#include "src/client/client.h"
#include "src/client/dialing_fetcher.h"
#include "src/coord/coordinator.h"
#include "src/crypto/onion.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/engine/round_scheduler.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/transport/coord_daemon.h"
#include "src/transport/dist_router.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/messages.h"

namespace perfbench {
namespace {

namespace client = vuvuzela::client;
namespace crypto = vuvuzela::crypto;
namespace dialing = vuvuzela::dialing;
namespace engine = vuvuzela::engine;
namespace net = vuvuzela::net;
namespace obs = vuvuzela::obs;

constexpr size_t kServers = 3;
constexpr size_t kInFlight = 3;  // K
// Rounds per pass: nearest-rank p90 over 100 samples leaves ten beyond it.
constexpr uint64_t kPassRounds = 100;
// Fleet launches timed for setup_s only, made before every pass so that the
// samples span the run rather than its first moments.
constexpr int kSetupLaunchesPerPass = 25;
// Dialing publications the dist tier keeps (router map and shards alike).
constexpr size_t kDistKeep = 8;

// --- Small utilities -------------------------------------------------------------

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// A JSON string literal holding `s`.
std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Appends `"key":value` to an open JSON object.
void AppendField(std::string& object, const std::string& key, const std::string& value) {
  if (object.size() > 1) {
    object += ',';
  }
  object += '"';
  object += key;
  object += "\":";
  object += value;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += JsonNumber(v[i]);
  }
  return out + "]";
}

// Named output checks. A name checked in several passes fails if any pass
// fails it; the details of failing passes are kept.
class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail = {}) {
    auto [it, inserted] = items_.try_emplace(name, Item{ok, detail});
    if (!inserted) {
      Item& item = it->second;
      if (!ok) {
        item.detail = item.ok ? detail : item.detail + "; " + detail;
      } else if (item.ok) {
        item.detail = detail;
      }
      item.ok = item.ok && ok;
    }
  }
  template <typename T>
  void ExpectEq(const std::string& name, T got, T want) {
    std::ostringstream d;
    d << "got " << got << " want " << want;
    Expect(name, got == want, d.str());
  }

  std::string Json() const {
    std::string out = "[";
    for (const auto& [name, item] : items_) {
      std::string entry = "{";
      AppendField(entry, "name", Quote(name));
      AppendField(entry, "ok", item.ok ? "true" : "false");
      AppendField(entry, "detail", Quote(item.detail));
      if (out.size() > 1) {
        out += ',';
      }
      out += entry + "}";
    }
    return out + "]";
  }

 private:
  struct Item {
    bool ok;
    std::string detail;
  };
  std::map<std::string, Item> items_;
};

// Read-only view of the global registry: every series read here is
// registered by the fleet's daemons before the first read.
uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name, "")->Value();
}
double HistogramSum(const char* name) {
  return obs::Registry::Global().GetHistogram(name, "", {})->Snap().sum;
}

// Registry series the benchmark reads before and after a pass.
struct RegistryReading {
  uint64_t reactor_frames = 0;
  uint64_t reactor_sheds = 0;
  uint64_t exchange_rpcs = 0;
  double exchange_seconds = 0;
  double hop_pass_seconds = 0;
  uint64_t dist_bytes_served = 0;

  static RegistryReading Take() {
    RegistryReading r;
    r.reactor_frames = CounterValue("vuvuzela_reactor_frames_total");
    r.reactor_sheds = CounterValue("vuvuzela_reactor_sheds_total");
    r.exchange_rpcs = CounterValue("vuvuzela_exchange_rpcs_total");
    r.exchange_seconds = HistogramSum("vuvuzela_exchange_seconds");
    r.hop_pass_seconds = HistogramSum("vuvuzela_hop_pass_seconds");
    r.dist_bytes_served = CounterValue("vuvuzela_dist_bytes_served_total");
    return r;
  }
};

// What one pass measured.
struct Pass {
  bool traced = false;
  double setup_s = 0;
  uint64_t rounds = 0;  // completed
  uint64_t user_msgs = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t peak_rss_kb = 0;
  std::vector<double> round_latency_s;
  uint64_t fetches = 0;
  std::vector<double> fetch_latency_s;  // traced passes only

  std::string Json() const {
    std::string out = "{";
    AppendField(out, "traced", traced ? "true" : "false");
    AppendField(out, "setup_s", JsonNumber(setup_s));
    AppendField(out, "rounds", std::to_string(rounds));
    AppendField(out, "user_msgs", std::to_string(user_msgs));
    AppendField(out, "wall_s", JsonNumber(wall_s));
    AppendField(out, "cpu_s", JsonNumber(cpu_s));
    AppendField(out, "peak_rss_kb", std::to_string(peak_rss_kb));
    AppendField(out, "round_latency_s", JsonArray(round_latency_s));
    AppendField(out, "fetches", std::to_string(fetches));
    AppendField(out, "fetch_latency_s", JsonArray(fetch_latency_s));
    return out + "}";
  }
};

// The timed region of a pass: CPU time, peak RSS and wall clock.
class PassMeter {
 public:
  void Start() {
    ResetPeakRss();
    cpu_ = ProcessCpuSeconds();
    start_us_ = NowUs();
  }
  int64_t start_us() const { return start_us_; }
  // `end_us`: when the pass's last piece of work finished.
  void Stop(int64_t end_us, Pass& pass) {
    pass.cpu_s = ProcessCpuSeconds() - cpu_;
    pass.peak_rss_kb = PeakRssKb();
    pass.wall_s = (end_us - start_us_) / 1e6;
  }

 private:
  double cpu_ = 0;
  int64_t start_us_ = 0;
};

// Raw observations of one run, printed as JSON for run.py.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  uint64_t users = 0;
  uint64_t clients = 0;
  double mu = 0;
  uint32_t num_drops = 0;
  unsigned nproc = 1;
  bool trace = false;

  std::vector<double> setup_s;  // every launch, passes included
  std::vector<Pass> passes;
  uint64_t rounds_attempted = 0;
  uint64_t rounds_failed = 0;
  uint64_t fetches_attempted = 0;
  uint64_t fetches_failed = 0;
  uint64_t probe_expected = 0;
  uint64_t probe_missing = 0;
  Checks checks;

  // Run-level per-layer figures (calibration).
  void SetLayer(const std::string& name, double value) { layers_[name] = {value, 1}; }
  // Per-pass per-layer figures, averaged over the traced passes.
  void AddLayer(const std::string& name, double value) {
    auto& [sum, count] = layers_[name];
    sum += value;
    ++count;
  }

  std::string Json() const {
    std::string out = "{";
    auto kv = [&](const std::string& k, const std::string& v) { AppendField(out, k, v); };
    kv("workload", Quote(workload));
    kv("seed", std::to_string(seed));
    kv("users", std::to_string(users));
    kv("clients", std::to_string(clients));
    kv("servers", std::to_string(kServers));
    kv("mu", JsonNumber(mu));
    kv("k", std::to_string(kInFlight));
    kv("num_drops", std::to_string(num_drops));
    kv("nproc", std::to_string(nproc));
    kv("trace", trace ? "true" : "false");
    kv("setup_s", JsonArray(setup_s));
    std::string passes_json = "[";
    for (const Pass& p : passes) {
      if (passes_json.size() > 1) {
        passes_json += ',';
      }
      passes_json += p.Json();
    }
    kv("passes", passes_json + "]");
    kv("rounds_attempted", std::to_string(rounds_attempted));
    kv("rounds_failed", std::to_string(rounds_failed));
    kv("fetches_attempted", std::to_string(fetches_attempted));
    kv("fetches_failed", std::to_string(fetches_failed));
    kv("probe_expected", std::to_string(probe_expected));
    kv("probe_missing", std::to_string(probe_missing));
    std::string layer_json = "{";
    for (const auto& [name, sum_count] : layers_) {
      AppendField(layer_json, name, JsonNumber(sum_count.first / sum_count.second));
    }
    kv("layers", layer_json + "}");
    kv("checks", checks.Json());
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, int>> layers_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    return std::nullopt;
  }
  return args;
}

// Passes in a run: enough kPassRounds-round passes to fill `seconds` on a
// four-core machine at the workload's nominal round rate, at least three
// (and an even number when tracing, half of them traced).
int PassesFor(const Args& args, double nominal_rounds_per_s) {
  int passes = static_cast<int>(std::lround(args.seconds * nominal_rounds_per_s / kPassRounds));
  passes = std::max(3, passes);
  if (args.trace && passes % 2 == 1) {
    ++passes;
  }
  return passes;
}

bool PassTraced(const Args& args, int pass) { return args.trace && pass % 2 == 1; }

mixnet::ChainConfig MakeChainConfig(double mu) {
  // Deterministic µ with vuvuzela-hopd's b = µ/20 + 1 (b only matters for
  // the privacy bound; deterministic mode adds exactly µ).
  mixnet::ChainConfig config;
  config.num_servers = kServers;
  config.conversation_noise = {.params = {mu, mu / 20 + 1}, .deterministic = true};
  config.dialing_noise = {.params = {mu, mu / 20 + 1}, .deterministic = true};
  config.parallel = true;
  config.exchange_shards = 1;
  return config;
}

// Noise onions one non-last hop adds per conversation round (deterministic
// µ: µ singles plus ⌈µ/2⌉ pairs), and the dead-drop exchanges its pairs make.
uint64_t ConversationNoisePerHop(double mu) {
  uint64_t n = static_cast<uint64_t>(std::llround(mu));
  return n + 2 * ((n + 1) / 2);
}
uint64_t ConversationNoisePairExchanges(double mu) {
  uint64_t n = static_cast<uint64_t>(std::llround(mu));
  return 2 * ((n + 1) / 2);
}

// --- Calibration -------------------------------------------------------------------

// Timed calls into single layers, outside the timed region: the per-op cost
// of the crypto the hops run, and one hop's noise generation for a round at
// the workload's µ (a forward pass over an empty batch).
void Calibrate(const mixnet::ChainConfig& config, uint64_t key_seed, bool dialing,
               uint32_t num_drops, uint64_t seed, Report& report) {
  transport::ChainKeyMaterial keys = transport::DeriveChainKeys(key_seed, kServers);
  util::Xoshiro256Rng rng(Mix(seed, 77));
  // kReps timed repetitions after one untimed warm-up (rep 0).
  constexpr int kReps = 5;
  constexpr int kOps = 48;
  volatile uint8_t sink = 0;
  auto per_op_us = [&](const std::function<void(int)>& op) {
    std::vector<double> us;
    for (int rep = 0; rep <= kReps; ++rep) {
      auto start = Clock::now();
      for (int i = 0; i < kOps; ++i) {
        op(i);
      }
      if (rep > 0) {
        us.push_back(SecondsSince(start) * 1e6 / kOps);
      }
    }
    return Median(us);
  };

  std::vector<crypto::X25519KeyPair> peers;
  for (int i = 0; i < kOps; ++i) {
    peers.push_back(crypto::X25519KeyPair::Generate(rng));
  }
  report.SetLayer("crypto.x25519_us", per_op_us([&](int i) {
    sink = sink ^ crypto::X25519(keys.key_pairs[0].secret_key, peers[i].public_key)[0];
  }));

  util::Bytes payload = wire::ExchangeRequest{}.Serialize();
  std::vector<util::Bytes> onions;
  for (int i = 0; i < kOps; ++i) {
    onions.push_back(crypto::OnionWrap(keys.public_keys, 1, payload, rng).data);
  }
  report.SetLayer("crypto.unwrap_us", per_op_us([&](int i) {
    auto layer = crypto::OnionUnwrapLayer(keys.key_pairs[0].secret_key, 1, onions[i]);
    sink = sink ^ static_cast<uint8_t>(layer.has_value());
  }));

  // Hop 0 wraps its noise for the suffix after itself.
  std::vector<crypto::X25519Precomp> suffix;
  for (size_t i = 1; i < kServers; ++i) {
    suffix.push_back(*crypto::X25519Precomp::Create(keys.public_keys[i]));
  }
  report.SetLayer("crypto.noise_wrap_us", per_op_us([&](int) {
    sink = sink ^ crypto::OnionWrapPrecomp(suffix, 1, payload, rng).data[0];
  }));

  auto server = transport::BuildMixServer(config, keys, 0);
  std::vector<double> gen_ms;
  for (int rep = 0; rep <= kReps; ++rep) {
    uint64_t round = 1000 + rep;
    auto start = Clock::now();
    if (dialing) {
      server->ForwardDialing(coord::kDialingRoundBase + round, std::vector<util::Bytes>{},
                             num_drops, nullptr);
    } else {
      server->ForwardConversation(round, std::vector<util::Bytes>{}, nullptr);
    }
    if (rep > 0) {
      gen_ms.push_back(SecondsSince(start) * 1e3);
    }
  }
  report.SetLayer("noise.gen_ms", Median(gen_ms));
}

// --- Onion generation (outside the timed region) -----------------------------------

// Comb tables for the chain keys: OnionWrapPrecomp over them is
// byte-identical to OnionWrap over the keys for the same RNG stream, and
// every layer still gets its own fresh ephemeral key. The generators below
// stand in for sim::GenerateConversationWorkload / GenerateDialingWorkload,
// which wrap with the ladder: the tables halve the pre-wrap time, the
// largest untimed part of a run.
std::vector<crypto::X25519Precomp> ChainTables(std::span<const crypto::X25519PublicKey> pks) {
  std::vector<crypto::X25519Precomp> tables;
  for (const auto& pk : pks) {
    tables.push_back(*crypto::X25519Precomp::Create(pk));
  }
  return tables;
}

// One conversation round of simulated users: users [0, paired) talk in
// pairs (2k, 2k+1 share a dead drop); the rest send to a random drop.
std::vector<util::Bytes> ConversationOnions(const std::vector<crypto::X25519Precomp>& tables,
                                            uint64_t seed, uint64_t round, uint64_t users,
                                            uint64_t paired) {
  std::vector<util::Bytes> onions(users);
  util::GlobalPool().ParallelFor(users, [&](size_t i) {
    util::Xoshiro256Rng rng(Mix(Mix(seed, round), i));
    wire::ExchangeRequest request;
    if (i < paired) {
      util::Xoshiro256Rng pair_rng(Mix(Mix(seed ^ 0x9a17, round), i / 2));
      pair_rng.Fill(request.dead_drop);
    } else {
      rng.Fill(request.dead_drop);
    }
    rng.Fill(request.envelope);
    onions[i] = crypto::OnionWrapPrecomp(tables, round, request.Serialize(), rng).data;
  });
  return onions;
}

// One dialing round of simulated users: the first `dialers` send a real
// invitation to a random real drop, the rest a no-op (§8.1: 5% real).
std::vector<util::Bytes> DialingOnions(const std::vector<crypto::X25519Precomp>& tables,
                                       uint64_t seed, uint64_t round, uint64_t users,
                                       uint64_t dialers, const dialing::RoundConfig& dial) {
  std::vector<util::Bytes> onions(users);
  util::GlobalPool().ParallelFor(users, [&](size_t i) {
    util::Xoshiro256Rng rng(Mix(Mix(seed ^ 0xd1a1, round), i));
    wire::DialRequest request;
    request.dead_drop_index =
        i < dialers ? static_cast<uint32_t>(rng.UniformUint64(dial.num_real_drops))
                    : dial.noop_index();
    rng.Fill(request.invitation);
    onions[i] = crypto::OnionWrapPrecomp(tables, round, request.Serialize(), rng).data;
  });
  return onions;
}

// --- Real clients ---------------------------------------------------------------------

// A VuvuzelaClient shared between a submitting and a collecting thread.
struct Probe {
  std::unique_ptr<client::VuvuzelaClient> client;
  std::mutex mutex;
  crypto::X25519PublicKey partner{};
  std::vector<std::string> sent;
  std::vector<std::string> received;
};

// Fresh clients for one pass (new keys, so no round number is ever reused
// under one client's keys).
std::vector<std::unique_ptr<Probe>> MakeProbes(size_t count, uint64_t seed,
                                               const std::vector<crypto::X25519PublicKey>& chain) {
  util::Xoshiro256Rng rng(Mix(seed, 0x9b0be));
  std::vector<std::unique_ptr<Probe>> probes;
  for (size_t i = 0; i < count; ++i) {
    client::ClientConfig config;
    config.keys = crypto::X25519KeyPair::Generate(rng);
    config.chain = chain;
    crypto::ChaCha20Key rng_seed;
    rng.Fill(rng_seed);
    auto probe = std::make_unique<Probe>();
    probe->client = std::make_unique<client::VuvuzelaClient>(config, rng_seed);
    probes.push_back(std::move(probe));
  }
  return probes;
}

// Pairs probes (0,1), (2,3), ... and queues `messages` chat messages each.
void PairProbes(std::vector<std::unique_ptr<Probe>>& probes, uint64_t messages, uint64_t seed) {
  for (size_t i = 0; i + 1 < probes.size(); i += 2) {
    probes[i]->partner = probes[i + 1]->client->public_key();
    probes[i + 1]->partner = probes[i]->client->public_key();
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    Probe& p = *probes[i];
    p.client->AcceptCall(p.partner);
    for (uint64_t m = 0; m < messages; ++m) {
      std::string text = "probe " + std::to_string(i) + " msg " + std::to_string(m) + " seed " +
                         std::to_string(seed);
      p.sent.push_back(text);
      p.client->SendMessage(p.partner, util::Bytes(text.begin(), text.end()));
    }
  }
}

void TakeMessages(Probe& p) {
  for (const auto& m : p.client->TakeReceivedMessages()) {
    p.received.emplace_back(m.payload.begin(), m.payload.end());
  }
}

// Every probe must hold exactly its partner's sent list, in order.
void CheckProbeMessages(const std::vector<std::unique_ptr<Probe>>& probes, Report& report) {
  bool all_ok = true;
  std::string detail;
  for (size_t i = 0; i < probes.size(); ++i) {
    const Probe& partner = *probes[i ^ 1];
    const Probe& me = *probes[i];
    report.probe_expected += partner.sent.size();
    size_t delivered = 0;
    while (delivered < me.received.size() && delivered < partner.sent.size() &&
           me.received[delivered] == partner.sent[delivered]) {
      ++delivered;
    }
    report.probe_missing += partner.sent.size() - delivered;
    if (me.received != partner.sent) {
      all_ok = false;
      detail += "client " + std::to_string(i) + " got " + std::to_string(me.received.size()) +
                "/" + std::to_string(partner.sent.size()) + " in order " +
                std::to_string(delivered) + "; ";
    }
  }
  report.checks.Expect("partner_messages_in_order", all_ok, detail);
}

// --- Faithfulness guard ---------------------------------------------------------

// No layer ephemeral public key may repeat across the onions of a run (a
// static-key workload repeats one at every layer of every round). Keys are
// compared by an 8-byte prefix; random keys collide there with negligible
// probability.
class KeyGuard {
 public:
  void Add(const std::vector<uint64_t>& prefixes) { Append(prefixes_, prefixes); }
  void Check(Report& report) {
    std::sort(prefixes_.begin(), prefixes_.end());
    size_t repeats = 0;
    for (size_t i = 1; i < prefixes_.size(); ++i) {
      repeats += prefixes_[i] == prefixes_[i - 1];
    }
    report.checks.Expect("fresh_ephemeral_keys", repeats == 0 && !prefixes_.empty(),
                         std::to_string(repeats) + " repeats among " +
                             std::to_string(prefixes_.size()) + " layer keys");
  }

 private:
  std::vector<uint64_t> prefixes_;
};

// Hop-call counts of one pass: deterministic noise at every hop and nothing
// dropped (checks), and the mixnet.* per-round counts (traced passes).
void CheckHopCalls(const std::vector<TimedTransport*>& hops, uint64_t rounds,
                   uint64_t noise_per_forward_hop, uint64_t noise_last_hop, bool traced,
                   Report& report) {
  uint64_t dropped = 0, noise_wrong = 0;
  std::vector<uint64_t> requests_in(hops.size(), 0), noise_added(hops.size(), 0);
  uint64_t dh_ops = 0, bytes_out = 0;
  double rpc_seconds = 0;
  for (size_t h = 0; h < hops.size(); ++h) {
    for (const HopCall& call : hops[h]->calls()) {
      rpc_seconds += call.seconds;
      dropped += call.stats.requests_dropped;
      dh_ops += call.stats.dh_ops;
      bytes_out += call.stats.bytes_out;
      if (call.kind == 'b') {
        continue;
      }
      requests_in[h] += call.stats.requests_in;
      noise_added[h] += call.stats.noise_requests_added;
      uint64_t want = call.kind == 'l' ? noise_last_hop : noise_per_forward_hop;
      noise_wrong += call.stats.noise_requests_added != want;
    }
  }
  report.checks.ExpectEq<uint64_t>("mixnet_dropped_zero", dropped, 0);
  report.checks.ExpectEq<uint64_t>("deterministic_mu_noise", noise_wrong, 0);
  if (!traced) {
    return;
  }
  double r = static_cast<double>(std::max<uint64_t>(rounds, 1));
  for (size_t h = 0; h < hops.size(); ++h) {
    report.AddLayer("mixnet.requests_in.h" + std::to_string(h), requests_in[h] / r);
    report.AddLayer("mixnet.noise_added.h" + std::to_string(h), noise_added[h] / r);
  }
  report.AddLayer("mixnet.dh_ops_per_round", dh_ops / r);
  report.AddLayer("mixnet.bytes_out_per_round", bytes_out / r);
  report.AddLayer("mixnet.dropped", static_cast<double>(dropped));
  // Hop RPC time, set against the registry's hop pass time over the same
  // pass (transport.wire_frac).
  report.AddLayer("transport.rpc_s_total", rpc_seconds);
}

// Registry deltas over one pass: the sheds check always, the per-layer
// figures for traced passes.
void RegistryLayers(const RegistryReading& before, const RegistryReading& after, uint64_t rounds,
                    bool traced, Report& report) {
  report.checks.ExpectEq<uint64_t>("net_sheds_zero", after.reactor_sheds - before.reactor_sheds,
                                   0);
  if (!traced) {
    return;
  }
  double r = static_cast<double>(std::max<uint64_t>(rounds, 1));
  report.AddLayer("deaddrop.exchange_ms",
                  (after.exchange_seconds - before.exchange_seconds) * 1e3 / r);
  report.AddLayer("deaddrop.exchange_requests", (after.exchange_rpcs - before.exchange_rpcs) / r);
  report.AddLayer("net.frames_per_round", (after.reactor_frames - before.reactor_frames) / r);
  report.AddLayer("net.sheds", static_cast<double>(after.reactor_sheds - before.reactor_sheds));
  report.AddLayer("hop.pass_s_total", after.hop_pass_seconds - before.hop_pass_seconds);
}

// --- Scheduler workloads: conv_bulk and dial_fetch --------------------------------------

// The fleet plus the bench-side scheduler over decorated transports.
struct SchedulerFleet {
  Fleet fleet;
  std::unique_ptr<transport::DistRouter> router;
  std::unique_ptr<TimedDistribution> distribution;
  std::vector<TimedTransport*> hops;
  std::unique_ptr<engine::RoundScheduler> scheduler;

  bool Launch(const mixnet::ChainConfig& config, uint64_t key_seed, bool distribute,
              SpanRecorder& spans) {
    fleet = Fleet::Launch(config, key_seed);
    if (!fleet.ok()) {
      return false;
    }
    auto tcp = fleet.chain->ConnectTransports();
    if (tcp.size() != kServers) {
      return false;
    }
    std::vector<std::unique_ptr<transport::HopTransport>> decorated;
    for (size_t h = 0; h < tcp.size(); ++h) {
      auto timed = std::make_unique<TimedTransport>(std::move(tcp[h]), h, spans);
      hops.push_back(timed.get());
      decorated.push_back(std::move(timed));
    }
    engine::SchedulerConfig sched;
    sched.max_in_flight = kInFlight;
    if (distribute) {
      transport::DistRouterConfig router_config = fleet.dist->RouterConfig();
      router_config.keep_rounds = kDistKeep;
      router = transport::DistRouter::Connect(router_config);
      if (!router) {
        return false;
      }
      distribution = std::make_unique<TimedDistribution>(*router, spans);
      sched.distribution = distribution.get();
      sched.distribution_keep = kDistKeep;
    }
    scheduler = std::make_unique<engine::RoundScheduler>(std::move(decorated), sched);
    return true;
  }

  void Stop() {
    scheduler.reset();
    hops.clear();
    distribution.reset();
    router.reset();
    fleet.Stop();
  }
};

// Launches a fleet (SchedulerFleet or ClientFleet); returns the seconds it
// took.
template <typename FleetT, typename... LaunchArgs>
std::optional<double> TimedLaunch(FleetT& fleet, LaunchArgs&&... args) {
  auto start = Clock::now();
  if (!fleet.Launch(std::forward<LaunchArgs>(args)...)) {
    std::fprintf(stderr, "fleetbench: fleet launch failed\n");
    return std::nullopt;
  }
  return SecondsSince(start);
}

// Times kSetupLaunchesPerPass launch-and-stop cycles of a FleetT into
// report.setup_s.
template <typename FleetT, typename... LaunchArgs>
bool SampleSetup(Report& report, LaunchArgs&&... args) {
  for (int i = 0; i < kSetupLaunchesPerPass; ++i) {
    FleetT fleet;
    auto setup = TimedLaunch(fleet, args...);
    if (!setup) {
      return false;
    }
    report.setup_s.push_back(*setup);
    fleet.Stop();
  }
  return true;
}

// A submitted round the collector waits on.
template <typename Result>
struct InFlight {
  uint64_t round = 0;
  int64_t submit_us = 0;
  std::future<Result> future;
};

// Rounds in submission order, handed from the submitting thread to the
// collecting one.
template <typename Result>
class Collector {
 public:
  void Push(InFlight<Result> item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  std::optional<InFlight<Result>> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) {
      return std::nullopt;
    }
    InFlight<Result> item = std::move(queue_.front());
    queue_.pop_front();
    return item;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<InFlight<Result>> queue_;
  bool closed_ = false;
};

// conv_bulk: many simulated users on pre-wrapped fresh-key onions, plus two
// real client probe pairs, K=3 rounds in flight.
int RunConvBulk(const Args& args, Report& report) {
  const uint64_t users = 500;
  const uint64_t paired = 450;
  const double mu = 25;  // ≲ users/20
  const size_t num_probes = 4;
  const int passes = PassesFor(args, 30);
  report.users = users;
  report.clients = num_probes;
  report.mu = mu;

  const uint64_t key_seed = Mix(args.seed, 1);
  const mixnet::ChainConfig config = MakeChainConfig(mu);
  Calibrate(config, key_seed, false, 0, args.seed, report);
  const auto pks = transport::DeriveChainKeys(key_seed, kServers).public_keys;
  const auto tables = ChainTables(pks);
  const uint64_t noise_pair_msgs = 2 * ConversationNoisePairExchanges(mu);  // hops 0 and 1
  const uint64_t user_msgs_per_round = paired + num_probes;

  SpanRecorder spans;
  KeyGuard keys;
  uint64_t wrong_exchanges = 0;
  for (int p = 0; p < passes; ++p) {
    const bool traced = PassTraced(args, p);
    const uint64_t first = p * kPassRounds + 1, last = (p + 1) * kPassRounds;
    std::vector<std::vector<util::Bytes>> onions(kPassRounds);
    for (uint64_t r = first; r <= last; ++r) {
      onions[r - first] = ConversationOnions(tables, args.seed, r, users, paired);
    }
    auto probes = MakeProbes(num_probes, Mix(args.seed, p), pks);
    PairProbes(probes, kPassRounds / 4, args.seed);

    Pass pass;
    pass.traced = traced;
    SpanRecorder idle;
    if (!SampleSetup<SchedulerFleet>(report, config, key_seed, false, idle)) {
      return 1;
    }
    SchedulerFleet fleet;
    auto setup = TimedLaunch(fleet, config, key_seed, false, spans);
    if (!setup) {
      return 1;
    }
    pass.setup_s = *setup;
    report.setup_s.push_back(*setup);
    spans.NewPass();
    spans.Enable(traced);
    std::vector<double> prepare_us, handle_us;

    Collector<mixnet::Chain::ConversationResult> collector;
    int64_t last_done_us = 0;
    std::thread collect([&] {
      while (auto item = collector.Pop()) {
        try {
          auto result = item->future.get();
          int64_t done = NowUs();
          last_done_us = done;
          pass.round_latency_s.push_back((done - item->submit_us) / 1e6);
          ++pass.rounds;
          wrong_exchanges += result.messages_exchanged != user_msgs_per_round + noise_pair_msgs;
          pass.user_msgs += result.messages_exchanged - noise_pair_msgs;
          if (traced) {
            spans.RecordRoot(item->round, item->submit_us, done);
          }
          for (size_t i = 0; i < probes.size(); ++i) {
            Probe& probe = *probes[i];
            std::lock_guard<std::mutex> lock(probe.mutex);
            auto start = Clock::now();
            std::vector<util::Bytes> mine = {result.responses[users + i]};
            probe.client->HandleConversationResponses(item->round, mine);
            if (traced) {
              handle_us.push_back(SecondsSince(start) * 1e6);
            }
            TakeMessages(probe);
          }
        } catch (const std::exception& e) {
          ++report.rounds_failed;
          std::fprintf(stderr, "fleetbench: round %llu failed: %s\n",
                       static_cast<unsigned long long>(item->round), e.what());
        }
      }
    });

    RegistryReading before = RegistryReading::Take();
    PassMeter meter;
    meter.Start();
    for (uint64_t r = first; r <= last; ++r) {
      std::vector<util::Bytes> batch = std::move(onions[r - first]);
      for (auto& probe : probes) {
        std::lock_guard<std::mutex> lock(probe->mutex);
        auto start = Clock::now();
        auto mine = probe->client->PrepareConversationOnions(r);
        if (traced) {
          prepare_us.push_back(SecondsSince(start) * 1e6);
        }
        batch.push_back(std::move(mine[0]));
      }
      ++report.rounds_attempted;
      int64_t submit = NowUs();
      auto future = fleet.scheduler->SubmitConversation(r, std::move(batch));
      int64_t admitted = NowUs();
      if (traced) {
        spans.Record(r, "engine.submit", submit, admitted);
      }
      collector.Push({r, submit, std::move(future)});
    }
    collector.Close();
    collect.join();
    meter.Stop(last_done_us, pass);
    fleet.scheduler->Drain();
    RegistryReading after = RegistryReading::Take();

    report.checks.ExpectEq<uint64_t>("rounds_completed", pass.rounds, kPassRounds);
    CheckProbeMessages(probes, report);
    CheckHopCalls(fleet.hops, pass.rounds, ConversationNoisePerHop(mu), 0, traced, report);
    RegistryLayers(before, after, pass.rounds, traced, report);
    for (TimedTransport* hop : fleet.hops) {
      keys.Add(hop->key_prefixes());
    }
    if (traced) {
      engine::SchedulerStats stats = fleet.scheduler->stats();
      report.AddLayer("engine.max_in_flight", static_cast<double>(stats.max_observed_in_flight));
      report.AddLayer("client.prepare_us", Median(prepare_us));
      report.AddLayer("client.handle_us", Median(handle_us));
    }
    fleet.Stop();
    report.passes.push_back(std::move(pass));
  }
  report.checks.ExpectEq<uint64_t>("messages_exchanged_match_pairing", wrong_exchanges, 0);
  keys.Check(report);
  if (args.trace && !spans.WriteJsonl(args.spans_path)) {
    report.checks.Expect("spans_written", false, args.spans_path);
  }
  return 0;
}

// dial_fetch: dialing rounds over pre-wrapped fresh-key dial onions (5%
// real), probe clients dialing each other in a ring, the scheduler's
// Distribute stage publishing into the dist shards, and DialingFetcher
// threads downloading every user's bucket of every round.
int RunDialFetch(const Args& args, Report& report) {
  const uint64_t users = 500;
  const double dial_fraction = 0.05;
  const uint64_t dialers = static_cast<uint64_t>(users * dial_fraction);
  const double mu = 10;
  const size_t num_probes = 4;
  const int passes = PassesFor(args, 25);
  // Load generators: the submitter, the collector, and the fetchers.
  const unsigned fetch_threads = std::max(1u, report.nproc > 2 ? report.nproc - 2 : 1u);
  // A round is not submitted before the downloads of the round this far
  // behind it are done (closed loop). With K in flight, no round a download
  // still needs can fall out of the kDistKeep publications the tier keeps.
  const uint64_t fetch_lag = kDistKeep - 2;
  const uint64_t fetches_per_round = users + num_probes;

  dialing::RoundConfig dial;
  dial.num_real_drops = dialing::OptimalDropCount(users + num_probes, dial_fraction, mu);
  const uint32_t num_drops = dial.total_drops();
  report.users = users;
  report.clients = num_probes;
  report.mu = mu;
  report.num_drops = num_drops;

  const uint64_t key_seed = Mix(args.seed, 2);
  const mixnet::ChainConfig config = MakeChainConfig(mu);
  Calibrate(config, key_seed, true, num_drops, args.seed, report);
  const auto pks = transport::DeriveChainKeys(key_seed, kServers).public_keys;
  const auto tables = ChainTables(pks);
  auto round_number = [](uint64_t r) { return coord::kDialingRoundBase + r; };
  // The bucket each simulated user polls (H(pk) mod m for a real client).
  std::vector<uint32_t> user_bucket(users);
  {
    util::Xoshiro256Rng rng(Mix(args.seed, 0xb0c));
    for (auto& b : user_bucket) {
      b = static_cast<uint32_t>(rng.UniformUint64(dial.num_real_drops));
    }
  }

  SpanRecorder spans;
  KeyGuard keys;
  uint64_t missed_calls = 0, payload_mismatch = 0;
  for (int p = 0; p < passes; ++p) {
    const bool traced = PassTraced(args, p);
    const uint64_t first = p * kPassRounds + 1, last = (p + 1) * kPassRounds;
    std::vector<std::vector<util::Bytes>> onions(kPassRounds);
    for (uint64_t r = first; r <= last; ++r) {
      onions[r - first] = DialingOnions(tables, args.seed, round_number(r), users, dialers, dial);
    }
    auto probes = MakeProbes(num_probes, Mix(args.seed, p), pks);

    Pass pass;
    pass.traced = traced;
    SpanRecorder idle;
    if (!SampleSetup<SchedulerFleet>(report, config, key_seed, true, idle)) {
      return 1;
    }
    SchedulerFleet fleet;
    auto setup = TimedLaunch(fleet, config, key_seed, true, spans);
    if (!setup) {
      return 1;
    }
    pass.setup_s = *setup;
    report.setup_s.push_back(*setup);
    spans.NewPass();
    spans.Enable(traced);
    std::vector<double> prepare_us, fetch_us, fetch_rpc_us;

    // Download jobs: index < users is a simulated user's FetchBucket, the
    // rest a probe's FetchFor plus its call check.
    struct Job {
      uint64_t r;
      uint64_t index;
    };
    std::mutex job_mutex;
    std::condition_variable job_cv, done_cv;
    std::deque<Job> jobs;
    bool jobs_closed = false;
    std::vector<uint64_t> fetches_left(kPassRounds, fetches_per_round);
    uint64_t rounds_fetched = first - 1;  // every round <= this is fully downloaded
    uint64_t fetch_bytes = 0, payload_bytes = 0, fetch_count = 0;
    int64_t last_fetch_us = 0;

    auto fetch_worker = [&] {
      client::DialingFetcher fetcher(fleet.fleet.dist->FetcherConfig());
      std::vector<double> lat, rpc, full;
      uint64_t failed = 0, missed = 0, invitations = 0;
      for (;;) {
        Job job;
        {
          std::unique_lock<std::mutex> lock(job_mutex);
          job_cv.wait(lock, [&] { return jobs_closed || !jobs.empty(); });
          if (jobs.empty()) {
            break;
          }
          job = jobs.front();
          jobs.pop_front();
        }
        uint64_t round = round_number(job.r);
        auto start = Clock::now();
        try {
          if (job.index < users) {
            invitations += fetcher.FetchBucket(round, user_bucket[job.index], num_drops).size();
            rpc.push_back(SecondsSince(start) * 1e6);
          } else {
            Probe& probe = *probes[job.index - users];
            std::lock_guard<std::mutex> lock(probe.mutex);
            invitations += fetcher.FetchFor(*probe.client, round, dial);
            full.push_back(SecondsSince(start) * 1e6);
            const Probe& caller = *probes[(job.index - users + num_probes - 1) % num_probes];
            auto calls = probe.client->TakeIncomingCalls();
            missed += calls.size() != 1 || calls[0].caller != caller.client->public_key();
          }
          lat.push_back(SecondsSince(start));
        } catch (const std::exception& e) {
          ++failed;
          std::fprintf(stderr, "fleetbench: fetch failed: %s\n", e.what());
        }
        std::lock_guard<std::mutex> lock(job_mutex);
        if (--fetches_left[job.r - first] == 0) {
          while (rounds_fetched < last && fetches_left[rounds_fetched + 1 - first] == 0) {
            ++rounds_fetched;
          }
          last_fetch_us = NowUs();
          done_cv.notify_all();
        }
      }
      std::lock_guard<std::mutex> lock(job_mutex);
      if (traced) {
        Append(pass.fetch_latency_s, lat);
        Append(fetch_rpc_us, rpc);
        Append(fetch_us, full);
      }
      pass.fetches += lat.size();
      fetch_bytes += fetcher.bytes_fetched();
      payload_bytes += invitations * wire::kInvitationSize;
      fetch_count += fetcher.buckets_fetched();
      report.fetches_failed += failed;
      missed_calls += missed;
    };

    Collector<mixnet::Chain::DialingResult> collector;
    std::thread collect([&] {
      while (auto item = collector.Pop()) {
        try {
          item->future.get();
          int64_t done = NowUs();
          pass.round_latency_s.push_back((done - item->submit_us) / 1e6);
          ++pass.rounds;
          if (traced) {
            spans.RecordRoot(round_number(item->round), item->submit_us, done);
          }
        } catch (const std::exception& e) {
          ++report.rounds_failed;
          std::fprintf(stderr, "fleetbench: dialing round failed: %s\n", e.what());
        }
        {
          std::lock_guard<std::mutex> lock(job_mutex);
          for (uint64_t i = 0; i < fetches_per_round; ++i) {
            jobs.push_back({item->round, i});
          }
        }
        job_cv.notify_all();
      }
    });
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < fetch_threads; ++i) {
      workers.emplace_back(fetch_worker);
    }

    RegistryReading before = RegistryReading::Take();
    PassMeter meter;
    meter.Start();
    for (uint64_t r = first; r <= last; ++r) {
      if (r >= first + fetch_lag) {
        std::unique_lock<std::mutex> lock(job_mutex);
        done_cv.wait(lock, [&] { return rounds_fetched >= r - fetch_lag; });
      }
      std::vector<util::Bytes> batch = std::move(onions[r - first]);
      for (size_t i = 0; i < probes.size(); ++i) {
        Probe& probe = *probes[i];
        std::lock_guard<std::mutex> lock(probe.mutex);
        auto start = Clock::now();
        probe.client->Dial(probes[(i + 1) % probes.size()]->client->public_key());
        batch.push_back(probe.client->PrepareDialOnion(round_number(r), dial));
        if (traced) {
          prepare_us.push_back(SecondsSince(start) * 1e6);
        }
      }
      ++report.rounds_attempted;
      int64_t submit = NowUs();
      auto future = fleet.scheduler->SubmitDialing(round_number(r), std::move(batch), num_drops);
      int64_t admitted = NowUs();
      if (traced) {
        spans.Record(round_number(r), "engine.submit", submit, admitted);
      }
      collector.Push({r, submit, std::move(future)});
    }
    collector.Close();
    collect.join();
    {
      std::unique_lock<std::mutex> lock(job_mutex);
      done_cv.wait(lock, [&] { return rounds_fetched >= last; });
      jobs_closed = true;
    }
    job_cv.notify_all();
    for (auto& w : workers) {
      w.join();
    }
    meter.Stop(last_fetch_us, pass);
    fleet.scheduler->Drain();
    RegistryReading after = RegistryReading::Take();

    report.fetches_attempted += fetches_per_round * kPassRounds;
    report.probe_expected += num_probes * kPassRounds;
    report.checks.ExpectEq<uint64_t>("rounds_completed", pass.rounds, kPassRounds);
    report.checks.ExpectEq<uint64_t>("tables_published", fleet.distribution->publishes(),
                                     kPassRounds);
    report.checks.ExpectEq<uint64_t>("fetches_done", fetch_count, fetches_per_round * kPassRounds);
    payload_mismatch += payload_bytes != after.dist_bytes_served - before.dist_bytes_served;
    // Real invitations published: what the real drops hold less every hop's
    // µ noise invitations in each of them.
    const uint64_t published = fleet.distribution->real_drop_invitations();
    const uint64_t real_drop_noise =
        pass.rounds * kServers * static_cast<uint64_t>(std::llround(mu)) * dial.num_real_drops;
    pass.user_msgs = published > real_drop_noise ? published - real_drop_noise : 0;
    report.checks.ExpectEq<uint64_t>("real_invitations_published", pass.user_msgs,
                                     pass.rounds * (dialers + num_probes));
    uint64_t dial_noise = static_cast<uint64_t>(std::llround(mu)) * num_drops;
    CheckHopCalls(fleet.hops, pass.rounds, dial_noise, dial_noise, traced, report);
    RegistryLayers(before, after, pass.rounds, traced, report);
    for (TimedTransport* hop : fleet.hops) {
      keys.Add(hop->key_prefixes());
    }
    if (traced) {
      engine::SchedulerStats stats = fleet.scheduler->stats();
      report.AddLayer("engine.max_in_flight", static_cast<double>(stats.max_observed_in_flight));
      report.AddLayer("client.prepare_us", Median(prepare_us));
      report.AddLayer("client.fetch_us", Median(fetch_us));
      report.AddLayer("dist.fetch_rpc_us", Median(fetch_rpc_us));
      report.AddLayer("client.bucket_bytes",
                      fetch_count ? static_cast<double>(fetch_bytes) / fetch_count : 0.0);
    }
    fleet.Stop();
    report.passes.push_back(std::move(pass));
  }
  report.probe_missing = missed_calls;
  report.checks.ExpectEq<uint64_t>("fetches_failed", report.fetches_failed, 0);
  report.checks.ExpectEq<uint64_t>("probe_discovers_caller", missed_calls, 0);
  report.checks.ExpectEq<uint64_t>("fetched_bytes_match_registry", payload_mismatch, 0);
  keys.Check(report);
  if (args.trace && !spans.WriteJsonl(args.spans_path)) {
    report.checks.Expect("spans_written", false, args.spans_path);
  }
  return 0;
}

// --- conv_clients -----------------------------------------------------------------------

// The coordinator plus its connected clients, launched on a fresh fleet.
struct ClientFleet {
  Fleet fleet;
  std::unique_ptr<transport::CoordinatorDaemon> coordinator;
  std::vector<net::TcpConnection> conns;

  bool Launch(const mixnet::ChainConfig& config, uint64_t key_seed, size_t clients,
              uint64_t rounds) {
    fleet = Fleet::Launch(config, key_seed);
    if (!fleet.ok()) {
      return false;
    }
    transport::CoordDaemonConfig coord_config;
    for (size_t h = 0; h < kServers; ++h) {
      coord_config.hops.push_back({"127.0.0.1", fleet.chain->port(h)});
    }
    for (size_t s = 0; s < fleet.dist->size(); ++s) {
      coord_config.dist.push_back({"127.0.0.1", fleet.dist->port(s)});
    }
    coord_config.scheduler.max_in_flight = kInFlight;
    coord_config.total_rounds = rounds;
    // Conversation-only: the dialing interleave lies beyond the run.
    coord_config.schedule.conversation_rounds_per_dialing_round = rounds + 1;
    // Admission closes as soon as every client has submitted; the window
    // only bounds a stalled client.
    coord_config.admission_window_seconds = 10.0;
    coord_config.num_clients = clients;
    coord_config.key_seed = key_seed;
    coordinator = std::make_unique<transport::CoordinatorDaemon>(std::move(coord_config));
    if (!coordinator->Start()) {
      return false;
    }
    for (size_t c = 0; c < clients; ++c) {
      auto conn = net::TcpConnection::Connect("127.0.0.1", coordinator->client_port());
      if (!conn) {
        return false;
      }
      conns.push_back(std::move(*conn));
    }
    return true;
  }

  void Stop() {
    conns.clear();
    coordinator.reset();
    fleet.Stop();
  }
};

// Per-client, per-round timestamps (steady µs), written only by the
// client's own thread.
struct ClientTimes {
  std::map<uint64_t, int64_t> announced, submitted, responded;
};

// Pulls a `key=value` field out of a journal record's detail.
std::string DetailField(const std::string& detail, const std::string& key) {
  size_t at = detail.find(key + "=");
  if (at == std::string::npos) {
    return {};
  }
  size_t start = at + key.size() + 1;
  return detail.substr(start, detail.find(' ', start) - start);
}

// conv_clients: nproc real VuvuzelaClients on FrontDoor connections answer
// every announcement of an in-process CoordinatorDaemon; µ ≫ clients.
int RunConvClients(const Args& args, Report& report) {
  const size_t clients = std::max<size_t>(2, report.nproc & ~1u);
  const double mu = 150;  // ≫ clients: the Fig 9 noise floor
  const int passes = PassesFor(args, 30);
  report.users = clients;
  report.clients = clients;
  report.mu = mu;

  const uint64_t key_seed = Mix(args.seed, 3);
  const mixnet::ChainConfig config = MakeChainConfig(mu);
  Calibrate(config, key_seed, false, 0, args.seed, report);
  const auto pks = transport::DeriveChainKeys(key_seed, kServers).public_keys;
  const uint64_t noise = ConversationNoisePerHop(mu);

  SpanRecorder spans;
  KeyGuard keys;
  for (int p = 0; p < passes; ++p) {
    const bool traced = PassTraced(args, p);
    auto probes = MakeProbes(clients, Mix(args.seed, p), pks);
    PairProbes(probes, kPassRounds / 4, args.seed);

    Pass pass;
    pass.traced = traced;
    if (!SampleSetup<ClientFleet>(report, config, key_seed, clients, kPassRounds)) {
      return 1;
    }
    ClientFleet fleet;
    auto setup = TimedLaunch(fleet, config, key_seed, clients, kPassRounds);
    if (!setup) {
      return 1;
    }
    pass.setup_s = *setup;
    report.setup_s.push_back(*setup);
    spans.NewPass();
    spans.Enable(traced);
    std::vector<ClientTimes> times(clients);
    std::vector<std::vector<double>> prepare_us(clients), handle_us(clients);
    std::vector<std::vector<uint64_t>> key_prefixes(clients);

    auto client_loop = [&](size_t c) {
      Probe& probe = *probes[c];
      net::TcpConnection& conn = fleet.conns[c];
      for (;;) {
        auto frame = conn.RecvFrame();
        int64_t now = NowUs();
        if (!frame || frame->type == net::FrameType::kShutdown) {
          return;
        }
        if (frame->type == net::FrameType::kRoundAnnouncement) {
          times[c].announced[frame->round] = now;
          int64_t t0 = NowUs();
          auto onions = probe.client->PrepareConversationOnions(frame->round);
          int64_t t1 = NowUs();
          conn.SendFrame(
              net::Frame{net::FrameType::kConversationRequest, frame->round, onions[0]});
          times[c].submitted[frame->round] = NowUs();
          uint64_t prefix = 0;
          std::memcpy(&prefix, onions[0].data(), sizeof prefix);
          key_prefixes[c].push_back(prefix);
          if (traced) {
            prepare_us[c].push_back(static_cast<double>(t1 - t0));
          }
        } else if (frame->type == net::FrameType::kConversationResponse) {
          times[c].responded[frame->round] = now;
          int64_t t0 = NowUs();
          std::vector<util::Bytes> responses = {frame->payload};
          probe.client->HandleConversationResponses(frame->round, responses);
          TakeMessages(probe);
          int64_t t1 = NowUs();
          if (traced) {
            handle_us[c].push_back(static_cast<double>(t1 - t0));
          }
        }
      }
    };

    RegistryReading before = RegistryReading::Take();
    uint64_t journal_before = obs::TraceJournal::Global().total_emitted();
    PassMeter meter;
    meter.Start();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back(client_loop, c);
    }
    transport::CoordDaemonResult result = fleet.coordinator->Run();
    for (auto& t : threads) {
      t.join();
    }

    // Per round: the announcement reaching the first client, the last
    // client's submission, and the last client's response.
    struct RoundTimes {
      int64_t first_announce = 0, last_submit = 0, last_response = 0;
      size_t responses = 0;
    };
    std::map<uint64_t, RoundTimes> per_round;
    for (size_t c = 0; c < clients; ++c) {
      for (auto [r, t] : times[c].announced) {
        auto& rt = per_round[r];
        rt.first_announce = rt.first_announce == 0 ? t : std::min(rt.first_announce, t);
      }
      for (auto [r, t] : times[c].submitted) {
        per_round[r].last_submit = std::max(per_round[r].last_submit, t);
      }
      for (auto [r, t] : times[c].responded) {
        per_round[r].last_response = std::max(per_round[r].last_response, t);
        ++per_round[r].responses;
      }
      keys.Add(key_prefixes[c]);
    }
    int64_t last_response = meter.start_us();
    std::vector<double> gap_ms;
    int64_t prev_announce = 0;
    for (const auto& [r, rt] : per_round) {
      if (rt.responses == clients) {
        ++pass.rounds;
        pass.round_latency_s.push_back((rt.last_response - rt.first_announce) / 1e6);
        if (traced) {
          spans.RecordRoot(r, rt.first_announce, rt.last_response);
        }
      }
      last_response = std::max(last_response, rt.last_response);
      if (traced) {
        if (prev_announce > 0) {
          gap_ms.push_back((rt.first_announce - prev_announce) / 1e3);
        }
        spans.Record(r, "coord.admission", rt.first_announce, rt.last_submit);
      }
      prev_announce = rt.first_announce;
    }
    meter.Stop(last_response, pass);
    // Messages exchanged at dead drops, less the noise pairs of hops 0 and 1.
    const uint64_t noise_pair_msgs = kPassRounds * 2 * ConversationNoisePairExchanges(mu);
    pass.user_msgs = result.messages_exchanged > noise_pair_msgs
                         ? result.messages_exchanged - noise_pair_msgs
                         : 0;
    RegistryReading after = RegistryReading::Take();
    report.rounds_attempted += kPassRounds;
    report.rounds_failed += result.rounds_abandoned;

    // Program-side views read from the journal: scheduler stage passes (hop
    // RPC time per stage), stage inputs (per-hop request counts), and the
    // admission batch sizes.
    uint64_t journal_emitted = obs::TraceJournal::Global().total_emitted() - journal_before;
    double rpc_seconds = 0;
    std::vector<uint64_t> requests_in(kServers, 0);
    uint64_t short_batches = 0, closed = 0, noise_wrong = 0;
    for (const obs::TraceRecord& rec : obs::TraceJournal::Global().Snapshot()) {
      if (static_cast<int64_t>(rec.mono_us) < meter.start_us() || !per_round.contains(rec.round)) {
        continue;
      }
      if (rec.span == "admission/close") {
        ++closed;
        short_batches += DetailField(rec.detail, "onions") != std::to_string(clients);
      } else if (rec.span == "stage/enqueue") {
        std::string stage = DetailField(rec.detail, "stage");
        size_t hop = std::stoul(DetailField(rec.detail, "hop"));
        uint64_t onions = std::stoull(DetailField(rec.detail, "onions"));
        if (stage == "forward" || stage == "exchange") {
          requests_in[hop] += onions;
          noise_wrong += onions != clients + hop * noise;
        }
      } else if (rec.span == "stage/pass") {
        std::string stage = DetailField(rec.detail, "stage");
        std::string hop = DetailField(rec.detail, "hop");
        double secs = std::stod(DetailField(rec.detail, "secs"));
        rpc_seconds += secs;
        if (traced) {
          std::string name = stage == "forward"    ? "transport.fwd.h" + hop
                             : stage == "exchange" ? "transport.last.h" + hop
                                                   : "transport.bwd.h" + hop;
          int64_t end = static_cast<int64_t>(rec.mono_us);
          spans.Record(rec.round, name, end - static_cast<int64_t>(secs * 1e6), end);
        }
      }
    }

    report.checks.ExpectEq<uint64_t>("rounds_completed", pass.rounds, kPassRounds);
    report.checks.ExpectEq<uint64_t>("rounds_abandoned", result.rounds_abandoned, 0);
    report.checks.ExpectEq<uint64_t>("rounds_retried", result.rounds_retried, 0);
    report.checks.ExpectEq<uint64_t>(
        "messages_exchanged_match_pairing", result.messages_exchanged,
        kPassRounds * (clients + 2 * ConversationNoisePairExchanges(mu)));
    report.checks.Expect("journal_not_overrun",
                         journal_emitted <= obs::TraceJournal::Global().capacity(),
                         std::to_string(journal_emitted) + " records");
    report.checks.ExpectEq<uint64_t>("admission_batches_seen", closed, kPassRounds);
    report.checks.ExpectEq<uint64_t>("every_batch_holds_all_clients", short_batches, 0);
    report.checks.ExpectEq<uint64_t>("deterministic_mu_noise", noise_wrong, 0);
    CheckProbeMessages(probes, report);
    RegistryLayers(before, after, pass.rounds, traced, report);
    if (traced) {
      double r = static_cast<double>(kPassRounds);
      for (size_t h = 0; h < kServers; ++h) {
        report.AddLayer("mixnet.requests_in.h" + std::to_string(h), requests_in[h] / r);
        report.AddLayer("mixnet.noise_added.h" + std::to_string(h),
                        h + 1 < kServers ? static_cast<double>(noise) : 0.0);
      }
      report.AddLayer("transport.rpc_s_total", rpc_seconds);
      report.AddLayer("coord.announce_gap_ms", Median(gap_ms));
      std::vector<double> all_prepare, all_handle;
      for (size_t c = 0; c < clients; ++c) {
        Append(all_prepare, prepare_us[c]);
        Append(all_handle, handle_us[c]);
      }
      report.AddLayer("client.prepare_us", Median(all_prepare));
      report.AddLayer("client.handle_us", Median(all_handle));
    }
    fleet.Stop();
    report.passes.push_back(std::move(pass));
  }
  keys.Check(report);
  if (args.trace && !spans.WriteJsonl(args.spans_path)) {
    report.checks.Expect("spans_written", false, args.spans_path);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  auto args = ParseArgs(argc, argv);
  if (!args || (args->trace && args->spans_path.empty())) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload conv_bulk|conv_clients|dial_fetch --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  vuvuzela::util::SetLogLevel(vuvuzela::util::LogLevel::kError);
  Report report;
  report.workload = args->workload;
  report.seed = args->seed;
  report.trace = args->trace;
  report.nproc = std::max(1u, std::thread::hardware_concurrency());
  int rc;
  if (args->workload == "conv_bulk") {
    rc = RunConvBulk(*args, report);
  } else if (args->workload == "conv_clients") {
    rc = RunConvClients(*args, report);
  } else if (args->workload == "dial_fetch") {
    rc = RunDialFetch(*args, report);
  } else {
    std::fprintf(stderr, "fleetbench: unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  if (rc != 0) {
    return rc;
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
