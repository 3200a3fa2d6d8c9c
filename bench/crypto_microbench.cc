// TAB-DOMCOST (§8.2 "Dominant costs"): micro-benchmarks of the primitives
// that dominate round latency, plus the aggregate DH throughput figure that
// anchors the paper's 28-second lower-bound analysis (their 36-core server:
// ~340,000 Curve25519 ops/sec).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "src/crypto/aead.h"
#include "src/crypto/onion.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/sim/cost_model.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/constants.h"

namespace {

using namespace vuvuzela;

void BM_X25519SharedSecret(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto a = crypto::X25519KeyPair::Generate(rng);
  auto b = crypto::X25519KeyPair::Generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519(a.secret_key, b.public_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519SharedSecret);

void BM_X25519KeyGen(benchmark::State& state) {
  util::Xoshiro256Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519KeyPair::Generate(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519KeyGen);

void BM_AeadSealEnvelope(benchmark::State& state) {
  util::Xoshiro256Rng rng(3);
  crypto::AeadKey key;
  rng.Fill(key);
  util::Bytes msg = rng.RandomBytes(wire::kMessageSize);
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::AeadSeal(key, crypto::NonceFromUint64(round++), {}, msg));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire::kMessageSize));
}
BENCHMARK(BM_AeadSealEnvelope);

void BM_Sha256DeadDropId(benchmark::State& state) {
  util::Xoshiro256Rng rng(4);
  util::Bytes input = rng.RandomBytes(40);  // secret ‖ round
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha256DeadDropId);

void BM_OnionWrap3Servers(benchmark::State& state) {
  util::Xoshiro256Rng rng(5);
  std::vector<crypto::X25519PublicKey> chain;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
  }
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionWrap(chain, 1, payload, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionWrap3Servers);

void BM_OnionUnwrapLayer(benchmark::State& state) {
  util::Xoshiro256Rng rng(6);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onion.data));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionUnwrapLayer);

// --- Batch-vs-scalar: the primitives behind MixServer's block pass ---------
// Each scalar benchmark above has a block-pass counterpart here; the deltas
// are what the block pass saves per onion (see docs/PERFORMANCE.md).

// Arbitrary-point comb table vs the Montgomery ladder (same multiplication).
void BM_X25519PrecompMult(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto a = crypto::X25519KeyPair::Generate(rng);
  auto b = crypto::X25519KeyPair::Generate(rng);
  auto table = crypto::X25519Precomp::Create(b.public_key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Mult(a.secret_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519PrecompMult);

// The production per-onion unwrap (fresh DH, caller scratch: what one slot
// of MixServer's block pass costs) vs BM_OnionUnwrapLayer's allocating form.
void BM_OnionUnwrapLayerInto(benchmark::State& state) {
  util::Xoshiro256Rng rng(6);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  util::Bytes inner(onion.data.size() - crypto::kOnionRequestLayerOverhead);
  crypto::AeadKey response_key;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::OnionUnwrapLayerInto(server.secret_key, 1, onion.data, inner, response_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionUnwrapLayerInto);

// Noise wrap through precomputed chain-suffix tables (what ForwardDialing /
// ForwardConversation use for cover onions) vs BM_OnionWrap3Servers' ladder.
void BM_OnionWrapPrecomp3Servers(benchmark::State& state) {
  util::Xoshiro256Rng rng(5);
  std::vector<crypto::X25519PublicKey> chain;
  std::vector<crypto::X25519Precomp> tables;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    tables.push_back(*crypto::X25519Precomp::Create(chain.back()));
  }
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionWrapPrecomp(tables, 1, payload, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionWrapPrecomp3Servers);

// Aggregate unwrap throughput across all cores: the server-side figure that
// corresponds to the paper's "340,000 Curve25519 ops/sec on 36 cores".
void BM_ParallelUnwrapThroughput(benchmark::State& state) {
  util::Xoshiro256Rng rng(7);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  constexpr size_t kBatch = 8192;
  std::vector<util::Bytes> onions(kBatch);
  util::GlobalPool().ParallelFor(kBatch, [&](size_t i) {
    util::Xoshiro256Rng task_rng(i);
    onions[i] =
        crypto::OnionWrap(chain, 1, task_rng.RandomBytes(wire::kExchangeRequestSize), task_rng)
            .data;
  });
  for (auto _ : state) {
    util::GlobalPool().ParallelFor(kBatch, [&](size_t i) {
      benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onions[i]));
    });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ParallelUnwrapThroughput)->Unit(benchmark::kMillisecond);

// Microseconds per call of `fn` over `iters` iterations (one warm-up call).
template <typename Fn>
double TimeUs(size_t iters, Fn&& fn) {
  fn();
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    fn();
  }
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return elapsed / static_cast<double>(iters) * 1e6;
}

// The batch-vs-scalar summary the CI trajectory tracks: one JSONL row with
// the per-onion costs the MixServer block pass is built on (comb-table DH,
// the production unwrap into caller scratch, comb-table noise wrap). Printed
// (and emitted to $VUVUZELA_BENCH_JSON) on every run, independently of the
// google-benchmark registry above, so the bench-trajectory job gets it from
// the same invocation that produces the human-readable table.
void PrintBatchVsScalarSection() {
  using namespace vuvuzela;
  util::Xoshiro256Rng rng(99);
  auto client = crypto::X25519KeyPair::Generate(rng);
  auto server = crypto::X25519KeyPair::Generate(rng);
  auto table = crypto::X25519Precomp::Create(server.public_key);

  constexpr size_t kLadderIters = 200;  // ~55us each

  double mult_ladder_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(crypto::X25519(client.secret_key, server.public_key));
  });
  double mult_precomp_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(table->Mult(client.secret_key));
  });

  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  util::Bytes inner(onion.data.size() - crypto::kOnionRequestLayerOverhead);
  crypto::AeadKey response_key;
  double unwrap_scalar_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onion.data));
  });
  double unwrap_into_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(
        crypto::OnionUnwrapLayerInto(server.secret_key, 1, onion.data, inner, response_key));
  });

  std::vector<crypto::X25519PublicKey> suffix;
  std::vector<crypto::X25519Precomp> tables;
  for (int i = 0; i < 3; ++i) {
    suffix.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    tables.push_back(*crypto::X25519Precomp::Create(suffix.back()));
  }
  double wrap_ladder_us = TimeUs(kLadderIters / 2, [&] {
    benchmark::DoNotOptimize(crypto::OnionWrap(suffix, 1, payload, rng));
  });
  double wrap_precomp_us = TimeUs(kLadderIters / 2, [&] {
    benchmark::DoNotOptimize(crypto::OnionWrapPrecomp(tables, 1, payload, rng));
  });

  std::printf("\n=== TAB-DOMCOST-BATCH: batch primitives vs scalar reference ===\n");
  std::printf("  X25519 mult:  ladder %8.2f us  comb table %8.2f us  (%.2fx)\n", mult_ladder_us,
              mult_precomp_us, mult_ladder_us / mult_precomp_us);
  std::printf("  layer unwrap: scalar %8.2f us  into scratch %6.2f us\n", unwrap_scalar_us,
              unwrap_into_us);
  std::printf("  noise wrap 3: ladder %8.2f us  precomp %6.2f us  (%.2fx)\n", wrap_ladder_us,
              wrap_precomp_us, wrap_ladder_us / wrap_precomp_us);

  bench::EmitJson("tab_domcost_batch",
                  {{"mult_ladder_us", mult_ladder_us},
                   {"mult_precomp_us", mult_precomp_us},
                   {"mult_speedup", mult_ladder_us / mult_precomp_us},
                   {"unwrap_scalar_us", unwrap_scalar_us},
                   {"unwrap_into_us", unwrap_into_us},
                   {"wrap_ladder_us", wrap_ladder_us},
                   {"wrap_precomp_us", wrap_precomp_us},
                   {"wrap_speedup", wrap_ladder_us / wrap_precomp_us}});
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  PrintBatchVsScalarSection();

  // The lower-bound analysis of §8.2, recomputed with this machine's
  // measured throughput.
  auto model = vuvuzela::sim::CostModel::Measure();
  std::printf("\n=== TAB-DOMCOST: dominant-cost lower bound (§8.2) ===\n");
  std::printf("  measured aggregate unwrap throughput: %.0f req/s (paper server: ~340,000)\n",
              model.dh_ops_per_sec);
  double lb = model.ConversationCryptoLowerBound(2'000'000, 3, 300'000);
  std::printf("  2M users, 3 servers, mu=300K: crypto lower bound %.1f s "
              "(paper: ~28 s on their hardware)\n", lb);
  double full = model.ConversationRoundLatency(2'000'000, 3, 300'000);
  std::printf("  modeled full-round latency: %.1f s -> within %.2fx of lower bound "
              "(paper: within 2x)\n", full, full / lb);
  return 0;
}
