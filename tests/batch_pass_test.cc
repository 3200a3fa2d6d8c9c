// Conformance suite for the mix pass.
//
// MixServer has one pass shape: onions are unwrapped and sealed in blocks
// over ThreadPool::ParallelForBlocks with a direct DH per onion and
// preallocated output slots, and noise onions are wrapped against
// precomputed comb tables for the chain suffix. Two oracles pin it down:
//
//  * golden digests: full conversation and dialing rounds at batch sizes
//    straddling the 64-onion block boundary must reproduce SHA-256 digests
//    recorded while a one-onion-at-a-time scalar pass still existed and
//    agreed with the block pass byte for byte. The determinism contract
//    (every pass is a pure function of seed, round and input batch) is what
//    makes a digest a complete check rather than a statistical one;
//  * a per-onion oracle built from OnionUnwrapLayer and OnionSealResponse:
//    with no noise and no mixing, forward output i is the scalar unwrap of
//    valid input i and every backward slot is the scalar seal.
//
// Also pinned here: a key rotation takes effect on the next pass, the
// comb-table DH agrees with the Montgomery ladder (RFC 7748 vectors, random
// pairs, twist fallback), and the zero-copy wire decode yields the same
// items as the copying decode.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/crypto/onion.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_precomp.h"
#include "src/mixnet/mix_server.h"
#include "src/transport/hop_wire.h"
#include "src/util/random.h"
#include "src/wire/constants.h"

namespace vuvuzela {
namespace {

using mixnet::MixServer;
using mixnet::MixServerConfig;
using mixnet::ServerRoundStats;

constexpr size_t kServers = 3;

struct TestChain {
  std::vector<std::unique_ptr<MixServer>> servers;
  std::vector<crypto::X25519KeyPair> key_pairs;
  std::vector<crypto::X25519PublicKey> public_keys;
};

// Key material and noise seeds are drawn from `seed` in a fixed order, so a
// chain is a pure function of its arguments.
TestChain MakeChain(uint64_t seed, double mu, bool mix = true) {
  util::Xoshiro256Rng rng(seed);
  std::vector<crypto::ChaCha20Key> rng_seeds;
  TestChain chain;
  for (size_t i = 0; i < kServers; ++i) {
    chain.key_pairs.push_back(crypto::X25519KeyPair::Generate(rng));
    chain.public_keys.push_back(chain.key_pairs.back().public_key);
    crypto::ChaCha20Key noise_seed;
    rng.Fill(noise_seed);
    rng_seeds.push_back(noise_seed);
  }
  for (size_t i = 0; i < kServers; ++i) {
    MixServerConfig config;
    config.position = i;
    config.chain_length = kServers;
    config.conversation_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.dialing_noise = {.params = {mu, mu / 4.0 + 1.0}, .deterministic = true};
    config.parallel = true;
    config.exchange_shards = 1;
    config.mix = mix;
    chain.servers.push_back(std::make_unique<MixServer>(config, chain.key_pairs[i],
                                                        chain.public_keys, rng_seeds[i]));
  }
  return chain;
}

std::vector<util::Bytes> MakeBatch(std::span<const crypto::X25519PublicKey> pks, uint64_t round,
                                   size_t n, size_t payload_size, uint64_t seed) {
  util::Xoshiro256Rng rng(seed);
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    util::Bytes payload = rng.RandomBytes(payload_size);
    batch.push_back(crypto::OnionWrap(pks, round, payload, rng).data);
  }
  return batch;
}

std::vector<util::Bytes> MakeConversationBatch(std::span<const crypto::X25519PublicKey> pks,
                                               uint64_t round, size_t n, uint64_t seed) {
  return MakeBatch(pks, round, n, wire::kExchangeRequestSize, seed);
}

std::vector<util::Bytes> MakeDialingBatch(std::span<const crypto::X25519PublicKey> pks,
                                          uint64_t round, size_t n, uint64_t seed) {
  return MakeBatch(pks, round, n, wire::kDialRequestSize, seed);
}

// Every stage output of one conversation round.
struct ConversationTranscript {
  std::vector<std::vector<util::Bytes>> forward;  // after each server's pass
  std::vector<util::Bytes> last_responses;
  uint64_t messages_exchanged = 0;
  std::vector<std::vector<util::Bytes>> backward;  // after each return pass
  std::vector<ServerRoundStats> stats;
};

ConversationTranscript RunConversation(TestChain& chain, uint64_t round,
                                       std::vector<util::Bytes> batch) {
  ConversationTranscript t;
  t.stats.resize(2 * kServers - 1);
  std::vector<util::Bytes> current = std::move(batch);
  for (size_t i = 0; i + 1 < kServers; ++i) {
    current = chain.servers[i]->ForwardConversation(round, std::move(current), &t.stats[i]);
    t.forward.push_back(current);
  }
  auto last = chain.servers.back()->ProcessConversationLastHop(round, std::move(current),
                                                              &t.stats[kServers - 1]);
  t.last_responses = last.responses;
  t.messages_exchanged = last.messages_exchanged;
  current = std::move(last.responses);
  for (size_t i = kServers - 1; i-- > 0;) {
    current = chain.servers[i]->BackwardConversation(round, std::move(current),
                                                    &t.stats[2 * kServers - 2 - i]);
    t.backward.push_back(current);
  }
  return t;
}

// SHA-256 over a transcript, every field length- or count-prefixed so no two
// transcripts share an encoding.
class TranscriptDigest {
 public:
  void Add(uint64_t v) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) {
      le[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    sha_.Update(le);
  }
  void Add(util::ByteSpan item) {
    Add(item.size());
    sha_.Update(item);
  }
  template <typename Item>
  void Add(const std::vector<Item>& items) {
    Add(items.size());
    for (const Item& item : items) {
      Add(util::ByteSpan(item));
    }
  }
  void Add(const ServerRoundStats& s) {
    for (uint64_t v : {s.requests_in, s.requests_dropped, s.noise_requests_added, s.bytes_in,
                       s.bytes_out, s.dh_ops}) {
      Add(v);
    }
  }
  std::string Hex() {
    crypto::Sha256Digest digest = sha_.Finish();
    return util::HexEncode(digest);
  }

 private:
  crypto::Sha256 sha_;
};

std::string DigestOf(const ConversationTranscript& t) {
  TranscriptDigest d;
  for (const auto& stage : t.forward) {
    d.Add(stage);
  }
  d.Add(t.last_responses);
  d.Add(t.messages_exchanged);
  for (const auto& stage : t.backward) {
    d.Add(stage);
  }
  for (const auto& s : t.stats) {
    d.Add(s);
  }
  return d.Hex();
}

// Runs one dialing round and digests every forward stage, every pass's
// counters and the last hop's invitation table.
std::string DialingRoundDigest(TestChain& chain, uint64_t round, uint32_t num_drops,
                               std::vector<util::Bytes> batch) {
  TranscriptDigest d;
  ServerRoundStats stats;
  for (size_t i = 0; i + 1 < kServers; ++i) {
    batch = chain.servers[i]->ForwardDialing(round, std::move(batch), num_drops, &stats);
    d.Add(batch);
    d.Add(stats);
  }
  deaddrop::InvitationTable table =
      chain.servers.back()->ProcessDialingLastHop(round, std::move(batch), num_drops, &stats);
  d.Add(stats);
  d.Add(table.num_drops());
  for (uint32_t drop = 0; drop < table.num_drops(); ++drop) {
    d.Add(table.Drop(drop));
  }
  return d.Hex();
}

// Digests of the rounds the two golden tests run, recorded while the scalar
// reference pass (one onion at a time, ladder DH for noise) and the block
// pass both existed and emitted identical bytes for every size below.
struct GoldenRounds {
  size_t batch_size;
  const char* conversation[2];  // rounds 1 and 2 on one chain
  const char* dialing;
};

constexpr GoldenRounds kGolden[] = {
    {1,
     {"40657a2161e61c19d5a5de197e84d4abf10ecd36589004d1332e07716ba45ad3",
      "4bf1f09ac7b985aee311ac92114bf0ab08c1f1fcdb283e72640d5bd1b53d092f"},
     "557526ebdad5e8a65d6151a6c21546f2a6174b7fcf9be27ed43b1203dca00011"},
    {63,
     {"ec509802762ada4d1522b83e684ab748389931bb4b8ddd378a6a890ece05a844",
      "434207c416e0770f80c96df2021e56e86f9e166914a26110abe26943c33e9569"},
     "796abc01893dd78d7e1181076de39f06b02cc508e52217210506248079b9e8be"},
    {64,
     {"bad7732bb2daff5bd22102d5e15f096ba5a4477804f8008cae6c4189b6bb6ff6",
      "7829e9d7cb8858d8de20f0b059d15dedaa7246b7e202908997d06bf387abf1d5"},
     "3615be6404c9eebba03273456f0c095a39307560af1a1972b97ace676a7597c2"},
    {65,
     {"cacf6dce43aa302b6ee21741beb6fd0ff5923bf460469d438392c0f4bb6e5224",
      "b629558e230ba234f52a537e46fbb45a587f5906bb551be8f1ccf2df6c82ce2a"},
     "0bb93c55f70cad9df3c69bba2b8e0e88954a25f51f8ba9cf87b6f34bfff7aaed"},
    {160,
     {"b1b88c2f6d3d2d7a70ed30469942ca52d3dacbf31ffa4a5f82d2eebc6339b233",
      "63073716c9bb5a170340d63f721c9368fde610c1177f0bb056f9f6fd5f7557c7"},
     "8660c7a27870e0d6307a5bc759ab4bd81a164632125ed291385f8c73a4353e00"},
};

const GoldenRounds& GoldenFor(size_t batch_size) {
  for (const GoldenRounds& golden : kGolden) {
    if (golden.batch_size == batch_size) {
      return golden;
    }
  }
  throw std::out_of_range("no golden digest for this batch size");
}

// The block boundaries of the 64-onion block, plus a multi-block batch.
class BatchConformance : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchConformance,
                         ::testing::Values(1u, 63u, 64u, 65u, 160u));

TEST_P(BatchConformance, ConversationRoundByteIdentical) {
  const size_t n = GetParam();
  TestChain chain = MakeChain(/*seed=*/7, /*mu=*/12);
  for (uint64_t round = 1; round <= 2; ++round) {
    auto batch = MakeConversationBatch(chain.public_keys, round, n, 1000 + round);
    EXPECT_EQ(DigestOf(RunConversation(chain, round, std::move(batch))),
              GoldenFor(n).conversation[round - 1])
        << "round " << round;
  }
}

TEST_P(BatchConformance, DialingRoundByteIdentical) {
  const size_t n = GetParam();
  TestChain chain = MakeChain(/*seed=*/9, /*mu=*/12);
  auto batch = MakeDialingBatch(chain.public_keys, 1, n, 2000);
  EXPECT_EQ(DialingRoundDigest(chain, 1, /*num_drops=*/5, std::move(batch)), GoldenFor(n).dialing);
}

// The per-onion oracle. With mu = 0 and no mixing a hop's pass is the scalar
// primitive applied onion by onion, in input order. Every seventh onion is
// forged (a flipped tag byte): it must be dropped, and its backward slot is
// filler of the sealed size.
TEST_P(BatchConformance, PerOnionMatchesScalarOracle) {
  const size_t n = GetParam();
  constexpr uint64_t kRound = 3;
  TestChain chain = MakeChain(/*seed=*/13, /*mu=*/0, /*mix=*/false);

  auto forge = [](std::vector<util::Bytes> batch) {
    for (size_t i = 3; i < batch.size(); i += 7) {
      batch[i].back() ^= 1;
    }
    return batch;
  };
  auto scalar_unwrap = [&](size_t position, const std::vector<util::Bytes>& batch) {
    std::vector<std::optional<crypto::UnwrappedLayer>> layers;
    for (const util::Bytes& onion : batch) {
      layers.push_back(
          crypto::OnionUnwrapLayer(chain.key_pairs[position].secret_key, kRound, onion));
    }
    return layers;
  };
  auto valid_inners = [](const std::vector<std::optional<crypto::UnwrappedLayer>>& layers) {
    std::vector<util::Bytes> inners;
    for (const auto& layer : layers) {
      if (layer) {
        inners.push_back(layer->inner);
      }
    }
    return inners;
  };

  // Intermediate hop, conversation: forward then backward.
  MixServer& first = *chain.servers[0];
  std::vector<util::Bytes> batch = forge(MakeConversationBatch(chain.public_keys, kRound, n, 4000));
  auto oracle = scalar_unwrap(0, batch);
  std::vector<util::Bytes> expected = valid_inners(oracle);
  ServerRoundStats stats;
  std::vector<util::Bytes> forwarded = first.ForwardConversation(kRound, batch, &stats);
  EXPECT_EQ(forwarded, expected);
  EXPECT_EQ(stats.requests_dropped, n - expected.size());

  const size_t response_size = crypto::OnionResponseSize(wire::kEnvelopeSize, kServers - 1);
  util::Xoshiro256Rng rng(5000);
  std::vector<util::Bytes> responses;
  for (size_t j = 0; j < forwarded.size(); ++j) {
    responses.push_back(rng.RandomBytes(response_size));
  }
  std::vector<util::Bytes> sealed = first.BackwardConversation(kRound, responses);
  ASSERT_EQ(sealed.size(), n);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(sealed[i].size(), response_size + crypto::kOnionResponseLayerOverhead);
    if (oracle[i]) {
      EXPECT_EQ(sealed[i], crypto::OnionSealResponse(oracle[i]->response_key, kRound,
                                                     responses[j++]))
          << "slot " << i;
    }
  }

  // Intermediate hop, dialing: forward only.
  batch = forge(MakeDialingBatch(chain.public_keys, kRound, n, 4100));
  EXPECT_EQ(first.ForwardDialing(kRound, batch, /*num_drops=*/5),
            valid_inners(scalar_unwrap(0, batch)));

  // Last hop: every valid slot opens under the scalar response key.
  std::span<const crypto::X25519PublicKey> last_pk(&chain.public_keys[kServers - 1], 1);
  batch = forge(MakeConversationBatch(last_pk, kRound, n, 4200));
  oracle = scalar_unwrap(kServers - 1, batch);
  auto last = chain.servers.back()->ProcessConversationLastHop(kRound, batch);
  ASSERT_EQ(last.responses.size(), n);
  for (size_t i = 0; i < n; ++i) {
    if (oracle[i]) {
      std::optional<util::Bytes> opened =
          crypto::OnionOpenResponse({&oracle[i]->response_key, 1}, kRound, last.responses[i]);
      ASSERT_TRUE(opened.has_value()) << "slot " << i;
      EXPECT_EQ(opened->size(), wire::kEnvelopeSize);
    }
  }
}

// --- Key rotation ------------------------------------------------------------

// RotateKey takes effect on the next pass: in one batch, onions wrapped for
// the new key are delivered (as the scalar unwrap under the new key) and
// onions wrapped for the old key are counted as dropped.
TEST(KeyRotation, RotatedKeyServesNoStaleSecrets) {
  TestChain chain = MakeChain(/*seed=*/31, /*mu=*/0, /*mix=*/false);
  MixServer& hop = *chain.servers[0];
  ServerRoundStats stats;
  hop.ForwardConversation(1, MakeConversationBatch(chain.public_keys, 1, 4, 100), &stats);
  EXPECT_EQ(stats.requests_dropped, 0u);

  util::Xoshiro256Rng rng(5);
  crypto::X25519KeyPair new_pair = crypto::X25519KeyPair::Generate(rng);
  hop.RotateKey(new_pair);
  EXPECT_EQ(hop.public_key(), new_pair.public_key);
  std::vector<crypto::X25519PublicKey> new_chain = chain.public_keys;
  new_chain[0] = new_pair.public_key;

  std::vector<util::Bytes> batch = MakeConversationBatch(chain.public_keys, 2, 3, 200);
  std::vector<util::Bytes> fresh = MakeConversationBatch(new_chain, 2, 5, 300);
  batch.insert(batch.end(), fresh.begin(), fresh.end());
  std::vector<util::Bytes> out = hop.ForwardConversation(2, std::move(batch), &stats);
  EXPECT_EQ(stats.requests_dropped, 3u);
  ASSERT_EQ(out.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    auto layer = crypto::OnionUnwrapLayer(new_pair.secret_key, 2, fresh[i]);
    ASSERT_TRUE(layer.has_value());
    EXPECT_EQ(out[i], layer->inner);
  }
}

// --- Precomputed-table DH vs the ladder --------------------------------------

TEST(PrecompConformance, Rfc7748VectorAndBasePoint) {
  // RFC 7748 §5.2 test vector 1.
  const crypto::X25519SecretKey scalar = {
      0xa5, 0x46, 0xe3, 0x6b, 0xf0, 0x52, 0x7c, 0x9d, 0x3b, 0x16, 0x15,
      0x4b, 0x82, 0x46, 0x5e, 0xdd, 0x62, 0x14, 0x4c, 0x0a, 0xc1, 0xfc,
      0x5a, 0x18, 0x50, 0x6a, 0x22, 0x44, 0xba, 0x44, 0x9a, 0xc4};
  const crypto::X25519PublicKey point = {
      0xe6, 0xdb, 0x68, 0x67, 0x58, 0x30, 0x30, 0xdb, 0x35, 0x94, 0xc1,
      0xa4, 0x24, 0xb1, 0x5f, 0x7c, 0x72, 0x66, 0x24, 0xec, 0x26, 0xb3,
      0x35, 0x3b, 0x10, 0xa9, 0x03, 0xa6, 0xd0, 0xab, 0x1c, 0x4c};
  auto table = crypto::X25519Precomp::Create(point);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->Mult(scalar), crypto::X25519(scalar, point));

  util::Xoshiro256Rng rng(1);
  for (int i = 0; i < 32; ++i) {
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(crypto::X25519BasePointFast(sk), crypto::X25519BasePoint(sk));
  }
}

TEST(PrecompConformance, RandomCurvePointsMatchLadderAndTwistFallsBack) {
  util::Xoshiro256Rng rng(2);
  size_t curve_points = 0;
  size_t twist_points = 0;
  // Honest public keys (sk·9) always lift; random u-coordinates land on the
  // twist about half the time and must return nullopt (callers fall back to
  // the ladder).
  for (int i = 0; i < 64; ++i) {
    auto kp = crypto::X25519KeyPair::Generate(rng);
    auto table = crypto::X25519Precomp::Create(kp.public_key);
    ASSERT_TRUE(table.has_value()) << "honest key failed to lift";
    for (int j = 0; j < 4; ++j) {
      crypto::X25519SecretKey sk;
      rng.Fill(sk);
      ASSERT_EQ(table->Mult(sk), crypto::X25519(sk, kp.public_key));
    }
  }
  for (int i = 0; i < 64; ++i) {
    crypto::X25519PublicKey u;
    rng.Fill(u);
    auto table = crypto::X25519Precomp::Create(u);
    if (!table.has_value()) {
      ++twist_points;
      continue;
    }
    ++curve_points;
    crypto::X25519SecretKey sk;
    rng.Fill(sk);
    EXPECT_EQ(table->Mult(sk), crypto::X25519(sk, u));
  }
  // Both populations must occur (probability of either being empty over 64
  // uniform points is ~2^-64).
  EXPECT_GT(curve_points, 0u);
  EXPECT_GT(twist_points, 0u);
}

// --- Zero-copy wire decode ---------------------------------------------------

TEST(ZeroCopyWire, DecodeMatchesCopyingDecode) {
  util::Xoshiro256Rng rng(3);
  std::vector<util::Bytes> items;
  for (int i = 0; i < 9; ++i) {
    items.push_back(rng.RandomBytes(100));
  }
  util::Bytes header = rng.RandomBytes(24);
  // Small chunk budget forces continuation frames, so the zero-copy path
  // exercises multi-chunk storage.
  auto frames = transport::EncodeBatchChunks(net::FrameType::kHopForwardConversation, 42, header,
                                             items, /*max_chunk_payload=*/256);
  ASSERT_TRUE(frames.has_value());
  ASSERT_GT(frames->size(), 1u);

  transport::BatchAssembler copy_asm(transport::kMaxBatchMessageBytes,
                                     transport::BatchAssembler::ItemMode::kCopy);
  transport::BatchAssembler zero_asm(transport::kMaxBatchMessageBytes,
                                     transport::BatchAssembler::ItemMode::kZeroCopy);
  for (size_t i = 0; i < frames->size(); ++i) {
    net::Frame frame = (*frames)[i];
    auto expected = i + 1 == frames->size() ? transport::BatchAssembler::Status::kDone
                                            : transport::BatchAssembler::Status::kNeedMore;
    ASSERT_EQ(copy_asm.Consume(frame), expected);
    ASSERT_EQ(zero_asm.Consume(std::move(frame)), expected);
  }
  transport::BatchMessage by_copy = copy_asm.Take();
  transport::BatchMessage by_view = zero_asm.Take();

  EXPECT_EQ(by_copy.op, by_view.op);
  EXPECT_EQ(by_copy.round, by_view.round);
  EXPECT_EQ(by_copy.header, by_view.header);
  EXPECT_EQ(by_copy.wire_bytes, by_view.wire_bytes);
  ASSERT_EQ(by_copy.item_count(), items.size());
  ASSERT_EQ(by_view.item_count(), items.size());
  EXPECT_TRUE(by_view.items.empty());
  EXPECT_FALSE(by_view.chunk_storage.empty());

  // Views must survive a move of the whole message (the daemon moves the
  // request around before running the pass).
  transport::BatchMessage moved = std::move(by_view);
  auto copy_spans = by_copy.ItemSpans();
  auto view_spans = moved.ItemSpans();
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(util::Bytes(copy_spans[i].begin(), copy_spans[i].end()), items[i]);
    EXPECT_EQ(util::Bytes(view_spans[i].begin(), view_spans[i].end()), items[i]);
  }
}

}  // namespace
}  // namespace vuvuzela
