#include "src/crypto/onion.h"

#include <cstring>

namespace vuvuzela::crypto {

namespace {

constexpr uint32_t kRequestDomain = 1;
constexpr uint32_t kResponseDomain = 2;

const util::ByteSpan kOnionContext() {
  static constexpr uint8_t kCtx[] = "vuvuzela/onion/v1";
  return util::ByteSpan(kCtx, sizeof(kCtx) - 1);
}

}  // namespace

WrappedOnion OnionWrap(std::span<const X25519PublicKey> server_pks, uint64_t round,
                       util::ByteSpan payload, util::Rng& rng) {
  WrappedOnion out;
  out.layer_keys.resize(server_pks.size());
  out.data.assign(payload.begin(), payload.end());

  // Wrap from the last hop outward, so the first hop's layer ends up
  // outermost.
  for (size_t idx = server_pks.size(); idx-- > 0;) {
    X25519KeyPair ephemeral = X25519KeyPair::Generate(rng);
    X25519SharedSecret shared = X25519(ephemeral.secret_key, server_pks[idx]);
    AeadKey key = DeriveBoxKey(shared, kOnionContext());
    out.layer_keys[idx] = key;

    util::Bytes sealed =
        AeadSeal(key, NonceFromUint64(round, kRequestDomain), /*aad=*/{}, out.data);
    util::Bytes layer;
    layer.reserve(kX25519KeySize + sealed.size());
    util::Append(layer, ephemeral.public_key);
    util::Append(layer, sealed);
    out.data = std::move(layer);
  }
  return out;
}

std::optional<UnwrappedLayer> OnionUnwrapLayer(const X25519SecretKey& server_sk, uint64_t round,
                                               util::ByteSpan layer) {
  if (layer.size() < kOnionRequestLayerOverhead) {
    return std::nullopt;
  }
  X25519PublicKey ephemeral_pk;
  std::memcpy(ephemeral_pk.data(), layer.data(), ephemeral_pk.size());
  X25519SharedSecret shared = X25519(server_sk, ephemeral_pk);
  AeadKey key = DeriveBoxKey(shared, kOnionContext());

  std::optional<util::Bytes> inner = AeadOpen(key, NonceFromUint64(round, kRequestDomain),
                                              /*aad=*/{}, layer.subspan(kX25519KeySize));
  if (!inner) {
    return std::nullopt;
  }
  return UnwrappedLayer{std::move(*inner), key};
}

util::Bytes OnionSealResponse(const AeadKey& key, uint64_t round, util::ByteSpan response) {
  return AeadSeal(key, NonceFromUint64(round, kResponseDomain), /*aad=*/{}, response);
}

bool OnionUnwrapLayerInto(const X25519SecretKey& server_sk, uint64_t round, util::ByteSpan layer,
                          util::MutableByteSpan inner_out, AeadKey& response_key) {
  if (layer.size() < kOnionRequestLayerOverhead) {
    return false;
  }
  X25519PublicKey ephemeral_pk;
  std::memcpy(ephemeral_pk.data(), layer.data(), ephemeral_pk.size());
  X25519SharedSecret shared = X25519(server_sk, ephemeral_pk);
  AeadKey key = DeriveBoxKey(shared, kOnionContext());
  if (!AeadOpenInto(key, NonceFromUint64(round, kRequestDomain), /*aad=*/{},
                    layer.subspan(kX25519KeySize), inner_out)) {
    return false;
  }
  response_key = key;
  return true;
}

void OnionSealResponseInto(const AeadKey& key, uint64_t round, util::ByteSpan response,
                           util::MutableByteSpan out) {
  AeadSealInto(key, NonceFromUint64(round, kResponseDomain), /*aad=*/{}, response, out);
}

WrappedOnion OnionWrapPrecomp(std::span<const X25519Precomp> server_tables, uint64_t round,
                              util::ByteSpan payload, util::Rng& rng) {
  WrappedOnion out;
  out.layer_keys.resize(server_tables.size());
  out.data.assign(payload.begin(), payload.end());

  for (size_t idx = server_tables.size(); idx-- > 0;) {
    X25519KeyPair ephemeral = X25519KeyPair::Generate(rng);
    X25519SharedSecret shared = server_tables[idx].Mult(ephemeral.secret_key);
    AeadKey key = DeriveBoxKey(shared, kOnionContext());
    out.layer_keys[idx] = key;

    util::Bytes sealed =
        AeadSeal(key, NonceFromUint64(round, kRequestDomain), /*aad=*/{}, out.data);
    util::Bytes layer;
    layer.reserve(kX25519KeySize + sealed.size());
    util::Append(layer, ephemeral.public_key);
    util::Append(layer, sealed);
    out.data = std::move(layer);
  }
  return out;
}

std::optional<util::Bytes> OnionOpenResponse(std::span<const AeadKey> layer_keys, uint64_t round,
                                             util::ByteSpan response) {
  util::Bytes current(response.begin(), response.end());
  for (const AeadKey& key : layer_keys) {
    std::optional<util::Bytes> inner =
        AeadOpen(key, NonceFromUint64(round, kResponseDomain), /*aad=*/{}, current);
    if (!inner) {
      return std::nullopt;
    }
    current = std::move(*inner);
  }
  return current;
}

}  // namespace vuvuzela::crypto
