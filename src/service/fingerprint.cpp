#include "service/fingerprint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <tuple>

namespace dts {
namespace {

/// Bit pattern of a double with -0.0 folded onto +0.0 so that two
/// instances differing only in the sign of a zero (which cannot affect
/// any schedule) fingerprint identically. NaNs cannot reach here —
/// Instance construction rejects non-finite fields.
std::uint64_t double_bits(double v) noexcept {
  if (v == 0.0) v = 0.0;  // folds -0.0
  return std::bit_cast<std::uint64_t>(v);
}

/// SplitMix64 finalizer — the same mixer the repo's Rng builds on.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One 64-bit lane of the multiset hash. Each task contributes a value
/// derived from its canonical tuple; lanes differ by seed so the two
/// halves of the 128-bit fingerprint are independent. Tasks are combined
/// in canonical (sorted) order with a position-sensitive chain, which is
/// permutation-invariant because the order itself is canonical.
class HashLane {
 public:
  explicit HashLane(std::uint64_t seed) : state_(mix64(seed)) {}

  void absorb(std::uint64_t v) noexcept {
    state_ = mix64(state_ ^ mix64(v + 0x2545f4914f6cdd1dULL));
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return mix64(state_); }

 private:
  std::uint64_t state_;
};

/// The canonical value tuple of a task: everything schedule-relevant
/// except its edges, which hash separately (absorb_edges); nothing
/// label-like (id, name excluded).
struct TaskKey {
  ChannelId channel;
  std::uint64_t comm;
  std::uint64_t comp;
  std::uint64_t mem;
  std::uint64_t bytes;

  explicit TaskKey(const Task& t)
      : channel(t.channel),
        comm(double_bits(t.comm)),
        comp(double_bits(t.comp)),
        mem(double_bits(t.mem)),
        bytes(double_bits(t.comm_bytes)) {
    // Field coverage, checked by the compiler: the binding names every
    // member of Task, so a new field stops the build here until someone
    // decides whether it is keyed. Hashed: channel, comm, comp, mem and
    // bytes (this key) and deps (absorb_edges, through the canonical
    // slots). Labels, never hashed: id (the submission position) and name.
    [[maybe_unused]] const auto& [label_id, key_comm, key_comp, key_mem,
                                  key_channel, key_bytes, edges, label_name] =
        t;
  }

  [[nodiscard]] auto tie() const noexcept {
    return std::tie(channel, comm, comp, mem, bytes);
  }
  [[nodiscard]] bool operator<(const TaskKey& o) const noexcept {
    return tie() < o.tie();
  }
};

/// Both lanes of the 128-bit fingerprint, fed the same stream.
class FingerprintHasher {
 public:
  void absorb(std::uint64_t v) noexcept {
    hi_.absorb(v);
    lo_.absorb(v);
  }
  [[nodiscard]] Fingerprint digest() const noexcept {
    return Fingerprint{hi_.digest(), lo_.digest()};
  }

 private:
  HashLane hi_{0x6474732d68690001ULL};  // "dts-hi"
  HashLane lo_{0x6474732d6c6f0002ULL};  // "dts-lo"
};

void absorb_sorted_keys(FingerprintHasher& h,
                        const std::vector<TaskKey>& keys) {
  h.absorb(keys.size());
  for (const TaskKey& k : keys) {
    for (std::uint64_t v : std::array<std::uint64_t, 5>{
             static_cast<std::uint64_t>(k.channel), k.comm, k.comp, k.mem,
             k.bytes}) {
      h.absorb(v);
    }
  }
}

/// The dependency edges in canonical slot space: per slot, its
/// predecessors' slots (sorted — the order of a deps list carries no
/// meaning). Absorbed after the task keys and only on DAG instances, so
/// an edge-free instance keeps the fingerprint it had before edges were
/// hashed.
void absorb_edges(FingerprintHasher& h, const Instance& inst,
                  const std::vector<TaskId>& canonical_to_request,
                  const std::vector<TaskId>& request_to_canonical) {
  h.absorb(0x6474732d65646765ULL);  // "dts-edge"
  std::vector<TaskId> preds;
  for (const TaskId id : canonical_to_request) {
    preds.clear();
    for (const TaskId dep : inst[id].deps) {
      preds.push_back(request_to_canonical[dep]);
    }
    std::sort(preds.begin(), preds.end());
    h.absorb(preds.size());
    for (const TaskId slot : preds) h.absorb(slot);
  }
}

}  // namespace

std::string Fingerprint::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (4 * i)) & 0xf];
    out[31 - i] = kDigits[(lo >> (4 * i)) & 0xf];
  }
  return out;
}

CanonicalInstance::CanonicalInstance(const Instance& inst) {
  const std::size_t n = inst.size();
  std::vector<TaskKey> keys;
  keys.reserve(n);
  for (const Task& t : inst.tasks()) keys.emplace_back(t);

  // Sort task indices by value tuple; ties (indistinguishable tasks)
  // break by submission position, so the mapping is deterministic for a
  // given request while the fingerprint — computed over the sorted keys
  // alone — stays permutation-invariant.
  canonical_to_request_.resize(n);
  std::iota(canonical_to_request_.begin(), canonical_to_request_.end(),
            TaskId{0});
  std::sort(canonical_to_request_.begin(), canonical_to_request_.end(),
            [&keys](TaskId a, TaskId b) {
              if (keys[a] < keys[b]) return true;
              if (keys[b] < keys[a]) return false;
              return a < b;
            });

  request_to_canonical_.resize(n);
  for (TaskId slot = 0; slot < n; ++slot) {
    request_to_canonical_[canonical_to_request_[slot]] = slot;
  }

  std::sort(keys.begin(), keys.end());
  FingerprintHasher h;
  absorb_sorted_keys(h, keys);
  if (inst.has_dependencies()) {
    absorb_edges(h, inst, canonical_to_request_, request_to_canonical_);
  }
  fingerprint_ = h.digest();
}

std::vector<TaskId> CanonicalInstance::to_request_order(
    const std::vector<TaskId>& slots) const {
  const std::size_t n = canonical_to_request_.size();
  if (slots.size() != n) {
    throw std::invalid_argument(
        "CanonicalInstance: order length does not match instance");
  }
  std::vector<bool> seen(n, false);
  std::vector<TaskId> out;
  out.reserve(n);
  for (TaskId slot : slots) {
    if (slot >= n || seen[slot]) {
      throw std::invalid_argument(
          "CanonicalInstance: order is not a permutation of slots");
    }
    seen[slot] = true;
    out.push_back(canonical_to_request_[slot]);
  }
  return out;
}

std::vector<TaskId> CanonicalInstance::to_canonical_order(
    const std::vector<TaskId>& ids) const {
  const std::size_t n = request_to_canonical_.size();
  if (ids.size() != n) {
    throw std::invalid_argument(
        "CanonicalInstance: order length does not match instance");
  }
  std::vector<bool> seen(n, false);
  std::vector<TaskId> out;
  out.reserve(n);
  for (TaskId id : ids) {
    if (id >= n || seen[id]) {
      throw std::invalid_argument(
          "CanonicalInstance: order is not a permutation of task ids");
    }
    seen[id] = true;
    out.push_back(request_to_canonical_[id]);
  }
  return out;
}

Fingerprint fingerprint_of(const Instance& inst) {
  // Edges hash in canonical slot space, which needs the slot mapping.
  if (inst.has_dependencies()) return CanonicalInstance(inst).fingerprint();
  std::vector<TaskKey> keys;
  keys.reserve(inst.size());
  for (const Task& t : inst.tasks()) keys.emplace_back(t);
  std::sort(keys.begin(), keys.end());
  FingerprintHasher h;
  absorb_sorted_keys(h, keys);
  return h.digest();
}

}  // namespace dts
