// PhaseCache — memoized estimation-phase results for cross-request reuse.
//
// TIM's KPT estimation/refinement (Algorithms 2–3) and IMM's LB binary
// search are deterministic functions of (graph, sampling stream, a few
// scalars): rerunning them for a second request with the same key wastes
// exactly the work they did the first time. A PhaseCache remembers their
// outputs together with the stream position where they stopped, so a
// later request restores the numbers, Seeks its SampleSource past the
// consumed prefix, and proceeds straight to node selection — bit-identical
// to having rerun the phase, because the phase itself was a pure function
// of the key.
//
// Keys deliberately include every input the phase output depends on — the
// run's StreamKey (model, sampler mode, hop bound, seed, custom model) plus
// k, ℓ, ε′ — so a request that changes any of them (most notably sampler
// mode or diffusion model, which switch to a different RR stream entirely)
// misses instead of reading a stale entry; "invalidation" is structural,
// not timed. Entries record
// positions of a stream consumed from index 0, which is how every solver
// run starts (standalone engines are fresh; serving cursors start at 0),
// and callers must only consult the cache in that situation.
//
// Concurrency: each phase's map sits behind one mutex, with PER-KEY
// ONCE-COMPUTATION. Acquire(key) returns a lease that is either a HIT (the
// entry is ready — restore and go) or a COMPUTE OBLIGATION: the caller
// runs the phase and Publishes the entry, while any concurrent request
// for the same key blocks on the map's condition variable and wakes as a
// hit. The mutex is held only for a map lookup or a state change, never
// while a phase computes or a waiter sleeps, so unrelated keys still
// compute in parallel. A lease destroyed without publishing (the phase
// failed) wakes the waiters, which retry from scratch — an error never
// poisons the key.
#ifndef TIMPP_ENGINE_PHASE_CACHE_H_
#define TIMPP_ENGINE_PHASE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "engine/run_options.h"

namespace timpp {

/// Inputs that fully determine TIM/TIM+'s parameter-estimation output
/// (Algorithm 2, plus Algorithm 3 when use_refinement). Doubles are keyed
/// by bit pattern: the phase is a function of the exact value.
struct KptPhaseKey {
  StreamKey stream;
  int k = 0;
  bool use_refinement = false;
  uint64_t ell_bits = 0;        // ℓ after any adjustment (bit pattern)
  uint64_t eps_prime_bits = 0;  // resolved ε′ (0.0 bits for plain TIM)

  auto operator<=>(const KptPhaseKey&) const = default;
};

/// Everything Algorithm 2(+3) produced, plus where it left the stream.
struct KptPhaseEntry {
  double kpt_star = 0.0;
  double kpt_plus = 0.0;       // == kpt_star for plain TIM
  uint64_t theta_prime = 0;    // Algorithm 3's fresh-sample count (0: TIM)
  uint64_t rr_sets_kpt = 0;    // Algorithm 2's total RR sets
  uint64_t edges_kpt = 0;      // edges examined by Algorithm 2
  uint64_t edges_refine = 0;   // edges examined by Algorithm 3
  uint64_t end_index = 0;      // stream position after the phase(s)
};

/// Inputs that fully determine IMM's sampling-phase output (the LB binary
/// search over progressive θ_i batches).
struct LbPhaseKey {
  StreamKey stream;
  int k = 0;
  uint64_t epsilon_bits = 0;
  uint64_t ell_bits = 0;  // ℓ after any adjustment (bit pattern)

  auto operator<=>(const LbPhaseKey&) const = default;
};

/// IMM's sampling-phase output, plus where it left the stream.
struct LbPhaseEntry {
  double lb = 0.0;
  int sampling_iterations = 0;
  uint64_t rr_sets_sampling = 0;  // θ of the final iteration
  uint64_t end_index = 0;         // stream position after the phase
};

/// Bit pattern of a double, for exact-value keying.
uint64_t DoubleBits(double value);

/// Once-map: each key is computed by exactly one caller while concurrent
/// callers for the same key wait, and callers for other keys proceed in
/// parallel. All state lives behind one mutex; entry pointers handed out
/// stay valid for the lifetime of the lease that returned them (the lease
/// shares ownership of the slot).
template <typename Key, typename Entry>
class PhaseOnceMap {
  enum class SlotState { kComputing, kReady, kAbandoned };

  struct Slot {
    SlotState state = SlotState::kComputing;
    Entry entry;
  };

 public:
  /// The outcome of an Acquire: either a hit (entry() non-null) or a
  /// compute obligation (the caller must Publish or let the lease die,
  /// which abandons the slot and wakes the waiters to retry).
  class Lease {
   public:
    Lease() = default;
    ~Lease() { Abandon(); }

    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Abandon();
        map_ = other.map_;
        slot_ = std::move(other.slot_);
        key_ = other.key_;
        hit_ = other.hit_;
        other.map_ = nullptr;
        other.slot_.reset();
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// The ready entry on a hit, nullptr when this lease carries the
    /// compute obligation (or is empty). Valid while the lease lives.
    const Entry* entry() const { return hit_ ? &slot_->entry : nullptr; }

    /// Whether this lease carries the obligation to compute + Publish.
    bool must_compute() const { return slot_ != nullptr && !hit_; }

    /// Fulfills the compute obligation: stores the entry, marks the slot
    /// ready, and wakes every waiter. The lease becomes a hit.
    void Publish(const Entry& entry) {
      if (!must_compute()) return;
      std::lock_guard<std::mutex> lock(map_->mu_);
      slot_->entry = entry;
      slot_->state = SlotState::kReady;
      hit_ = true;
      map_->cv_.notify_all();
    }

   private:
    friend class PhaseOnceMap;
    Lease(PhaseOnceMap* map, std::shared_ptr<Slot> slot, const Key& key,
          bool hit)
        : map_(map), slot_(std::move(slot)), key_(key), hit_(hit) {}

    /// Compute obligation dropped without a result (the phase errored
    /// out): detach the slot so the key can be recomputed, and wake the
    /// waiters so they retry instead of sleeping forever.
    void Abandon() {
      if (!must_compute()) return;
      std::lock_guard<std::mutex> lock(map_->mu_);
      slot_->state = SlotState::kAbandoned;
      auto it = map_->slots_.find(key_);
      // Identity check: erase only this lease's own slot, never one that
      // a newer computation may hold under the same key.
      if (it != map_->slots_.end() && it->second == slot_) {
        map_->slots_.erase(it);
      }
      map_->cv_.notify_all();
    }

    PhaseOnceMap* map_ = nullptr;
    std::shared_ptr<Slot> slot_;
    Key key_{};
    bool hit_ = false;
  };

  /// Hit, or the obligation to compute `key`. Blocks while another caller
  /// is computing the same key. `hits`/`misses` are bumped by outcome
  /// (a woken waiter counts as a hit — it was served without computing).
  Lease Acquire(const Key& key, std::atomic<uint64_t>* hits,
                std::atomic<uint64_t>* misses) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = slots_.find(key);
      if (it == slots_.end()) {
        auto slot = std::make_shared<Slot>();
        slots_.emplace(key, slot);
        misses->fetch_add(1, std::memory_order_relaxed);
        return Lease(this, std::move(slot), key, /*hit=*/false);
      }
      std::shared_ptr<Slot> slot = it->second;
      if (slot->state == SlotState::kReady) {
        hits->fetch_add(1, std::memory_order_relaxed);
        return Lease(this, std::move(slot), key, /*hit=*/true);
      }
      cv_.wait(lock, [&] { return slot->state != SlotState::kComputing; });
      if (slot->state == SlotState::kReady) {
        hits->fetch_add(1, std::memory_order_relaxed);
        return Lease(this, std::move(slot), key, /*hit=*/true);
      }
      // Abandoned: the computing request failed and detached the slot —
      // loop and race to become the new computer.
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, std::shared_ptr<Slot>> slots_;  // guarded by mu_
};

/// Exact-key memo of phase results with per-key once-computation.
/// Thread-safe; lookups count hits/misses so serving layers can report
/// per-request cache behaviour.
class PhaseCache {
 public:
  using KptLease = PhaseOnceMap<KptPhaseKey, KptPhaseEntry>::Lease;
  using LbLease = PhaseOnceMap<LbPhaseKey, LbPhaseEntry>::Lease;

  /// A hit lease (entry() ready) or the obligation to compute the phase
  /// and Publish. Blocks while another request computes the same key.
  KptLease AcquireKpt(const KptPhaseKey& key) {
    return kpt_.Acquire(key, &hits_, &misses_);
  }
  LbLease AcquireLb(const LbPhaseKey& key) {
    return lb_.Acquire(key, &hits_, &misses_);
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const { return kpt_.size() + lb_.size(); }

 private:
  PhaseOnceMap<KptPhaseKey, KptPhaseEntry> kpt_;
  PhaseOnceMap<LbPhaseKey, LbPhaseEntry> lb_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_PHASE_CACHE_H_
