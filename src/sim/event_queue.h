// Calendar event queue for the discrete-event simulator.
//
// The hot path of every experiment is schedule / cancel / pop. All three
// are O(1) amortized, and a fresh queue allocates O(log pending) times in
// total — never once per bucket it touches — so building a Simulator per
// run (Monte Carlo trials, fleet cells) stays cheap:
//
//  - Events live in a slab of fixed-layout slots recycled through an
//    index-linked free list. A slot is addressed by an EventToken — a POD
//    {slot, generation} handle — so cancellation is an O(1) generation
//    bump, never a search and never a heap allocation.
//  - Closures are stored inline in the slot (EventFn, a fixed-capacity
//    copyable closure), not in a std::function that spills to the heap.
//  - Ordering uses a bucketed calendar: a wheel of kBuckets windows of
//    kBucketWidth microseconds each, plus an overflow min-heap for events
//    beyond the wheel's horizon. A bucket is an unordered singly linked
//    list of references threaded through one pooled node array, so an
//    empty bucket costs one 32-bit head. Only the bucket at the cursor is
//    ordered: it is loaded into a single reusable min-heap, pushes into it
//    go straight to the heap, and a push into an earlier bucket spills the
//    heap back into its list. Schedule and pop are O(1) amortized for the
//    timer/airtime event mix the radio model produces (sub-second deltas);
//    far-future events (advertisement trains, crash schedules) ride the
//    overflow heap and are swept into the wheel when it drains and
//    re-anchors.
//
// Determinism: events fire in strictly increasing (time, seq) order, where
// seq is the scheduling order — exactly the contract of the binary-heap
// queue this replaces, so historical seeds replay byte-identically.
//
// Cancellation is cooperative and lazy: cancel() invalidates the slot
// immediately (live counts update right away — pending() and empty() are
// exact), but the stale reference stays in its bucket until the load or
// pop path reaches and discards it. Consequently an event cancelled at any
// point before it fires — including between a peek_time() that reported
// its time and the run_next() that would have fired it — can never fire;
// run_next() skips the stale entry and fires the next live event instead.
//
// Rescheduling is O(1) and equally lazy. The slot holds the event's true
// (time, seq) key and the seq of the one queued reference that carries it.
// Moving an event later only rewrites the true key: the carrier stays
// where it is and, when it reaches the front, is re-pushed once at the
// true key (a deferred push). Moving it earlier pushes a new carrier and
// leaves the old one stale. A timer pushed back on every packet — the
// receiver's SNACK deadline — thus costs one queue push per firing window
// instead of one cancel and one push per packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace lrs::sim {

/// Fixed-capacity inline closure for simulator events: copyable, movable,
/// never heap-allocates. Capturing more than kCapacity bytes is a compile
/// error — enlarge the capture-heaviest call site or the capacity, not the
/// allocation count.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 64;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "event closure captures too much for inline storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    new (storage_) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::ops;
  }

  EventFn(const EventFn& other) { copy_from(other); }
  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(const EventFn& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  ~EventFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    LRS_DCHECK(ops_ != nullptr);
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*copy)(void* dst, const void* src);
    void (*move)(void* dst, void* src);
    void (*destroy)(void*);
  };

  // Closures that are trivially copyable and destructible (most capture
  // only `this` and a few ids) leave copy/move/destroy null: they are
  // relocated by copying the storage bytes, with no indirect call.
  template <typename Fn>
  struct OpsFor {
    static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn> &&
                                     std::is_trivially_destructible_v<Fn>;
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        kTrivial ? nullptr
                 : +[](void* dst, const void* src) {
                     new (dst) Fn(*static_cast<const Fn*>(src));
                   },
        kTrivial ? nullptr
                 : +[](void* dst, void* src) {
                     new (dst) Fn(std::move(*static_cast<Fn*>(src)));
                   },
        kTrivial ? nullptr : +[](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };
  };

  void copy_from(const EventFn& other) {
    if (other.ops_ != nullptr) {
      if (other.ops_->copy != nullptr) {
        other.ops_->copy(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kCapacity);
      }
      ops_ = other.ops_;
    }
  }
  void move_from(EventFn& other) {
    if (other.ops_ != nullptr) {
      if (other.ops_->move != nullptr) {
        other.ops_->move(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kCapacity);
      }
      ops_ = other.ops_;
      other.reset();
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Handle to a scheduled event: a {slot, generation} pair packed into one
/// word. Default-constructed tokens are null; a token goes stale (cancel
/// becomes a no-op) the moment its event fires or is cancelled, so holding
/// one past either is always safe — there is nothing to leak or double-
/// free. Copy freely; copies refer to the same event.
class EventToken {
 public:
  EventToken() = default;

  explicit operator bool() const { return bits_ != 0; }
  friend bool operator==(const EventToken&, const EventToken&) = default;

  /// Raw packed value — for test doubles that mint their own distinct
  /// tokens and for diagnostics. Real tokens come from schedule_at().
  static EventToken from_bits(std::uint64_t bits) {
    EventToken t;
    t.bits_ = bits;
    return t;
  }
  std::uint64_t bits() const { return bits_; }

 private:
  friend class EventQueue;
  EventToken(std::uint32_t slot, std::uint32_t gen)
      : bits_((static_cast<std::uint64_t>(slot) << 32) | gen) {}
  std::uint32_t slot() const { return static_cast<std::uint32_t>(bits_ >> 32); }
  std::uint32_t gen() const { return static_cast<std::uint32_t>(bits_); }

  std::uint64_t bits_ = 0;  // 0 = null (live generations are never 0)
};

class EventQueue {
 public:
  EventQueue();

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  EventToken schedule_at(SimTime at, EventFn fn);

  /// Cancels the event, O(1). Returns true when the token referred to a
  /// live (scheduled, not yet fired) event; false for null or stale
  /// tokens. A cancelled event never fires, even when the cancellation
  /// lands between a peek_time() and the run_next() that would have
  /// popped it.
  bool cancel(EventToken token);

  /// Moves a live event to absolute time `at` (must be >= now()), O(1). The
  /// event keeps its token and closure and takes a fresh seq exactly as
  /// cancel() + schedule_at() would, so firing order, executed() and
  /// pending() are the same as for that pair. Returns false (and changes
  /// nothing) for null or stale tokens — including an event's own token
  /// inside its callback, since a firing event is already stale.
  bool reschedule(EventToken token, SimTime at);

  SimTime now() const { return now_; }
  /// Number of events executed since construction (cancelled events are
  /// never counted).
  std::uint64_t executed() const { return executed_; }
  /// Exactly the number of live (scheduled, not fired, not cancelled)
  /// events — cancellation updates both immediately.
  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }

  /// Pops and runs the next live event; returns false when none remain.
  bool run_next();

  /// Runs the next live event only if its time is <= limit. Returns true
  /// when an event ran. Does not advance now() when nothing runs — the
  /// single-traversal loop primitive Simulator::run is built on.
  bool run_next_before(SimTime limit);

  /// Time of the next live event, discarding stale (cancelled) entries on
  /// the way; nullopt when drained. Does not advance now().
  std::optional<SimTime> peek_time();

  /// Runs events in order while their time is <= limit. Returns the number
  /// executed. When the queue drains (no live events left) and now() is
  /// still behind, now() advances to `limit`; events strictly after
  /// `limit` — and only live ones count — keep now() at the last executed
  /// event's time.
  std::uint64_t run_until(SimTime limit);

 private:
  // Wheel geometry: 4096 buckets of 2^10 us (~1 ms) cover ~4.2 s of
  // lookahead, which spans the radio model's backoff (0.5–50 ms) and
  // airtime (~1–4 ms) deltas; protocol-level timers beyond the horizon
  // take the overflow heap and are swept in when the wheel re-anchors —
  // a batched, cache-friendly path that measures faster than widening the
  // buckets until Trickle's 60 s tau_high fits the wheel. Width and count
  // are powers of two so index math is shift/mask.
  static constexpr int kBucketBits = 12;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr int kBucketWidthBits = 10;
  static constexpr SimTime kBucketWidth = SimTime{1} << kBucketWidthBits;
  static constexpr SimTime kSpan = static_cast<SimTime>(kBuckets) *
                                   kBucketWidth;
  static constexpr std::size_t kBitmapWords = kBuckets / 64;

  /// POD reference ordered by (time, seq); `gen` detects stale entries
  /// whose event was cancelled (or whose slot was recycled) after the
  /// reference was enqueued, and `seq` those a reschedule superseded.
  struct Ref {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    bool after(const Ref& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  /// End-of-list / empty-free-list marker for the index-linked lists.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Key fields first: the prune paths read them for every queued ref,
  /// the closure only when the event fires.
  struct Slot {
    std::uint32_t gen = 1;  // bumped on every release; 0 never occurs
    std::uint32_t next_free = kNil;
    SimTime time = 0;              // true key: when the event fires...
    std::uint64_t seq = 0;         // ...and its tie-break
    std::uint64_t queued_seq = 0;  // seq of the one ref that carries it
    EventFn fn;
  };

  /// One cell of a bucket list (or of the free-cell list).
  struct Node {
    Ref ref;
    std::uint32_t next;
  };

  /// The ref is the one queued entry of a live event (possibly deferred:
  /// its key may be earlier than the event's true key).
  bool carries(const Ref& r) const {
    const Slot& s = slots_[r.slot];
    return s.gen == r.gen && s.queued_seq == r.seq;
  }
  /// The ref is a live event's true key: it fires when it reaches the front.
  bool is_live(const Ref& r) const {
    const Slot& s = slots_[r.slot];
    return s.gen == r.gen && s.seq == r.seq;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_ref(const Ref& r);
  /// Prepends `r` to bucket b's list.
  void link(std::size_t b, const Ref& r);
  void set_occupied(std::size_t b) {
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  void clear_occupied(std::size_t b) {
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  }
  /// First bucket index >= from with entries, or kBuckets when the wheel
  /// is clear.
  std::size_t next_occupied(std::size_t from) const;
  /// Moves bucket b's live refs from its list into the (empty) heap and
  /// makes b the loaded bucket.
  void load(std::size_t b);
  /// Returns the loaded bucket's refs to its list; nothing is loaded after.
  void spill();
  /// Drops stale heap tops and re-pushes deferred ones at their true key;
  /// true when a live ref tops the loaded bucket after. An emptied bucket
  /// is unloaded.
  bool prune_loaded();
  bool prune_overflow();
  /// Pushes a live event's ref at its true key and makes it the carrier.
  void push_true_key(std::uint32_t slot);
  /// Locates the earliest live ref without removing it. Never re-anchors
  /// (safe from peek paths); when the wheel is clear the overflow top is
  /// the answer. Returns false when no live events remain.
  bool find_earliest(SimTime* time);
  /// Removes and returns the earliest live ref, re-anchoring the wheel
  /// onto the overflow when it drains. Only called when a live event
  /// exists and will be executed.
  Ref pop_earliest();
  void run_ref(const Ref& r);

  SimTime now_ = 0;
  SimTime base_ = 0;        // wheel origin, multiple of kBucketWidth
  std::size_t cursor_ = 0;  // first bucket that can still hold entries
  // Bucket whose refs sit in heap_ (kBuckets: none). When set it is the
  // first occupied bucket at or after cursor_.
  std::size_t loaded_ = kBuckets;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNil;
  std::vector<Node> nodes_;  // pooled bucket-list cells
  std::uint32_t free_node_ = kNil;
  std::vector<std::uint32_t> heads_;  // per-bucket list head, kNil = empty
  std::vector<Ref> heap_;             // loaded bucket, min-heap by (time, seq)
  std::uint64_t occupied_[kBitmapWords] = {};
  std::vector<Ref> overflow_;  // min-heap by (time, seq)
};

}  // namespace lrs::sim
